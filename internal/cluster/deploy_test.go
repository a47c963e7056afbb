package cluster_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
)

// TestSharedDeployMatchesEngine: New locates the profile once, builds one LUT
// term table for the fleet and deploys the shards side by side; every shard
// engine it returns — replica 0 and its replica — is the engine core.New
// deploys alone over the same sub-index and profile: the same placement, the
// same answers and Metrics on queries the profile did not hold, the same
// memory footprint (each shard counts the table it reads). The profile spans
// several scheduling batches, so the share table is measured on a proper
// prefix of the shared probes.
func TestSharedDeployMatchesEngine(t *testing.T) {
	ix, s := testFixture(t, 6000, 96)
	profile := dataset.U8Set{N: 64, D: s.Queries.D, Data: s.Queries.Data[:64*s.Queries.D]}
	held := dataset.U8Set{N: 32, D: s.Queries.D, Data: s.Queries.Data[64*s.Queries.D:]}
	opts := engineOpts()
	opts.BatchSize = 24
	for _, shards := range []int{1, 2, 7} {
		for _, assign := range []cluster.Assignment{cluster.AssignHash, cluster.AssignKMeans} {
			t.Run(fmt.Sprintf("S=%d/%s", shards, assign), func(t *testing.T) {
				cl, err := cluster.New(ix, profile, cluster.Options{Shards: shards, Replicas: 2, Assignment: assign, Engine: opts})
				if err != nil {
					t.Fatal(err)
				}
				for si, sh := range cl.Shards() {
					alone, err := core.New(sh.Engine.Index(), profile, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(sh.Engine.Placement(), alone.Placement()) {
						t.Fatalf("shard %d: placement differs from the engine deployed alone", si)
					}
					if got, want := sh.Engine.MemoryFootprint(), alone.MemoryFootprint(); got != want {
						t.Fatalf("shard %d: memory footprint %+v, alone %+v", si, got, want)
					}
					want, err := alone.SearchBatch(held)
					if err != nil {
						t.Fatal(err)
					}
					for r, eng := range sh.Engines {
						got, err := eng.SearchBatch(held)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Items, want.Items) {
							t.Fatalf("shard %d replica %d: answers differ from the engine deployed alone", si, r)
						}
						if got.Metrics != want.Metrics {
							t.Fatalf("shard %d replica %d: metrics\n got %+v\nwant %+v", si, r, got.Metrics, want.Metrics)
						}
					}
				}
			})
		}
	}
}

// TestShardDeployErrorIsDeterministic: the shards deploy side by side, and
// when they all fail New reports shard 0's error — every call, whichever
// goroutine failed first — and returns only once every deploy has ended.
func TestShardDeployErrorIsDeterministic(t *testing.T) {
	ix, s := testFixture(t, 3000, 16)
	opts := engineOpts()
	opts.MRAMBytes = 4 << 10 // below the index-wide data every DPU holds
	before := runtime.NumGoroutine()
	for call := 0; call < 20; call++ {
		_, err := cluster.New(ix, s.Queries, cluster.Options{Shards: 4, Replicas: 2, Assignment: cluster.AssignHash, Engine: opts})
		if err == nil || !strings.HasPrefix(err.Error(), "cluster: shard 0 engine:") {
			t.Fatalf("call %d: %v, want shard 0's error", call, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the failed deploys, %d before", n, before)
	}
}

// TestMalformedProfileIsRefused: under either assignment New refuses a profile
// whose dimension is not the index's or whose Data is not exactly N x D bytes,
// before it locates it — the k-means split's ListCycles engine included.
func TestMalformedProfileIsRefused(t *testing.T) {
	ix, s := testFixture(t, 2000, 16)
	q := s.Queries
	for _, tc := range []struct {
		name    string
		profile dataset.U8Set
	}{
		{"wrong D", dataset.U8Set{N: 2 * q.N, D: q.D / 2, Data: q.Data}},
		{"short data", dataset.U8Set{N: q.N, D: q.D, Data: q.Data[:len(q.Data)-5]}},
		{"long data", dataset.U8Set{N: q.N - 1, D: q.D, Data: q.Data}},
	} {
		for _, assign := range []cluster.Assignment{cluster.AssignHash, cluster.AssignKMeans} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, assign), func(t *testing.T) {
				if _, err := cluster.New(ix, tc.profile, cluster.Options{Shards: 2, Assignment: assign, Engine: engineOpts()}); err == nil {
					t.Fatal("New accepted the profile")
				}
			})
		}
	}
}
