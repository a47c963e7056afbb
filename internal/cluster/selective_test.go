package cluster_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drimann/internal/cluster"
	"drimann/internal/dataset"
	"drimann/internal/fault"
	"drimann/internal/serve"
)

// countingReplica interposes on a shard replica to count the front door's
// calls. The counters are per shard (shared by its replicas), so a test can
// assert exactly which shards a query's scatter touched.
type countingReplica struct {
	cluster.Replica
	probed *atomic.Int64
}

func (c countingReplica) SearchProbedOwned(ctx context.Context, q []uint8, k int, probes []int32, dists []uint32) (serve.Response, error) {
	c.probed.Add(1)
	return c.Replica.SearchProbedOwned(ctx, q, k, probes, dists)
}

// TestSelectiveScatterProperty pins the routing property under both
// placement policies: a shard is contacted for a query if and only if it
// owns at least one of the query's probed clusters — a shard whose probe
// list is empty never sees the query, so the fan-out is the number of
// distinct owners of the probes — and every contacted shard is reached
// through SearchProbedOwned. Hedging is disabled and R=1, so each
// contacted shard sees exactly one replica call per query and the counter
// deltas are exact. Under AssignKMeans some query must skip a shard; under
// AssignHash every list is spread over all shards, so none need to.
func TestSelectiveScatterProperty(t *testing.T) {
	const shards = 3
	ix, s := testFixture(t, 5000, 48)
	for _, assign := range []cluster.Assignment{cluster.AssignKMeans, cluster.AssignHash} {
		t.Run(string(assign), func(t *testing.T) {
			cl, err := cluster.New(ix, s.Queries, cluster.Options{
				Shards: shards, Assignment: assign, Engine: engineOpts(),
			})
			if err != nil {
				t.Fatal(err)
			}
			probedCalls := make([]atomic.Int64, shards)
			srv, err := cluster.NewServerRouted(cl,
				serve.Options{MaxBatch: 8, MaxWait: 100 * time.Microsecond},
				cluster.RouteOptions{
					DisableHedge: true,
					WrapReplica: func(shard, replica int, r cluster.Replica) cluster.Replica {
						return countingReplica{Replica: r, probed: &probedCalls[shard]}
					},
				})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			loc := cl.Locator()
			sawPartial := false
			for qi := 0; qi < s.Queries.N; qi++ {
				q := s.Queries.Vec(qi)
				// Recompute the query's probe set independently and derive the
				// expected contact set from the cluster→shard owner map.
				expect := make(map[int32]bool)
				for _, c := range loc.Probes(dataset.U8Set{N: 1, D: cl.Dim(), Data: q}).Clusters {
					for _, sh := range cl.OwnerShards(c) {
						expect[sh] = true
					}
				}
				if len(expect) < shards {
					sawPartial = true
				}

				var before [shards]int64
				for si := range before {
					before[si] = probedCalls[si].Load()
				}
				resp, err := srv.Search(context.Background(), q, 0)
				if err != nil {
					t.Fatalf("query %d: %v", qi, err)
				}
				if resp.ShardsContacted != len(expect) {
					t.Fatalf("query %d: ShardsContacted %d, owner map says %d",
						qi, resp.ShardsContacted, len(expect))
				}
				for si := 0; si < shards; si++ {
					delta := probedCalls[si].Load() - before[si]
					switch {
					case expect[int32(si)] && delta != 1:
						t.Fatalf("query %d: shard %d owns a probed cluster but saw %d calls", qi, si, delta)
					case !expect[int32(si)] && delta != 0:
						t.Fatalf("query %d: shard %d owns no probed cluster but saw %d calls", qi, si, delta)
					}
				}
			}
			st := srv.Stats()
			if st.Route.RoutedQueries != s.Queries.N {
				t.Fatalf("routed %d queries, want %d", st.Route.RoutedQueries, s.Queries.N)
			}
			if len(st.Route.FanoutHist) != shards+1 {
				t.Fatalf("fan-out histogram has %d buckets, want %d", len(st.Route.FanoutHist), shards+1)
			}
			mf := st.Route.MeanFanout()
			if mf < 1 || mf > shards {
				t.Fatalf("mean fan-out %v outside [1, %d]", mf, shards)
			}
			if assign == cluster.AssignKMeans && (!sawPartial || mf >= shards) {
				t.Fatalf("kmeans fleet skipped no shard (mean fan-out %v of %d) — fixture exercises nothing selective", mf, shards)
			}
		})
	}
}

// TestRoutedScatterStress hammers the selective-scatter front door under
// -race with a degraded replica in the fleet: S=3 shards at R=2 where one
// shard's second replica is wrapped with deterministic delay + error
// injection. Mixed k, random short-timeout contexts and a mid-flight Close
// race against the scatter; hedging and failover must mask the sick replica
// (no front-door Failed), every call must resolve exactly once, and the
// per-shard serve ledgers must balance after the drain.
func TestRoutedScatterStress(t *testing.T) {
	ix, s := testFixture(t, 4000, 32)
	cl, err := cluster.New(ix, s.Queries, cluster.Options{
		Shards: 3, Replicas: 2, Assignment: cluster.AssignKMeans, Engine: engineOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cluster.NewServerRouted(cl,
		serve.Options{MaxBatch: 8, MaxWait: 200 * time.Microsecond},
		cluster.RouteOptions{
			WrapReplica: func(shard, replica int, r cluster.Replica) cluster.Replica {
				if shard == 1 && replica == 1 {
					return fault.Wrap(r, fault.Plan{
						Delay: 400 * time.Microsecond, DelayEvery: 3,
						ErrorEvery: 5, Seed: 11,
					})
				}
				return r
			},
		})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 25
	var completed, failed atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 104729))
			for i := 0; i < perG; i++ {
				qi := rng.Intn(s.Queries.N)
				k := 1 + rng.Intn(cl.K())
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				resp, err := srv.Search(ctx, s.Queries.Vec(qi), k)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					if len(resp.IDs) > k || len(resp.IDs) != len(resp.Items) {
						t.Errorf("inconsistent response: %d ids, %d items, k=%d",
							len(resp.IDs), len(resp.Items), k)
					}
					if resp.ShardsContacted < 0 || resp.ShardsContacted > 3 {
						t.Errorf("fan-out %d outside [0, 3]", resp.ShardsContacted)
					}
					completed.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
					errors.Is(err, serve.ErrClosed):
					failed.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	closeErr := make(chan error, 1)
	go func() { closeErr <- srv.Close() }()
	wg.Wait()
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}

	if completed.Load()+failed.Load() != goroutines*perG {
		t.Fatalf("outcomes %d+%d != %d requests",
			completed.Load(), failed.Load(), goroutines*perG)
	}
	st := srv.Stats()
	// The degraded replica's injected errors must be masked by failover (its
	// healthy sibling always answers), never surface as front-door failures.
	if st.Failed != 0 {
		t.Fatalf("front door recorded %d failures despite R=2 masking", st.Failed)
	}
	if st.Completed+st.Canceled+st.Rejected != goroutines*perG {
		t.Fatalf("front-door ledger %d+%d+%d != %d calls",
			st.Completed, st.Canceled, st.Rejected, goroutines*perG)
	}
	if st.Route.RoutedQueries != goroutines*perG {
		t.Fatalf("routing recorded %d queries, want %d", st.Route.RoutedQueries, goroutines*perG)
	}
	for si, ss := range st.Shards {
		tot := ss.Total()
		if tot.Enqueued != tot.Completed+tot.Canceled+tot.Failed {
			t.Fatalf("shard %d ledger unbalanced after drain: %+v", si, tot)
		}
		if tot.QueueDepth != 0 {
			t.Fatalf("shard %d queue depth %d after drain", si, tot.QueueDepth)
		}
	}
}
