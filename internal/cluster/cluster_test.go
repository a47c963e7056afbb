package cluster_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/testutil"
	"drimann/internal/topk"
)

// testFixture builds the shared corpus + index every cluster test
// partitions: clustered synthetic data with skewed queries, so both
// assignment policies see uneven inverted lists.
func testFixture(t testing.TB, n, queries int) (*ivf.Index, *dataset.Synth) {
	t.Helper()
	ix, s := testutil.Fixture(t, testutil.FixtureSpec{
		Name: "cluster", N: n, D: 64, Queries: queries,
		NumClusters: 40, Seed: 7, Noise: 9,
		NList: 64, M: 16, CB: 256, KMeansIters: 6, TrainSample: 3000,
		BuildSeed: 7,
	})
	return ix, s
}

func engineOpts() core.Options {
	o := core.DefaultOptions()
	o.NumDPUs = 16
	o.NProbe = 8
	o.K = 10
	return o
}

// TestClusterEquivalence is the acceptance property of the sharding layer:
// for S ∈ {1, 2, 7} shards under both assignment policies, in every kernel
// configuration (UseSQT x UseWRAM), the merged scatter-gather top-k (IDs and
// Items) is bit-identical to a single-engine SearchBatch over the unsharded
// corpus under the same options. This holds because every shard
// shares the full quantizer state (so the front door locates the same probe
// set and every shard computes the same integer distances), the shards
// partition the scanned points under their global ids, and the global top-k
// of a partitioned multiset is the merge of the per-part top-k lists. Both policies go through the one
// routed path (front-door CL + SearchBatchProbed per owning shard); they
// differ only in how many shards own a probed cluster.
func TestClusterEquivalence(t *testing.T) {
	ix, s := testFixture(t, 6000, 64)
	type config struct {
		name string
		opts core.Options
		ref  *core.Result
	}
	var configs []config
	for _, sqt := range []bool{false, true} {
		for _, wram := range []bool{false, true} {
			opts := engineOpts()
			opts.UseSQT, opts.UseWRAM = sqt, wram
			single, err := core.New(ix, s.Queries, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := single.SearchBatch(s.Queries)
			if err != nil {
				t.Fatal(err)
			}
			configs = append(configs, config{fmt.Sprintf("sqt=%v_wram=%v", sqt, wram), opts, ref})
		}
	}

	for _, c := range configs {
		for _, shards := range []int{1, 2, 7} {
			for _, assign := range []cluster.Assignment{cluster.AssignHash, cluster.AssignKMeans} {
				t.Run(fmt.Sprintf("S=%d/%s/%s", shards, assign, c.name), func(t *testing.T) {
					cl, err := cluster.New(ix, s.Queries, cluster.Options{
						Shards: shards, Assignment: assign, Engine: c.opts,
					})
					if err != nil {
						t.Fatal(err)
					}
					got, err := cl.SearchBatch(s.Queries)
					if err != nil {
						t.Fatal(err)
					}
					for qi := 0; qi < s.Queries.N; qi++ {
						if !reflect.DeepEqual(got.IDs[qi], c.ref.IDs[qi]) {
							t.Fatalf("query %d IDs diverge:\n  cluster %v\n  single  %v",
								qi, got.IDs[qi], c.ref.IDs[qi])
						}
						if !reflect.DeepEqual(got.Items[qi], c.ref.Items[qi]) {
							t.Fatalf("query %d Items diverge:\n  cluster %v\n  single  %v",
								qi, got.Items[qi], c.ref.Items[qi])
						}
					}
					// Cross-shard metrics view: the fleet scanned exactly the
					// single engine's points (the shards partition the corpus),
					// and the merged wall-clock is the slowest shard, never the
					// sum.
					if got.Metrics.PointsScanned != c.ref.Metrics.PointsScanned {
						t.Fatalf("points scanned %d != single %d",
							got.Metrics.PointsScanned, c.ref.Metrics.PointsScanned)
					}
					if got.Metrics.Queries != s.Queries.N {
						t.Fatalf("merged Queries = %d, want %d", got.Metrics.Queries, s.Queries.N)
					}
					if got.Metrics.SimSeconds <= 0 {
						t.Fatal("merged SimSeconds not positive")
					}
					// Routing stats, under either placement: every query is
					// recorded with fan-out in [1, S] and the front-door CL
					// is charged.
					st := cl.Stats()
					if st.Route.RoutedQueries != s.Queries.N {
						t.Fatalf("routed %d queries, want %d", st.Route.RoutedQueries, s.Queries.N)
					}
					if mf := st.Route.MeanFanout(); mf < 1 || mf > float64(shards) {
						t.Fatalf("mean fan-out %v outside [1, %d]", mf, shards)
					}
					if st.Route.FanoutHist[0] != 0 {
						t.Fatalf("%d queries contacted no shard", st.Route.FanoutHist[0])
					}
					if st.Route.MaxFanout > shards {
						t.Fatalf("max fan-out %d > %d shards", st.Route.MaxFanout, shards)
					}
					if st.Route.FrontCLSimSeconds <= 0 {
						t.Fatal("front-door CL sim cost not recorded")
					}
				})
			}
		}
	}
}

// TestClusterPartition pins the partition invariants: every corpus point is
// owned by exactly one shard, under its global id, and kmeans assignment keeps
// whole coarse clusters on one shard.
func TestClusterPartition(t *testing.T) {
	ix, s := testFixture(t, 4000, 16)
	for _, assign := range []cluster.Assignment{cluster.AssignHash, cluster.AssignKMeans} {
		t.Run(string(assign), func(t *testing.T) {
			cl, err := cluster.New(ix, s.Queries, cluster.Options{
				Shards: 3, Assignment: assign, Engine: engineOpts(),
			})
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int32]int)
			total := 0
			for si, sh := range cl.Shards() {
				ids := sh.IVF().Index().LiveIDs()
				if sh.Points != len(ids) {
					t.Fatalf("shard %d Points %d != %d live ids", si, sh.Points, len(ids))
				}
				for _, g := range ids {
					if prev, dup := seen[g]; dup {
						t.Fatalf("point %d owned by shards %d and %d", g, prev, si)
					}
					seen[g] = si
				}
				total += sh.Points
			}
			if total != s.Base.N {
				t.Fatalf("shards own %d points, corpus has %d", total, s.Base.N)
			}
			if assign == cluster.AssignKMeans {
				for c, list := range ix.Lists {
					if len(list) == 0 {
						continue
					}
					owner := seen[list[0]]
					for _, id := range list[1:] {
						if seen[id] != owner {
							t.Fatalf("kmeans: cluster %d split across shards %d and %d",
								c, owner, seen[id])
						}
					}
				}
			}
		})
	}
}

// TestMergeShardTopK exercises the merge helper directly: interleaved
// sorted partials, truncation, empty parts, and fewer-than-k totals.
func TestMergeShardTopK(t *testing.T) {
	it := func(id int32, d uint32) topk.Item[uint32] { return topk.Item[uint32]{ID: id, Dist: d} }
	parts := [][]topk.Item[uint32]{
		{it(4, 1), it(0, 5), it(8, 9)},
		{},
		{it(2, 2), it(6, 5), it(10, 7)},
	}
	ids, items := core.MergeShardTopK(4, parts)
	wantIDs := []int32{4, 2, 0, 6}
	if !reflect.DeepEqual(ids, wantIDs) {
		t.Fatalf("merged ids %v, want %v", ids, wantIDs)
	}
	for i, id := range ids {
		if items[i].ID != id {
			t.Fatalf("items[%d].ID %d != ids[%d] %d", i, items[i].ID, i, id)
		}
	}
	// Tie on distance across parts: smaller ID wins (0 before 6 at dist 5).
	if items[2].Dist != 5 || items[2].ID != 0 {
		t.Fatalf("tie-break wrong: %+v", items[2])
	}
	ids, _ = core.MergeShardTopK(10, parts)
	if len(ids) != 6 {
		t.Fatalf("undersized merge returned %d ids, want all 6", len(ids))
	}
}

// TestMetricsMergeParallel pins the cross-shard metrics semantics: sums for
// counters, max for wall-like durations, recomputed QPS.
func TestMetricsMergeParallel(t *testing.T) {
	a := core.Metrics{Queries: 100, SimSeconds: 2, HostSeconds: 1, PIMSeconds: 2,
		Launches: 3, PointsScanned: 500, PointsPruned: 400, CodesGathered: 2000, ImbalanceSum: 3.3}
	b := core.Metrics{Queries: 100, SimSeconds: 5, HostSeconds: 4, PIMSeconds: 1,
		Launches: 2, PointsScanned: 700, PointsPruned: 350, CodesGathered: 5600, ImbalanceSum: 2.2}
	var m core.Metrics
	m.MergeParallel(&a)
	m.MergeParallel(&b)
	if m.Queries != 100 {
		t.Fatalf("Queries %d, want max 100", m.Queries)
	}
	if m.SimSeconds != 5 || m.HostSeconds != 4 || m.PIMSeconds != 2 {
		t.Fatalf("wall-like fields not max-merged: %+v", m)
	}
	if m.Launches != 5 || m.PointsScanned != 1200 {
		t.Fatalf("counters not summed: %+v", m)
	}
	if want := 100.0 / 5.0; m.QPS != want {
		t.Fatalf("QPS %v, want %v", m.QPS, want)
	}
	// A fleet's waves and replicas merge this way too, so its prune rate and
	// codes per point are those of everything every engine scanned.
	if m.PointsPruned != 750 || m.CodesGathered != 7600 || m.PruneRate() != 750.0/1200 || m.CodesPerPoint() != 7600.0/1200 {
		t.Fatalf("scan counters not summed: %+v", m)
	}
	if got := m.AvgImbalance(); got != (3.3+2.2)/5 {
		t.Fatalf("AvgImbalance %v", got)
	}
}

// TestClusterDimMismatch checks front-door argument validation.
func TestClusterDimMismatch(t *testing.T) {
	ix, s := testFixture(t, 2000, 4)
	cl, err := cluster.New(ix, s.Queries, cluster.Options{Shards: 2, Engine: engineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	bad := dataset.U8Set{N: 1, D: 8, Data: make([]uint8, 8)}
	if _, err := cl.SearchBatch(bad); err == nil {
		t.Fatal("dim mismatch should fail")
	}
}

// TestReplicaLimit: the routed Server tracks a query's tried replicas in one
// uint64, so a shard takes at most 64 — a 65th is refused at construction
// instead of being a replica failover can never mark tried.
func TestReplicaLimit(t *testing.T) {
	ix, s := testFixture(t, 2000, 4)
	o := engineOpts()
	o.NumDPUs = 2
	if _, err := cluster.New(ix, s.Queries, cluster.Options{Shards: 1, Replicas: 65, Engine: o}); err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Fatalf("65 replicas: error %v, want one naming the limit", err)
	}
	cl, err := cluster.New(ix, s.Queries, cluster.Options{Shards: 1, Replicas: 64, Engine: o})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cl.Shards()[0].Engines); n != 64 {
		t.Fatalf("%d replica engines, want 64", n)
	}
}
