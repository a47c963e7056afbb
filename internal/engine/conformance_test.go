// Backend conformance suite: one shared table of contract properties run
// against every engine implementation. Anything a serving layer relies on —
// empty-batch behavior, determinism, result ordering, k handling through
// the server, MaxBatch clamping, metrics mergeability — is asserted here
// for the IVF-PQ and graph backends alike, so a new backend that passes
// this table is known to drop into serve unmodified.

package engine_test

import (
	"context"
	"reflect"
	"testing"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/graph"
	"drimann/internal/serve"
	"drimann/internal/testutil"
	"drimann/internal/topk"
)

// conformanceFixture builds one corpus and both backends over it.
func conformanceBackends(t *testing.T) (map[string]engine.Engine, *dataset.Synth) {
	t.Helper()
	spec := testutil.FixtureSpec{
		Name: "conformance", N: 3000, D: 24, Queries: 32,
		NumClusters: 24, Seed: 17, Noise: 10,
		NList: 32, M: 8, CB: 64, BuildSeed: 5,
	}
	ix, s := testutil.Fixture(t, spec)

	copts := core.DefaultOptions()
	copts.NumDPUs = 16
	copts.K = 10
	copts.NProbe = 12
	copts.BatchSize = 16
	ivfEng, err := core.New(ix, dataset.U8Set{}, copts)
	if err != nil {
		t.Fatal(err)
	}

	gopts := graph.DefaultOptions()
	gopts.NumDPUs = 16
	gopts.K = 10
	gopts.BatchSize = 16
	graphEng, err := graph.New(s.Base, gopts)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]engine.Engine{"ivf": ivfEng, "graph": graphEng}, s
}

func TestBackendConformance(t *testing.T) {
	backends, s := conformanceBackends(t)
	for name, eng := range backends {
		t.Run(name, func(t *testing.T) {
			testConformance(t, eng, s)
		})
	}
}

func testConformance(t *testing.T, eng engine.Engine, s *dataset.Synth) {
	if eng.K() <= 0 || eng.Dim() != s.Base.D || eng.MaxBatch() <= 0 {
		t.Fatalf("degenerate contract surface: K=%d Dim=%d MaxBatch=%d",
			eng.K(), eng.Dim(), eng.MaxBatch())
	}

	t.Run("EmptyBatch", func(t *testing.T) {
		res, err := eng.SearchBatch(dataset.U8Set{D: eng.Dim()})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) != 0 || len(res.Items) != 0 {
			t.Fatalf("empty batch returned %d/%d rows", len(res.IDs), len(res.Items))
		}
		if res.Metrics.Queries != 0 || res.Metrics.SimSeconds != 0 {
			t.Fatalf("empty batch charged time: %+v", res.Metrics)
		}
	})

	var direct *engine.Result
	t.Run("DeterminismAcrossRuns", func(t *testing.T) {
		r1, err := eng.SearchBatch(s.Queries)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := eng.SearchBatch(s.Queries)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.IDs, r2.IDs) || !reflect.DeepEqual(r1.Items, r2.Items) {
			t.Fatal("results differ across runs")
		}
		if r1.Metrics.SimSeconds != r2.Metrics.SimSeconds {
			t.Fatalf("simulated time differs across runs: %g vs %g",
				r1.Metrics.SimSeconds, r2.Metrics.SimSeconds)
		}
		direct = r1
	})
	if direct == nil {
		t.Fatal("determinism subtest did not run")
	}

	t.Run("ResultShape", func(t *testing.T) {
		for qi := range direct.IDs {
			ids, items := direct.IDs[qi], direct.Items[qi]
			if len(ids) == 0 || len(ids) > eng.K() {
				t.Fatalf("query %d: %d neighbors, want 1..%d", qi, len(ids), eng.K())
			}
			if len(ids) != len(items) {
				t.Fatalf("query %d: IDs/Items length mismatch", qi)
			}
			for j := range items {
				if items[j].ID != ids[j] {
					t.Fatalf("query %d: IDs[%d] != Items[%d].ID", qi, j, j)
				}
				if j > 0 && !topk.Less(items[j-1], items[j]) {
					t.Fatalf("query %d: results not strictly ascending (dist, id)", qi)
				}
			}
		}
	})

	t.Run("MixedKThroughServe", func(t *testing.T) {
		srv, err := serve.New(eng, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for _, k := range []int{1, eng.K() / 2, eng.K()} {
			for qi := 0; qi < s.Queries.N; qi++ {
				resp, err := srv.Search(context.Background(), s.Queries.Vec(qi), k)
				if err != nil {
					t.Fatal(err)
				}
				want := direct.IDs[qi]
				if len(want) > k {
					want = want[:k]
				}
				if !reflect.DeepEqual(resp.IDs, want) {
					t.Fatalf("k=%d query %d: serve IDs %v != direct prefix %v",
						k, qi, resp.IDs, want)
				}
			}
		}
	})

	t.Run("MaxBatchClamp", func(t *testing.T) {
		srv, err := serve.New(eng, serve.Options{MaxBatch: eng.MaxBatch() * 10})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if got := srv.Options().MaxBatch; got != eng.MaxBatch() {
			t.Fatalf("server MaxBatch %d not clamped to engine MaxBatch %d",
				got, eng.MaxBatch())
		}
	})

	t.Run("MetricsMergeSanity", func(t *testing.T) {
		half := dataset.U8Set{N: s.Queries.N / 2, D: s.Queries.D,
			Data: s.Queries.Data[:(s.Queries.N/2)*s.Queries.D]}
		r1, err := eng.SearchBatch(half)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := eng.SearchBatch(half)
		if err != nil {
			t.Fatal(err)
		}
		m := r1.Metrics
		m.Merge(&r2.Metrics)
		if m.Queries != 2*half.N {
			t.Fatalf("merged Queries = %d, want %d", m.Queries, 2*half.N)
		}
		wantSim := r1.Metrics.SimSeconds + r2.Metrics.SimSeconds
		if m.SimSeconds != wantSim {
			t.Fatalf("merged SimSeconds = %g, want %g", m.SimSeconds, wantSim)
		}
		if m.Launches != r1.Metrics.Launches+r2.Metrics.Launches {
			t.Fatal("merged Launches did not sum")
		}
		if wantQPS := float64(m.Queries) / m.SimSeconds; m.QPS != wantQPS {
			t.Fatalf("merged QPS = %g, want recomputed %g", m.QPS, wantQPS)
		}
	})
}
