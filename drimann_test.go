package drimann_test

import (
	"reflect"
	"testing"
	"time"

	"drimann"
)

// TestPublicAPIEndToEnd exercises the documented quick-start flow.
func TestPublicAPIEndToEnd(t *testing.T) {
	corpus := drimann.Generate(drimann.SynthConfig{
		N: 4000, D: 32, NumQueries: 32, NumClusters: 24, Seed: 5, Noise: 9,
	})
	ix, err := drimann.Build(corpus.Base, drimann.IndexOptions{
		NList: 32, M: 8, CB: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := drimann.DefaultEngineOptions()
	opts.NumDPUs = 16
	opts.NProbe = 8
	eng, err := drimann.NewEngine(ix, corpus.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.SearchBatch(corpus.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.QPS <= 0 {
		t.Fatalf("bad QPS: %+v", res.Metrics)
	}
	gt := drimann.GroundTruth(corpus.Base, corpus.Queries, 10, 0)
	if r := drimann.Recall(gt, res.IDs, 10); r < 0.6 {
		t.Fatalf("public API recall = %v, want >= 0.6", r)
	}
}

func TestPublicAPIVariants(t *testing.T) {
	corpus := drimann.Generate(drimann.SynthConfig{
		N: 2500, D: 16, NumQueries: 8, NumClusters: 16, Seed: 7, Noise: 9,
	})
	ix, err := drimann.Build(corpus.Base, drimann.IndexOptions{
		NList: 16, M: 4, CB: 32, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NList != 16 {
		t.Fatal("bad index")
	}
}

// TestPublicAPISharded exercises the documented sharded flow: NewCluster
// results are bit-identical to a single engine over the same index.
func TestPublicAPISharded(t *testing.T) {
	corpus := drimann.Generate(drimann.SynthConfig{
		N: 4000, D: 32, NumQueries: 24, NumClusters: 24, Seed: 5, Noise: 9,
	})
	opts := drimann.DefaultEngineOptions()
	opts.NumDPUs = 16
	opts.NProbe = 8
	ix, err := drimann.Build(corpus.Base, drimann.IndexOptions{NList: 32, M: 8, CB: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := drimann.NewCluster(ix, corpus.Queries,
		drimann.ClusterOptions{Shards: 3, Assignment: drimann.AssignKMeans, Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := drimann.NewEngine(ix, corpus.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.SearchBatch(corpus.Queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.SearchBatch(corpus.Queries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.IDs, ref.IDs) {
		t.Fatal("sharded IDs diverge from single engine")
	}
	if got.Metrics.QPS <= 0 || len(cl.Shards()) != 3 {
		t.Fatalf("bad cluster state: QPS=%v shards=%d", got.Metrics.QPS, len(cl.Shards()))
	}
}

// TestLatencyPercentileContract is the table test for the documented
// nearest-rank contract of the public wrapper: p=0 clamps to the minimum,
// p=1 is the maximum, n=1 returns the only element for every p, and
// unsorted input indexes the slice as-is (well-defined, caller's bug).
func TestLatencyPercentileContract(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	sorted := []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}
	unsorted := []time.Duration{ms(10), ms(1), ms(7), ms(3)}
	cases := []struct {
		name string
		in   []time.Duration
		p    float64
		want time.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"p=0 clamps to minimum", sorted, 0, ms(1)},
		{"negative p clamps to minimum", sorted, -0.3, ms(1)},
		{"p=1 is the maximum", sorted, 1, ms(10)},
		{"p>1 clamps to maximum", sorted, 1.5, ms(10)},
		{"p50 nearest rank", sorted, 0.5, ms(5)},
		{"p95 on 10 samples is rank 10", sorted, 0.95, ms(10)},
		{"p90 on 10 samples is rank 9", sorted, 0.9, ms(9)},
		{"n=1 any p", []time.Duration{ms(42)}, 0.01, ms(42)},
		{"n=1 p=1", []time.Duration{ms(42)}, 1, ms(42)},
		// The documented sharp edge: unsorted input is indexed as-is, so
		// "p=0.5 of 4 samples" is whatever sits at index 1 — not the median.
		{"unsorted input indexes as-is", unsorted, 0.5, ms(1)},
		{"unsorted input p=1 is last element", unsorted, 1, ms(3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := drimann.LatencyPercentile(c.in, c.p); got != c.want {
				t.Fatalf("LatencyPercentile(%v, %v) = %v, want %v", c.in, c.p, got, c.want)
			}
		})
	}
}

func TestPresetsShapes(t *testing.T) {
	cases := map[string]struct {
		s   *drimann.Synth
		dim int
	}{
		"SIFT":   {drimann.SIFT(500, 4, 1), 128},
		"DEEP":   {drimann.DEEP(500, 4, 1), 96},
		"SPACEV": {drimann.SPACEV(500, 4, 1), 100},
		"T2I":    {drimann.T2I(500, 4, 1), 200},
	}
	for name, c := range cases {
		if c.s.Base.D != c.dim {
			t.Fatalf("%s dim = %d, want %d", name, c.s.Base.D, c.dim)
		}
	}
}
