// Package integration ties the whole stack together: generate -> build ->
// serialize -> deploy -> tune -> search, asserting cross-module contracts
// that unit tests cannot see.
package integration

import (
	"bytes"
	"fmt"
	"testing"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/dse"
	"drimann/internal/ivf"
	"drimann/internal/perfmodel"
	"drimann/internal/pq"
	"drimann/internal/upmem"
)

func TestFullPipeline(t *testing.T) {
	// 1. Synthetic corpus with skewed queries.
	s := dataset.Generate(dataset.SynthConfig{
		N: 8000, D: 32, NumQueries: 64, NumClusters: 32,
		ZipfS: 1.5, QuerySkew: 0.9, Hotspots: 4, Noise: 9, Seed: 17,
	})
	gt := dataset.GroundTruth(s.Base, s.Queries, 10, 0)

	// 2. Index, round-tripped through serialization.
	built, err := ivf.Build(s.Base, ivf.BuildConfig{
		NList: 64, PQ: pq.Config{M: 16, CB: 64}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix, err := ivf.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Engine over the loaded index.
	opts := core.DefaultOptions()
	opts.NumDPUs = 16
	opts.NProbe = 16
	eng, err := core.New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Quality and equivalence.
	recall := dataset.Recall(gt, res.IDs, 10)
	if recall < 0.7 {
		t.Fatalf("pipeline recall@10 = %v", recall)
	}
	for qi := 0; qi < s.Queries.N; qi++ {
		want := ix.SearchInt(s.Queries.Vec(qi), opts.NProbe, opts.K)
		for j := range want {
			if res.Items[qi][j] != want[j] {
				t.Fatalf("engine diverges from reference at query %d", qi)
			}
		}
	}

	// 5. The engine's measured QPS stays below the analytic upper bound.
	p := perfmodel.Params{
		N: int64(s.Base.N), Q: s.Queries.N, D: s.Base.D,
		K: 10, P: opts.NProbe, C: s.Base.N / ix.NList, M: ix.M, CB: ix.CB,
	}
	host := perfmodel.FromPlatform(upmem.PlatformCPU())
	pim := perfmodel.Hardware{PE: 16, FreqHz: 350e6, Lanes: 1, BWBytes: 16 * 0.7e9}
	bound, err := perfmodel.PredictQPS(p, host, pim, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.QPS > bound*1.05 {
		t.Fatalf("simulated QPS %v exceeds the analytic bound %v", res.Metrics.QPS, bound)
	}
}

func TestDSEToEngine(t *testing.T) {
	// The DSE's chosen configuration must actually deploy and meet its
	// measured recall when run on the engine.
	s := dataset.Generate(dataset.SynthConfig{
		N: 6000, D: 16, NumQueries: 48, NumClusters: 24, Noise: 9, Seed: 23,
	})
	gt := dataset.GroundTruth(s.Base, s.Queries, 10, 0)

	indexes := map[string]*ivf.Index{}
	getIndex := func(c dse.Candidate) (*ivf.Index, error) {
		key := fmt.Sprintf("%d/%d/%d", c.NList, c.M, c.CB)
		if ix, ok := indexes[key]; ok {
			return ix, nil
		}
		ix, err := ivf.Build(s.Base, ivf.BuildConfig{
			NList: c.NList, PQ: pq.Config{M: c.M, CB: c.CB}, Seed: 3,
		})
		if err == nil {
			indexes[key] = ix
		}
		return ix, err
	}
	host := perfmodel.FromPlatform(upmem.PlatformCPU())
	pim := perfmodel.UPMEM(16)

	res, err := dse.Optimize(
		dse.Space{P: []int{4, 8, 16}, NList: []int{16, 48}, M: []int{8, 16}, CB: []int{32, 64}},
		func(c dse.Candidate) (float64, error) {
			p := perfmodel.Params{
				N: int64(s.Base.N), Q: s.Queries.N, D: s.Base.D,
				K: 10, P: c.P, C: max(1, s.Base.N/c.NList), M: c.M, CB: c.CB,
			}
			return perfmodel.PredictQPS(p, host, pim, true)
		},
		func(c dse.Candidate) (float64, error) {
			ix, err := getIndex(c)
			if err != nil {
				return 0, err
			}
			got := ix.SearchIntBatch(s.Queries, c.P, 10, 0)
			return dataset.Recall(gt, got, 10), nil
		},
		0.7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Skip("no feasible configuration at this scale")
	}

	ix, err := getIndex(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.NumDPUs = 8
	opts.NProbe = res.Best.P
	eng, err := core.New(ix, s.Queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	deployed := dataset.Recall(gt, out.IDs, 10)
	if deployed < res.BestRecall-1e-9 {
		t.Fatalf("deployed recall %v below DSE-measured %v (paths must agree)", deployed, res.BestRecall)
	}
}
