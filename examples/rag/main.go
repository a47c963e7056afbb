// Retrieval-augmented generation (RAG) scenario: passage embeddings are
// searched under a strict recall constraint (missed passages hurt answer
// quality), so the index configuration is chosen by DRIM-ANN's design
// space exploration (paper §4.1) instead of by hand: the fastest
// configuration, by the performance model, whose measured recall meets the
// floor.
package main

import (
	"fmt"
	"log"

	"drimann"
	"drimann/internal/dse"
	"drimann/internal/perfmodel"
	"drimann/internal/upmem"
)

func main() {
	// Passage embeddings: 100-dim (SPACEV-like text descriptors).
	corpus := drimann.Generate(drimann.SynthConfig{
		Name: "passages", N: 40000, D: 100, NumQueries: 256,
		NumClusters: 300, Seed: 11, Noise: 9,
	})
	gt := drimann.GroundTruth(corpus.Base, corpus.Queries, 10, 0)

	// Design space: how many clusters to probe, how fine the clustering,
	// and the quantizer resolution.
	space := dse.Space{
		P:     []int{8, 16, 32, 48},
		NList: []int{128, 512},
		M:     []int{10, 20},
		CB:    []int{64, 256},
	}
	host := perfmodel.FromPlatform(upmem.PlatformCPU())
	pim := perfmodel.UPMEM(128)

	indexes := map[string]*drimann.Index{}
	getIndex := func(c dse.Candidate) (*drimann.Index, error) {
		key := fmt.Sprintf("%d/%d/%d", c.NList, c.M, c.CB)
		if ix, ok := indexes[key]; ok {
			return ix, nil
		}
		ix, err := drimann.Build(corpus.Base, drimann.IndexOptions{
			NList: c.NList, M: c.M, CB: c.CB, Seed: 11,
		})
		if err == nil {
			indexes[key] = ix
		}
		return ix, err
	}

	res, err := dse.Optimize(space,
		func(c dse.Candidate) (float64, error) {
			p := perfmodel.Params{
				N: int64(corpus.Base.N), Q: corpus.Queries.N, D: corpus.Base.D,
				K: 10, P: c.P, C: max(1, corpus.Base.N/c.NList), M: c.M, CB: c.CB,
			}
			return perfmodel.PredictQPS(p, host, pim, true)
		},
		func(c dse.Candidate) (float64, error) {
			ix, err := getIndex(c)
			if err != nil {
				return 0, err
			}
			got := ix.SearchIntBatch(corpus.Queries, c.P, 10, 0)
			return drimann.Recall(gt, got, 10), nil
		},
		0.8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DSE chose %s (recall %.3f, feasible=%v) after %d measurements\n",
		res.Best.String(), res.BestRecall, res.Feasible, len(res.History))

	// Deploy the chosen configuration and retrieve passages for a batch of
	// questions.
	ix, err := getIndex(res.Best)
	if err != nil {
		log.Fatal(err)
	}
	opts := drimann.DefaultEngineOptions()
	opts.NumDPUs = 128
	opts.NProbe = res.Best.P
	opts.K = 10
	eng, err := drimann.NewEngine(ix, corpus.Queries, opts)
	if err != nil {
		log.Fatal(err)
	}
	out, err := eng.SearchBatch(corpus.Queries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrieved top-10 passages for %d questions at %.0f QPS (simulated), recall@10 %.3f\n",
		out.Metrics.Queries, out.Metrics.QPS, drimann.Recall(gt, out.IDs, 10))
	fmt.Printf("question 0 -> passages %v\n", out.IDs[0])
}
