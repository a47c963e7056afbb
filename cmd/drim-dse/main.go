// Command drim-dse runs DRIM-ANN's design space exploration (paper §4.1)
// on a synthetic corpus: it walks (nprobe, nlist, M, CB) in descending
// model-predicted throughput and stops at the first configuration whose
// measured recall meets the constraint (internal/dse says why this replaces
// the paper's Bayesian search).
//
// Usage:
//
//	drim-dse -dataset SIFT -n 50000 -accuracy 0.8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"drimann"
	"drimann/internal/dse"
	"drimann/internal/ivf"
	"drimann/internal/perfmodel"
	"drimann/internal/pq"
	"drimann/internal/upmem"
)

var datasets = map[string]func(n, queries int, seed int64) *drimann.Synth{
	"SIFT": drimann.SIFT, "DEEP": drimann.DEEP, "SPACEV": drimann.SPACEV, "T2I": drimann.T2I,
}

type config struct {
	dataset             string
	n, queries, k, dpus int
	accuracy            float64
	seed                int64
}

// parseArgs reads the flags and rejects any that would crash the search or
// ask for a floor no configuration can meet.
func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("drim-dse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.dataset, "dataset", "SIFT", "synthetic dataset shape: SIFT, DEEP, SPACEV, T2I")
	fs.IntVar(&c.n, "n", 50000, "corpus size")
	fs.IntVar(&c.queries, "queries", 256, "queries used to measure recall")
	fs.Float64Var(&c.accuracy, "accuracy", 0.8, "recall@k constraint")
	fs.IntVar(&c.k, "k", 10, "neighbors per query")
	fs.IntVar(&c.dpus, "dpus", 128, "modeled DPUs")
	fs.Int64Var(&c.seed, "seed", 1, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	switch {
	case fs.NArg() > 0:
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case datasets[c.dataset] == nil:
		return config{}, fmt.Errorf("unknown dataset %q", c.dataset)
	case c.n/256 < 1:
		return config{}, fmt.Errorf("-n %d: the smallest nlist, n/256, must be at least 1", c.n)
	case c.k < 1 || c.queries < 1 || c.dpus < 1:
		return config{}, errors.New("-k, -queries and -dpus must be at least 1")
	case !(c.accuracy > 0 && c.accuracy <= 1):
		return config{}, fmt.Errorf("-accuracy %v: a recall floor must lie in (0, 1]", c.accuracy)
	}
	return c, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("drim-dse: ")
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "drim-dse: %v\n", err)
		os.Exit(2)
	}

	s := datasets[cfg.dataset](cfg.n, cfg.queries, cfg.seed)
	gt := drimann.GroundTruth(s.Base, s.Queries, cfg.k, 0)

	baseM := 16
	for s.Base.D%baseM != 0 {
		baseM /= 2
	}
	space := dse.Space{
		P:     []int{8, 16, 32, 64},
		NList: []int{cfg.n / 256, cfg.n / 64, cfg.n / 16},
		M:     []int{baseM, baseM * 2},
		CB:    []int{64, 256},
	}
	host := perfmodel.FromPlatform(upmem.PlatformCPU())
	pim := perfmodel.UPMEM(cfg.dpus)

	indexes := map[string]*ivf.Index{}
	qpsFn := func(c dse.Candidate) (float64, error) {
		p := perfmodel.Params{
			N: int64(s.Base.N), Q: s.Queries.N, D: s.Base.D,
			K: cfg.k, P: c.P, C: max(1, s.Base.N/c.NList), M: c.M, CB: c.CB,
		}
		return perfmodel.PredictQPS(p, host, pim, true)
	}
	evals := 0
	recallFn := func(c dse.Candidate) (float64, error) {
		key := fmt.Sprintf("%d/%d/%d", c.NList, c.M, c.CB)
		ix := indexes[key]
		if ix == nil {
			var err error
			ix, err = ivf.Build(s.Base, ivf.BuildConfig{
				NList: c.NList, PQ: pq.Config{M: c.M, CB: c.CB}, Seed: cfg.seed,
			})
			if err != nil {
				return 0, err
			}
			indexes[key] = ix
		}
		got := ix.SearchIntBatch(s.Queries, c.P, cfg.k, 0)
		r := drimann.Recall(gt, got, cfg.k)
		evals++
		fmt.Printf("  eval %2d: %-28s recall=%.3f\n", evals, c.String(), r)
		return r, nil
	}

	fmt.Printf("walking %d candidates in model-QPS order, recall@%d >= %.2f\n",
		len(space.All()), cfg.k, cfg.accuracy)
	res, err := dse.Optimize(space, qpsFn, recallFn, cfg.accuracy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest: %s\n  model QPS = %.0f, measured recall = %.3f, feasible = %v\n",
		res.Best.String(), res.BestQPS, res.BestRecall, res.Feasible)
}
