// Command drim-search builds a DRIM-ANN index over a corpus (a .bvecs file
// or a generated synthetic dataset) and serves a query workload through the
// online serving layer (drimann.NewServer) on the simulated UPMEM system:
// concurrent clients submit single queries, the deadline-aware micro-batcher
// coalesces them into engine launches, and the tool reports achieved QPS,
// client-observed latency percentiles, recall and the phase breakdown.
//
// Usage:
//
//	drim-search -dataset SIFT -n 100000 -queries 1000 -nlist 1024 -nprobe 32
//	drim-search -base corpus.bvecs -query queries.bvecs -nlist 4096
//	drim-search -clients 16 -maxwait 500us -maxbatch 64
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"sync"
	"time"

	"drimann"
	"drimann/internal/dataset"
	"drimann/internal/upmem"
)

var datasets = map[string]func(n, queries int, seed int64) *drimann.Synth{
	"SIFT": drimann.SIFT, "DEEP": drimann.DEEP, "SPACEV": drimann.SPACEV, "T2I": drimann.T2I,
}

type config struct {
	dataset, baseF, queryF                                       string
	n, queries, nlist, m, cb, nprobe, k, dpus, clients, maxBatch int
	seed                                                         int64
	showGT                                                       bool
	maxWait                                                      time.Duration
}

// parseArgs reads the flags and rejects any count below 1 that the search
// would otherwise crash on, or silently replace with a default.
func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("drim-search", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.dataset, "dataset", "SIFT", "synthetic dataset shape: SIFT, DEEP, SPACEV, T2I")
	fs.IntVar(&c.n, "n", 100000, "synthetic corpus size")
	fs.IntVar(&c.queries, "queries", 1000, "synthetic query count")
	fs.StringVar(&c.baseF, "base", "", "optional .bvecs corpus file (overrides -dataset)")
	fs.StringVar(&c.queryF, "query", "", "optional .bvecs query file (with -base)")
	fs.IntVar(&c.nlist, "nlist", 1024, "number of coarse clusters")
	fs.IntVar(&c.m, "m", 16, "PQ subvectors")
	fs.IntVar(&c.cb, "cb", 256, "PQ codebook entries")
	fs.IntVar(&c.nprobe, "nprobe", 32, "clusters probed per query")
	fs.IntVar(&c.k, "k", 10, "neighbors per query")
	fs.IntVar(&c.dpus, "dpus", 128, "simulated DPUs")
	fs.Int64Var(&c.seed, "seed", 1, "RNG seed")
	fs.BoolVar(&c.showGT, "recall", true, "compute exact ground truth and recall (brute force)")
	fs.IntVar(&c.clients, "clients", 8, "concurrent serving clients")
	fs.DurationVar(&c.maxWait, "maxwait", 200*time.Microsecond, "micro-batcher max wait")
	fs.IntVar(&c.maxBatch, "maxbatch", 0, "micro-batcher max batch (0 = engine batch size)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"k", c.k}, {"nlist", c.nlist}, {"m", c.m}, {"cb", c.cb}, {"nprobe", c.nprobe},
		{"dpus", c.dpus}, {"clients", c.clients}, {"queries", c.queries},
	} {
		if f.v < 1 {
			return config{}, fmt.Errorf("-%s %d: must be at least 1", f.name, f.v)
		}
	}
	switch {
	case c.baseF != "" && c.queryF == "":
		return config{}, errors.New("-query is required with -base")
	case c.baseF == "" && datasets[c.dataset] == nil:
		return config{}, fmt.Errorf("unknown dataset %q", c.dataset)
	}
	return c, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("drim-search: ")
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "drim-search: %v\n", err)
		os.Exit(2)
	}

	var base, qs drimann.Vectors
	if cfg.baseF != "" {
		if base, err = dataset.LoadBvecsFile(cfg.baseF); err != nil {
			log.Fatal(err)
		}
		if qs, err = dataset.LoadBvecsFile(cfg.queryF); err != nil {
			log.Fatal(err)
		}
	} else {
		s := datasets[cfg.dataset](cfg.n, cfg.queries, cfg.seed)
		base, qs = s.Base, s.Queries
	}
	fmt.Printf("corpus: %d x %d, queries: %d\n", base.N, base.D, qs.N)
	if qs.N == 0 {
		log.Fatal("no queries to serve")
	}

	ix, err := drimann.Build(base, drimann.IndexOptions{
		NList: cfg.nlist, M: cfg.m, CB: cfg.cb, Seed: cfg.seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: nlist=%d M=%d CB=%d (avg cluster %.0f points)\n",
		ix.NList, ix.M, ix.CB, ix.AvgListLen())

	opts := drimann.DefaultEngineOptions()
	opts.NumDPUs = cfg.dpus
	opts.NProbe = cfg.nprobe
	opts.K = cfg.k
	eng, err := drimann.NewEngine(ix, qs, opts)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := drimann.NewServer(eng, drimann.ServerOptions{
		MaxBatch: cfg.maxBatch, MaxWait: cfg.maxWait,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Drive every query through the server from concurrent clients — the
	// online path a real workload takes — collecting per-query results and
	// client-observed latencies.
	ids := make([][]int32, qs.N)
	latencies := make([]time.Duration, qs.N)
	var wg sync.WaitGroup
	nClients := cfg.clients
	start := time.Now()
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for qi := c; qi < qs.N; qi += nClients {
				resp, err := srv.Search(context.Background(), qs.Vec(qi), cfg.k)
				if err != nil {
					log.Fatalf("query %d: %v", qi, err)
				}
				ids[qi] = resp.IDs
				latencies[qi] = resp.Latency
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}

	st := srv.Stats()
	m2 := st.Sim
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		return drimann.LatencyPercentile(latencies, p).Seconds() * 1e3
	}
	fmt.Printf("\nserved %d queries with %d clients in %.2fs: %.0f QPS achieved (wall), %.0f QPS simulated on %d DPUs\n",
		qs.N, nClients, wall.Seconds(), float64(qs.N)/wall.Seconds(), m2.QPS, cfg.dpus)
	fmt.Printf("latency p50 %.3fms  p95 %.3fms  p99 %.3fms; %d launches, mean batch %.1f, imbalance %.2f, scheduler price/simulated cycles %.3f\n",
		pct(0.50), pct(0.95), pct(0.99), st.Batches, st.MeanBatch, m2.AvgImbalance(), m2.PriceRatio())
	fmt.Printf("phase breakdown: ")
	sh := m2.PhaseShare()
	for p := upmem.Phase(0); p < upmem.NumPhases; p++ {
		if sh[p] > 0 {
			fmt.Printf("%s %.1f%%  ", p, sh[p]*100)
		}
	}
	fmt.Println()
	fmt.Printf("locks: %d acquired, %d pruned; LUT builds %d, reuses %d; scan pruned %.1f%% of points, gathered %.1f codes per point\n",
		m2.LockAcquired, m2.LockSkipped, m2.LUTBuilds, m2.LUTReuses, m2.PruneRate()*100, m2.CodesPerPoint())

	if cfg.showGT {
		gt := drimann.GroundTruth(base, qs, cfg.k, 0)
		fmt.Printf("recall@%d = %.4f\n", cfg.k, drimann.Recall(gt, ids, cfg.k))
	}
	if len(ids) > 0 {
		fmt.Printf("query 0 neighbors: %v\n", ids[0])
	}
	os.Exit(0)
}
