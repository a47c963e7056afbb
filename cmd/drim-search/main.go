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
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"time"

	"drimann"
	"drimann/internal/dataset"
	"drimann/internal/upmem"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("drim-search: ")
	var (
		dsName   = flag.String("dataset", "SIFT", "synthetic dataset shape: SIFT, DEEP, SPACEV, T2I")
		n        = flag.Int("n", 100000, "synthetic corpus size")
		queries  = flag.Int("queries", 1000, "synthetic query count")
		baseF    = flag.String("base", "", "optional .bvecs corpus file (overrides -dataset)")
		queryF   = flag.String("query", "", "optional .bvecs query file (with -base)")
		nlist    = flag.Int("nlist", 1024, "number of coarse clusters")
		m        = flag.Int("m", 16, "PQ subvectors")
		cb       = flag.Int("cb", 256, "PQ codebook entries")
		variant  = flag.String("variant", "pq", "quantizer variant: pq, opq, dpq")
		nprobe   = flag.Int("nprobe", 32, "clusters probed per query")
		k        = flag.Int("k", 10, "neighbors per query")
		dpus     = flag.Int("dpus", 128, "simulated DPUs")
		seed     = flag.Int64("seed", 1, "RNG seed")
		showGT   = flag.Bool("recall", true, "compute exact ground truth and recall (brute force)")
		clients  = flag.Int("clients", 8, "concurrent serving clients")
		maxWait  = flag.Duration("maxwait", 200*time.Microsecond, "micro-batcher max wait")
		maxBatch = flag.Int("maxbatch", 0, "micro-batcher max batch (0 = engine batch size)")
	)
	flag.Parse()

	var base, qs drimann.Vectors
	if *baseF != "" {
		var err error
		base, err = dataset.LoadBvecsFile(*baseF)
		if err != nil {
			log.Fatal(err)
		}
		if *queryF == "" {
			log.Fatal("-query is required with -base")
		}
		qs, err = dataset.LoadBvecsFile(*queryF)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var s *drimann.Synth
		switch *dsName {
		case "SIFT":
			s = drimann.SIFT(*n, *queries, *seed)
		case "DEEP":
			s = drimann.DEEP(*n, *queries, *seed)
		case "SPACEV":
			s = drimann.SPACEV(*n, *queries, *seed)
		case "T2I":
			s = drimann.T2I(*n, *queries, *seed)
		default:
			log.Fatalf("unknown dataset %q", *dsName)
		}
		base, qs = s.Base, s.Queries
	}
	fmt.Printf("corpus: %d x %d, queries: %d\n", base.N, base.D, qs.N)
	if qs.N == 0 {
		log.Fatal("no queries to serve")
	}

	ix, err := drimann.Build(base, drimann.IndexOptions{
		NList: *nlist, M: *m, CB: *cb, Variant: *variant, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: nlist=%d M=%d CB=%d variant=%s (avg cluster %.0f points)\n",
		ix.NList, ix.M, ix.CB, *variant, ix.AvgListLen())

	opts := drimann.DefaultEngineOptions()
	opts.NumDPUs = *dpus
	opts.NProbe = *nprobe
	opts.K = *k
	eng, err := drimann.NewEngine(ix, qs, opts)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := drimann.NewServer(eng, drimann.ServerOptions{
		MaxBatch: *maxBatch, MaxWait: *maxWait,
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
	nClients := *clients
	if nClients < 1 {
		nClients = 1
	}
	start := time.Now()
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for qi := c; qi < qs.N; qi += nClients {
				resp, err := srv.Search(context.Background(), qs.Vec(qi), *k)
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
		qs.N, nClients, wall.Seconds(), float64(qs.N)/wall.Seconds(), m2.QPS, *dpus)
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

	if *showGT {
		gt := drimann.GroundTruth(base, qs, *k, 0)
		fmt.Printf("recall@%d = %.4f\n", *k, drimann.Recall(gt, ids, *k))
	}
	if len(ids) > 0 {
		fmt.Printf("query 0 neighbors: %v\n", ids[0])
	}
	os.Exit(0)
}
