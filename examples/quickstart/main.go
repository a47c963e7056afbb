// Quickstart: build a DRIM-ANN index over a synthetic SIFT-shaped corpus,
// deploy it on the simulated UPMEM DRAM-PIM system, run a query batch,
// compare it head-to-head against the graph backend on the same corpus,
// serve single queries online through the micro-batching server, scale out
// across a sharded scatter-gather fleet, and mask an injected straggler
// with replica hedging.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"drimann"
	"drimann/internal/fault"
)

func main() {
	// 1. A corpus: 50k synthetic 128-dim uint8 vectors shaped like SIFT,
	//    plus 500 queries drawn from the same distribution.
	corpus := drimann.SIFT(50000, 500, 1)
	fmt.Printf("corpus: %d x %d uint8 vectors\n", corpus.Base.N, corpus.Base.D)

	// 2. An IVF-PQ index: 512 coarse clusters, 16 subvectors, 256-entry
	//    codebooks — the configuration family the paper evaluates.
	ix, err := drimann.Build(corpus.Base, drimann.IndexOptions{
		NList: 512, M: 32, CB: 256, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: nlist=%d, ~%.0f points per cluster\n", ix.NList, ix.AvgListLen())

	// 3. The engine: deploys the index across 128 simulated DPUs with all
	//    of the paper's optimizations on (SQT, WRAM buffering, lock
	//    pruning, layout balancing, greedy scheduling). The query workload
	//    doubles as the heat profile for the layout optimizer.
	opts := drimann.DefaultEngineOptions()
	opts.NumDPUs = 128
	opts.NProbe = 32
	opts.K = 10
	eng, err := drimann.NewEngine(ix, corpus.Queries, opts)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Search. Results are bit-identical to a single-threaded integer
	//    IVF-PQ scan; the metrics are simulated UPMEM timings.
	res, err := eng.SearchBatch(corpus.Queries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("searched %d queries: %.0f QPS (simulated), %d launches, imbalance %.2f; scan pruned %.1f%% of points, gathered %.1f codes per point\n",
		res.Metrics.Queries, res.Metrics.QPS, res.Metrics.Launches, res.Metrics.AvgImbalance(),
		res.Metrics.PruneRate()*100, res.Metrics.CodesPerPoint())

	// 5. Verify quality against exact brute force.
	gt := drimann.GroundTruth(corpus.Base, corpus.Queries, 10, 0)
	fmt.Printf("recall@10 = %.3f\n", drimann.Recall(gt, res.IDs, 10))
	fmt.Printf("query 0 -> %v\n", res.IDs[0])

	// 6. The same corpus on the other backend: a Vamana-style beam-search
	//    graph engine priced on the same simulated PIM cost model, behind
	//    the same engine contract (see "Backends" in the package docs).
	//    Head-to-head against the IVF numbers from steps 4-5 — the graph
	//    trades build time and mutability for recall per unit of simulated
	//    work. `drim-bench -headtohead` sweeps both accuracy knobs.
	gopts := drimann.DefaultGraphOptions()
	gopts.NumDPUs = 128
	gopts.K = 10
	geng, err := drimann.NewGraphEngine(corpus.Base, gopts)
	if err != nil {
		log.Fatal(err)
	}
	gres, err := geng.SearchBatch(corpus.Queries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("head-to-head over %d queries:\n", corpus.Queries.N)
	fmt.Printf("  ivf   nprobe=%-3d recall@10=%.3f  %8.0f QPS (simulated)\n",
		opts.NProbe, drimann.Recall(gt, res.IDs, 10), res.Metrics.QPS)
	fmt.Printf("  graph beam=%-5d recall@10=%.3f  %8.0f QPS (simulated)\n",
		gopts.SearchBeam, drimann.Recall(gt, gres.IDs, 10), gres.Metrics.QPS)

	// 7. Online serving: wrap the engine in the deadline-aware
	//    micro-batching server and submit single queries from concurrent
	//    goroutines, the way live traffic arrives. Per-query results are
	//    bit-identical to the offline batch above.
	// With 4 closed-loop clients at most 4 queries are ever in flight, so
	// here the 500us MaxWait is what triggers each launch; MaxBatch only
	// kicks in under higher concurrency (see examples/loadbalance).
	srv, err := drimann.NewServer(eng, drimann.ServerOptions{
		MaxBatch: 64,
		MaxWait:  500 * time.Microsecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for qi := c; qi < 64; qi += 4 {
				resp, err := srv.Search(context.Background(), corpus.Queries.Vec(qi), 10)
				if err != nil {
					log.Fatalf("query %d: %v", qi, err)
				}
				if qi == 0 {
					fmt.Printf("served query 0 in %s (batch of %d) -> %v\n",
						resp.Latency.Round(time.Microsecond), resp.BatchSize, resp.IDs)
				}
			}
		}(c)
	}
	wg.Wait()
	st := srv.Stats()
	fmt.Printf("served %d queries in %d launches (mean batch %.1f)\n",
		st.Completed, st.Batches, st.MeanBatch)
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}

	// 8. Scale out: partition the same index across 4 shard engines (the
	//    rack-scale deployment — each shard simulates its own PIM system)
	//    and search through the routed front door, which runs coarse locate
	//    once and contacts only the shards that own probed clusters.
	//    AssignKMeans places whole clusters, spatial neighbors together, so
	//    the mean fan-out stays below the shard count (AssignHash: same
	//    answers, fan-out near 4). The fleet runs one staged scan, not four:
	//    the front door cuts every query's first wave, fewer shards still
	//    run it unbounded, and all of them prune against the bound merged
	//    over the fleet — so sharding costs no scan work beyond step 4's.
	//    The merged top-k is bit-identical to the single-engine batch; the
	//    metrics are the cross-shard view (barrier by barrier as slow as
	//    the slowest shard, counters sum).
	cl, err := drimann.NewCluster(ix, corpus.Queries, drimann.ClusterOptions{
		Shards: 4, Assignment: drimann.AssignKMeans, Engine: opts,
	})
	if err != nil {
		log.Fatal(err)
	}
	cres, err := cl.SearchBatch(corpus.Queries)
	if err != nil {
		log.Fatal(err)
	}
	identical := true
	for qi := range res.IDs {
		if !slices.Equal(cres.IDs[qi], res.IDs[qi]) {
			identical = false
		}
	}
	fmt.Printf("sharded fleet (4 shards): %.0f QPS (simulated), results identical to single engine: %v\n",
		cres.Metrics.QPS, identical)
	cstats := cl.Stats()
	fmt.Printf("routed scatter: mean fan-out %.2f (first wave %.2f) / max %d of 4 shards\n",
		cstats.Route.MeanFanout(), float64(cstats.Route.LeadFanoutSum)/float64(cstats.Route.RoutedQueries), cstats.Route.MaxFanout)
	fmt.Printf("fleet staged scan: pruned %.1f%% of scanned points, %.2f codes per point (single engine: %.1f%%, %.2f)\n",
		cres.Metrics.PruneRate()*100, cres.Metrics.CodesPerPoint(), res.Metrics.PruneRate()*100, res.Metrics.CodesPerPoint())
	// A batch's second wave shares its launch with the next batch's first:
	// batches + 1 launches an engine, each filled for the scheduler to level.
	fmt.Printf("rolling waves: %d launches over %d batches on 4 shards, imbalance %.2f (single engine: %d over %d, %.2f)\n",
		cres.Metrics.Launches, cres.Metrics.Batches, cres.Metrics.AvgImbalance(), res.Metrics.Launches, res.Metrics.Batches, res.Metrics.AvgImbalance())

	// 9. Replication masks the tail: the same index across 2 shards with 2
	//    replicas each. Replicas are deterministic engine clones, so any
	//    replica's answer is its shard's answer — the front door routes each
	//    query to the less loaded replica, and hedges to the other when the
	//    first stalls. To show it working, one replica of every shard is
	//    wrapped in a fault-injected straggler that stalls every 3rd call by
	//    40ms; results stay bit-identical to step 4 regardless of which
	//    replica answers.
	rcl, err := drimann.NewCluster(ix, corpus.Queries, drimann.ClusterOptions{
		Shards: 2, Replicas: 2, Assignment: drimann.AssignHash, Engine: opts,
	})
	if err != nil {
		log.Fatal(err)
	}
	route := drimann.ClusterRouteOptions{
		WrapReplica: func(shard, replica int, r drimann.ClusterReplica) drimann.ClusterReplica {
			if replica == 1 {
				return fault.Wrap(r, fault.Plan{
					Delay: 40 * time.Millisecond, DelayEvery: 3, Seed: int64(shard),
				})
			}
			return r
		},
	}
	rsrv, err := drimann.NewClusterServerRouted(rcl, drimann.ServerOptions{
		MaxBatch: 64, MaxWait: 500 * time.Microsecond,
	}, route)
	if err != nil {
		log.Fatal(err)
	}
	var diverged atomic.Bool
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for qi := c; qi < 64; qi += 4 {
				resp, err := rsrv.Search(context.Background(), corpus.Queries.Vec(qi), 10)
				if err != nil {
					log.Fatalf("replicated query %d: %v", qi, err)
				}
				if !slices.Equal(resp.IDs, res.IDs[qi][:10]) {
					diverged.Store(true)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := rsrv.Close(); err != nil {
		log.Fatal(err)
	}
	rst := rsrv.Stats()
	fmt.Printf("replicated fleet (2 shards x 2 replicas, straggler injected): %d queries, %d hedges (%d won), results identical: %v\n",
		rst.Completed, rst.Hedged, rst.HedgeWins, !diverged.Load())

	// 10. Live mutability: the IVF index stays mutable after deployment
	//     (the graph backend is search-only — a serving-path mutation would
	//     return serve.ErrUnsupported). Insert a new point (assigned to its
	//     nearest cluster and PQ-encoded with the frozen codebooks, findable
	//     by the very next search), delete it again, and Compact — after
	//     which results are bit-identical to the never-mutated engine of
	//     step 4.
	newID := int32(corpus.Base.N)
	newVec := drimann.Vectors{N: 1, D: corpus.Base.D, Data: corpus.Queries.Vec(7)}
	if err := eng.Insert(newVec, []int32{newID}); err != nil {
		log.Fatal(err)
	}
	mres, err := eng.SearchBatch(newVec) // query with the inserted vector itself
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted point %d findable: %v\n", newID, slices.Contains(mres.IDs[0], newID))
	if err := eng.Delete([]int32{newID}); err != nil {
		log.Fatal(err)
	}
	if err := eng.Compact(); err != nil {
		log.Fatal(err)
	}
	pres, err := eng.SearchBatch(corpus.Queries)
	if err != nil {
		log.Fatal(err)
	}
	identical = true
	for qi := range res.IDs {
		if !slices.Equal(pres.IDs[qi], res.IDs[qi]) {
			identical = false
		}
	}
	fmt.Printf("after insert -> delete -> compact, results identical to step 4: %v\n", identical)

	// 11. Durability: attach a write-ahead-logged store to the engine,
	//     mutate through the serving layer (applied, then logged, then
	//     synced — that's what "acknowledged" means), kill the process, and
	//     recover from disk alone. The recovered engine serves
	//     bit-identical results to the engine at the moment of the kill.
	dir, err := os.MkdirTemp("", "drimann-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := drimann.CreateStore(eng, drimann.DurableOptions{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	dsrv, err := drimann.NewServer(eng, drimann.ServerOptions{MaxBatch: 64, MaxWait: 500 * time.Microsecond})
	if err != nil {
		log.Fatal(err)
	}
	if err := dsrv.Insert(newVec, []int32{newID}); err != nil {
		log.Fatal(err)
	}
	if err := dsrv.Close(); err != nil {
		log.Fatal(err)
	}
	if err := store.Close(); err != nil { // the "kill": only the directory survives
		log.Fatal(err)
	}
	want, err := eng.SearchBatch(corpus.Queries)
	if err != nil {
		log.Fatal(err)
	}
	reng, _, err := drimann.Recover(drimann.DurableOptions{Dir: dir}, corpus.Queries, opts)
	if err != nil {
		log.Fatal(err)
	}
	rres, err := reng.SearchBatch(corpus.Queries)
	if err != nil {
		log.Fatal(err)
	}
	identical = true
	for qi := range want.IDs {
		if !slices.Equal(rres.IDs[qi], want.IDs[qi]) {
			identical = false
		}
	}
	fmt.Printf("after mutate -> kill -> recover, results identical to the killed engine: %v\n", identical)
}
