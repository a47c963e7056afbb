// Load-balance anatomy: runs the same skewed workload through each layout
// stage of DRIM-ANN (paper §3.2 / Figure 5) — naive, +allocation,
// +partition, +duplication, +scheduling — and prints how the DPU load
// distribution tightens at every step. The workload arrives the way real
// traffic does: concurrent clients submit single queries through the
// online serving layer (drimann.NewServer), whose micro-batcher assembles
// the engine launches; the table reports the aggregated simulated metrics.
//
// Layout balancing is an IVF-backend concern: clusters have wildly unequal
// heat, so where they live decides which DPU stalls. The graph backend
// (see "Backends" in the package docs) replicates the whole graph on every
// DPU and spreads queries round-robin, so it has no layout to balance —
// and nothing to show here.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"drimann"
	"drimann/internal/fault"
)

func main() {
	corpus := drimann.Generate(drimann.SynthConfig{
		Name: "skewed", N: 50000, D: 128, NumQueries: 384,
		NumClusters: 300, ZipfS: 1.7, QuerySkew: 0.92, Hotspots: 5,
		Noise: 9, Seed: 3,
	})
	ix, err := drimann.Build(corpus.Base, drimann.IndexOptions{
		NList: 256, M: 16, CB: 256, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	type stage struct {
		name   string
		mutate func(*drimann.EngineOptions)
	}
	stages := []stage{
		{"naive (round-robin clusters)", func(o *drimann.EngineOptions) {
			o.EnableSplit, o.EnableDup, o.EnableBalance = false, false, false
			o.Rebalance, o.Th3 = false, 0
		}},
		{"+ heat-aware allocation", func(o *drimann.EngineOptions) {
			o.EnableSplit, o.EnableDup = false, false
			o.Rebalance, o.Th3 = false, 0
		}},
		{"+ cluster partition", func(o *drimann.EngineOptions) {
			o.EnableDup = false
			o.Rebalance, o.Th3 = false, 0
		}},
		{"+ cluster duplication", func(o *drimann.EngineOptions) {
			o.Rebalance, o.Th3 = false, 0
		}},
		{"+ runtime scheduling (full)", nil},
	}

	var baseline float64
	fmt.Println("stage                              QPS      imbalance  speedup  price/cycles")
	for i, st := range stages {
		opts := drimann.DefaultEngineOptions()
		opts.NumDPUs = 96
		opts.NProbe = 16
		opts.K = 10
		if st.mutate != nil {
			st.mutate(&opts)
		}
		eng, err := drimann.NewEngine(ix, corpus.Queries, opts)
		if err != nil {
			log.Fatal(err)
		}
		// MaxWait far above the clients' inter-arrival jitter makes every
		// launch trigger on a full MaxBatch, so each launch schedules the
		// same 96 queries. Within a launch the arrival order still steers
		// the greedy scheduler across replica DPUs, so the printed metrics
		// can wobble slightly run to run — that order dependence is a real
		// property of online serving; the stage-to-stage progression is
		// what the table demonstrates. (Results are bit-identical always;
		// only the simulated load split varies.)
		srv, err := drimann.NewServer(eng, drimann.ServerOptions{
			MaxBatch: 96, MaxWait: 50 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Closed-loop clients bound the in-flight queries, which bounds the
		// micro-batch size; load balancing needs full launches to matter,
		// so drive enough concurrency to fill MaxBatch.
		const clients = 96
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for qi := c; qi < corpus.Queries.N; qi += clients {
					if _, err := srv.Search(context.Background(), corpus.Queries.Vec(qi), 0); err != nil {
						log.Fatalf("query %d: %v", qi, err)
					}
				}
			}(c)
		}
		wg.Wait()
		if err := srv.Close(); err != nil {
			log.Fatal(err)
		}
		m := srv.Metrics()
		if i == 0 {
			baseline = m.QPS
		}
		fmt.Printf("%-32s %8.0f   %8.2f   %6.2fx  %8.3f\n",
			st.name, m.QPS, m.AvgImbalance(), m.QPS/baseline, m.PriceRatio())
	}
	fmt.Println("\n(paper Figure 13: the full pipeline reaches 4.84x-6.19x at 2543-DPU scale)")

	// Beyond one PIM system: the same skewed traffic through a sharded
	// fleet — 3 engines of 32 DPUs each behind one scatter-gather front
	// door (drimann.NewClusterServer), with a micro-batcher per shard.
	// Results stay bit-identical to any single engine over the full index;
	// the aggregated metrics are the cross-shard parallel view, so QPS
	// reflects the slowest shard per launch wave.
	opts := drimann.DefaultEngineOptions()
	opts.NumDPUs = 32
	opts.NProbe = 16
	opts.K = 10
	cl, err := drimann.NewCluster(ix, corpus.Queries, drimann.ClusterOptions{
		Shards: 3, Assignment: drimann.AssignKMeans, Engine: opts,
	})
	if err != nil {
		log.Fatal(err)
	}
	csrv, err := drimann.NewClusterServer(cl, drimann.ServerOptions{
		MaxBatch: 96, MaxWait: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	const clients = 96
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for qi := c; qi < corpus.Queries.N; qi += clients {
				if _, err := csrv.Search(context.Background(), corpus.Queries.Vec(qi), 0); err != nil {
					log.Fatalf("sharded query %d: %v", qi, err)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := csrv.Close(); err != nil {
		log.Fatal(err)
	}
	cst := csrv.Stats()
	fmt.Printf("\nsharded fleet (3 shards x 32 DPUs): %d queries, fleet QPS %.0f, imbalance %.2f, price/cycles %.3f, mean shard batch %.1f\n",
		cst.Completed, cst.Agg.Sim.QPS, cst.Agg.Sim.AvgImbalance(), cst.Agg.Sim.PriceRatio(), cst.Agg.MeanBatch)
	// The front door located each query once and contacted only the shards
	// owning its probed clusters (AssignKMeans keeps those on few shards).
	fmt.Printf("routed scatter: mean fan-out %.2f / max %d of 3 shards\n",
		cst.Route.MeanFanout(), cst.Route.MaxFanout)

	// Replication is load balancing across time: 2 replicas per shard mask
	// a replica that sometimes stalls the way layout balancing masks a DPU
	// that is sometimes overloaded. One replica of each shard is wrapped in
	// a fault-injected straggler (every 3rd call stalls 30ms); the router
	// picks the less loaded replica per query and hedges to the sibling when
	// the pick stalls, so the skewed traffic completes — bit-identically —
	// without ever waiting out a stall.
	rcl, err := drimann.NewCluster(ix, corpus.Queries, drimann.ClusterOptions{
		Shards: 3, Replicas: 2, Assignment: drimann.AssignKMeans, Engine: opts,
	})
	if err != nil {
		log.Fatal(err)
	}
	rsrv, err := drimann.NewClusterServerRouted(rcl, drimann.ServerOptions{
		MaxBatch: 96, MaxWait: 50 * time.Millisecond,
	}, drimann.ClusterRouteOptions{
		WrapReplica: func(shard, replica int, r drimann.ClusterReplica) drimann.ClusterReplica {
			if replica == 1 {
				return fault.Wrap(r, fault.Plan{
					Delay: 30 * time.Millisecond, DelayEvery: 3, Seed: int64(shard),
				})
			}
			return r
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for qi := c; qi < corpus.Queries.N; qi += clients {
				if _, err := rsrv.Search(context.Background(), corpus.Queries.Vec(qi), 0); err != nil {
					log.Fatalf("replicated query %d: %v", qi, err)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := rsrv.Close(); err != nil {
		log.Fatal(err)
	}
	rst := rsrv.Stats()
	fmt.Printf("replicated fleet (3 shards x 2 replicas, straggler injected): %d queries, %d hedges (%d won), %d failovers\n",
		rst.Completed, rst.Hedged, rst.HedgeWins, rst.Failovers)
}
