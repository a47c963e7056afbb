// Command drim-bench regenerates the tables and figures of the DRIM-ANN
// paper's evaluation (§5) on the simulated UPMEM system, and benchmarks the
// simulator itself.
//
// Usage:
//
//	drim-bench                  # run every experiment at the default scale
//	drim-bench -exp F7,F9       # run selected experiments
//	drim-bench -small           # test-suite scale (seconds)
//	drim-bench -n 100000 -dpus 128 -queries 1000
//
// Self-benchmark mode (-bench) measures the wall-clock throughput of the
// engine's pipelined execution path against the serial reference path
// (Workers=1, pipelining off) on a synthetic SIFT-shaped corpus, plus the
// batched LocateBatch CL stage on its own. It sweeps GOMAXPROCS (1 and
// NumCPU by default; -benchprocs overrides, e.g. -benchprocs 1,4,max) and
// appends one entry per value to a JSON trajectory file so successive PRs
// can track both the simulator's own speed and its multi-core scaling:
//
//	drim-bench -bench                          # 100k x 128d, 1k queries
//	drim-bench -bench -n 200000 -queries 2000  # custom scale
//	drim-bench -bench -benchout BENCH_core.json -benchruns 3 -benchprocs 1,max
//
// Each entry records the fixture shape, serial and pipelined seconds, the
// explicit speedup_vs_serial (pipelined vs the same build's serial mode) and
// speedup_vs_prev_entry (vs the most recent earlier entry with the same
// fixture shape and GOMAXPROCS — the cross-PR improvement), wall/simulated
// QPS and the CL stage cost; see the benchEntry schema in selfbench.go.
// Compare runs with e.g.
// `jq '.[] | {timestamp, go_max_procs, speedup_vs_prev_entry, wall_qps}' BENCH_core.json`.
//
// -backend selects the engine under test for -bench: "ivf" (default, the
// DRIM-ANN IVF-PQ engine) or "graph" (the beam-search graph-traversal
// backend on the same simulated hardware). Graph entries are tagged
// backend:"graph" in the trajectory and only compare against graph
// entries.
//
// Head-to-head mode (-headtohead) runs BOTH backends over one corpus and
// records each backend's recall-vs-simulated-QPS curve, with every query
// driven through the online serving path: the IVF engine sweeps nprobe,
// the graph engine sweeps its search beam width over a single build. One
// backend-tagged mode:"headtohead" entry per curve point lands in the
// trajectory file (recall@10, simulated and wall QPS, build seconds):
//
//	drim-bench -headtohead                           # 100k x 128d, 1k queries
//	drim-bench -headtohead -n 20000 -queries 200     # smoke scale
//
// Serving-layer mode (-serve) drives the online micro-batching server
// (drimann.NewServer) with a closed-loop load generator instead of one
// offline SearchBatch: -clients concurrent callers issue single queries
// (optionally paced to an aggregate -qps target) for -servedur, through a
// batcher configured by -maxwait/-maxbatch. Client-observed p50/p95/p99
// Search latency and achieved QPS are appended to the same trajectory file
// as mode:"serve" entries:
//
//	drim-bench -serve                                # unthrottled, 8 clients
//	drim-bench -serve -clients 32 -maxwait 500us
//	drim-bench -serve -qps 2000 -servedur 10s
//
// Cluster mode (-shards N) measures the scatter-gather sharding layer:
// the corpus is partitioned across N shard engines (each simulating -dpus
// DPUs, so the fleet models N x dpus devices), one query batch is located
// once and routed to the shards owning its probed clusters in parallel, and
// the per-shard top-k lists merge into the global answer — verified
// identical to the unsharded single engine on the same index, then recorded
// as a mode:"cluster" entry (shard count, assignment policy, fleet wall/sim
// QPS, speedup vs the single engine, fan-out, front-door CL share):
//
//	drim-bench -shards 4                             # hash partitioning
//	drim-bench -shards 8 -assign kmeans -dpus 64
//
// Replica mode (-replicas R) measures the tail-masking machinery of the
// replicated serving layer: each shard (default 2, -shards overrides) is
// served by R engine clones behind load-aware routing with hedged requests,
// and -straggler wraps the last replica of every shard in a fault-injected
// periodic straggler (every -stragglerevery-th call stalls by
// -stragglerdelay). The same closed-loop load (-clients, -servedur) runs
// twice — hedging off, then on — every response is verified bit-identical
// to the unsharded single engine, and both latency distributions
// (p50/p99/p999) land in one mode:"replica" trajectory entry, so the
// hedged-vs-unhedged tail ratio is recorded alongside the fleet's history:
//
//	drim-bench -replicas 2 -straggler                # 2 shards x 2 replicas
//	drim-bench -replicas 3 -shards 4 -straggler -stragglerdelay 50ms -stragglerevery 3
//
// Mutate mode (-mutate) prices the live-mutability overlay: the packed
// index is measured as the compacted baseline, then 1% and 10% of the base
// count are appended live (routed to their nearest clusters, PQ-encoded
// with the frozen codebooks, served from append segments) and the offline
// batch is re-measured at each fraction. One mode:"mutate" entry per
// fraction records overlay vs compacted QPS; at the end the overlay is
// compacted and the results verified bit-identical to the live answers:
//
//	drim-bench -mutate
//	drim-bench -mutate -n 200000 -benchruns 5
//
// Recovery mode (-recovery) prices the durability layer against the real
// filesystem: ~1% of the base count is mutated through the
// apply-then-WAL-log path twice over identical engines — fsync at every
// batch boundary vs fsync off, recording what the sync costs in
// acknowledged mutations/s — then the synced engine is killed, Recover is
// timed, and the recovered results are verified bit-identical to the
// killed engine's. One mode:"recovery" entry records the sync/no-sync
// mutation throughputs, WAL bytes replayed and the recovery wall clock:
//
//	drim-bench -recovery
//	drim-bench -recovery -n 200000 -benchruns 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"drimann/internal/bench"
)

func main() {
	var (
		expFlag    = flag.String("exp", "", "comma-separated experiment ids (default: all); see -list")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		small      = flag.Bool("small", false, "use the small (test-suite) scale")
		n          = flag.Int("n", 0, "override base vectors per dataset")
		queries    = flag.Int("queries", 0, "override query count")
		dpus       = flag.Int("dpus", 0, "override simulated DPU count")
		seed       = flag.Int64("seed", 0, "override RNG seed")
		selfBench  = flag.Bool("bench", false, "benchmark the simulator itself (wall clock) instead of running experiments")
		backend    = flag.String("backend", "ivf", "-bench/-headtohead: engine backend (ivf or graph)")
		headToHead = flag.Bool("headtohead", false, "head-to-head backend comparison: recall@10 vs simulated QPS for IVF-PQ and graph through the serving path")
		benchOut   = flag.String("benchout", "BENCH_core.json", "trajectory file appended to by -bench/-serve")
		benchRuns  = flag.Int("benchruns", 3, "repetitions per -bench measurement (best is recorded)")
		benchProcs = flag.String("benchprocs", "1,max", "comma-separated GOMAXPROCS sweep for -bench (max = NumCPU)")
		benchNote  = flag.String("benchnote", "", "free-form note stored in the entries recorded by -bench/-serve")
		serveBench = flag.Bool("serve", false, "closed-loop load-generator benchmark over the online serving layer")
		mutate     = flag.Bool("mutate", false, "live-mutability benchmark: QPS with 1%/10% live appends vs the compacted baseline")
		recovery   = flag.Bool("recovery", false, "durability benchmark: WAL fsync overhead, recovery wall clock, bit-identical restart")
		shards     = flag.Int("shards", 0, "cluster mode: scatter-gather benchmark over this many shard engines (-dpus is per shard)")
		assignFlag = flag.String("assign", "hash", "-shards: partitioning policy (hash or kmeans)")
		replicas   = flag.Int("replicas", 0, "replica mode: hedged-vs-unhedged tail benchmark over this many replicas per shard (default 2 shards; -shards overrides)")
		straggler  = flag.Bool("straggler", false, "-replicas: fault-inject a periodic straggler into the last replica of each shard")
		stragDelay = flag.Duration("stragglerdelay", 100*time.Millisecond, "-replicas -straggler: injected stall per straggling call")
		stragEvery = flag.Int("stragglerevery", 3, "-replicas -straggler: every Nth call to the straggler stalls")
		clients    = flag.Int("clients", 8, "-serve: concurrent closed-loop clients")
		qps        = flag.Float64("qps", 0, "-serve: aggregate pacing target in queries/s (0 = unthrottled)")
		maxWait    = flag.Duration("maxwait", 200*time.Microsecond, "-serve: micro-batcher max wait")
		maxBatch   = flag.Int("maxbatch", 0, "-serve: micro-batcher max batch (0 = engine batch size)")
		serveDur   = flag.Duration("servedur", 5*time.Second, "-serve: measurement window")
	)
	flag.Parse()

	// Enum-valued flags are validated up front: a typo'd policy or backend
	// must abort with the valid options, never fall back silently.
	for _, c := range []struct {
		name, value string
		valid       []string
	}{
		{"-assign", *assignFlag, []string{"hash", "kmeans"}},
		{"-backend", *backend, []string{"ivf", "graph"}},
	} {
		if err := validateChoice(c.name, c.value, c.valid); err != nil {
			fmt.Fprintf(os.Stderr, "drim-bench: %v\n", err)
			os.Exit(2)
		}
	}

	if *headToHead {
		if *selfBench || *serveBench || *small || *expFlag != "" {
			fmt.Fprintln(os.Stderr, "drim-bench: -headtohead excludes -bench/-serve/-small/-exp (use -n/-queries/-dpus)")
			os.Exit(2)
		}
		if err := runHeadToHead(*n, *queries, *dpus, *seed, *benchRuns, *benchNote, *benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "drim-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *replicas > 0 {
		if *selfBench || *serveBench || *small || *expFlag != "" {
			fmt.Fprintln(os.Stderr, "drim-bench: -replicas excludes -bench/-serve/-small/-exp (use -n/-queries/-dpus)")
			os.Exit(2)
		}
		if err := runReplicaBench(*n, *queries, *dpus, *seed, *shards, *replicas,
			*assignFlag, *clients, *straggler, *stragDelay, *stragEvery,
			*maxWait, *maxBatch, *serveDur, *benchNote, *benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "drim-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *shards > 0 {
		if *selfBench || *serveBench || *small || *expFlag != "" {
			fmt.Fprintln(os.Stderr, "drim-bench: -shards excludes -bench/-serve/-small/-exp (use -n/-queries/-dpus)")
			os.Exit(2)
		}
		if err := runClusterBench(*n, *queries, *dpus, *seed, *shards, *assignFlag,
			*benchRuns, *benchNote, *benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "drim-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *mutate {
		if *selfBench || *serveBench || *small || *expFlag != "" {
			fmt.Fprintln(os.Stderr, "drim-bench: -mutate excludes -bench/-serve/-small/-exp (use -n/-queries/-dpus)")
			os.Exit(2)
		}
		if err := runMutateBench(*n, *queries, *dpus, *seed, *benchRuns, *benchNote, *benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "drim-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *recovery {
		if *selfBench || *serveBench || *mutate || *small || *expFlag != "" {
			fmt.Fprintln(os.Stderr, "drim-bench: -recovery excludes -bench/-serve/-mutate/-small/-exp (use -n/-queries/-dpus)")
			os.Exit(2)
		}
		if err := runRecoveryBench(*n, *queries, *dpus, *seed, *benchRuns, *benchNote, *benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "drim-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *serveBench {
		if *selfBench || *small || *expFlag != "" {
			fmt.Fprintln(os.Stderr, "drim-bench: -serve excludes -bench/-small/-exp (use -n/-queries/-dpus)")
			os.Exit(2)
		}
		if err := runServeBench(*n, *queries, *dpus, *seed, *clients, *qps,
			*maxWait, *maxBatch, *serveDur, *benchNote, *benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "drim-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *selfBench {
		if *small || *expFlag != "" {
			fmt.Fprintln(os.Stderr, "drim-bench: -small and -exp do not apply to -bench (use -n/-queries/-dpus)")
			os.Exit(2)
		}
		if err := runSelfBench(*n, *queries, *dpus, *seed, *benchRuns, *benchProcs, *backend, *benchNote, *benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "drim-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	scale := bench.DefaultScale()
	if *small {
		scale = bench.SmallScale()
	}
	if *n > 0 {
		scale.N = *n
	}
	if *queries > 0 {
		scale.Queries = *queries
	}
	if *dpus > 0 {
		scale.NumDPUs = *dpus
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	var selected []bench.Experiment
	if *expFlag == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "drim-bench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("DRIM-ANN experiment harness: N=%d queries=%d DPUs=%d seed=%d\n\n",
		scale.N, scale.Queries, scale.NumDPUs, scale.Seed)
	runner := bench.NewRunner(scale)
	for _, e := range selected {
		start := time.Now()
		table, err := e.Run(runner)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drim-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		table.Fprint(os.Stdout)
		fmt.Printf("  (%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}
