package main

import (
	"time"

	"drimann/internal/core"
	"drimann/internal/ivf"
	"drimann/internal/pq"
)

// Operating points. These are part of the benchmark's definition: changing
// one is a benchmark change, not a performance change, and the baseline is
// measured again after it.
const (
	topK    = 10
	numDPUs = 64

	// The deployment is the same in every run: the corpus is generated from
	// corpusSeed, the index is built with it and the engine is deployed with
	// the first profileQ queries of a generated pool as its heat profile.
	// --seed draws the traffic: which queryPoolX-th of the rest of the pool
	// is measured. With corpus and profile drawn from --seed as well, runs
	// of one commit differ by up to 16 % in simulated throughput (the
	// generator has 16 latent clusters at this size, and the layout's
	// duplication decisions flip with the profile sample) and 5 % in points
	// scanned per query (results/README.md) — more than any bound worth
	// having.
	corpusSeed = 1
	queryPoolX = 8

	// offline workloads: one pass is one SearchBatch over passQueries of the
	// measured queries (two engine batches, so the engine's batch pipeline
	// runs), chunk after chunk; a pass is one segment. The warm-up runs at
	// least this many passes and this long.
	passQueries  = 500
	warmupPasses = 5
	warmupTime   = 1500 * time.Millisecond
	// Every singleEvery of the phase, latencySegment one-query SearchBatch
	// calls interrupt the passes: the latency a lone caller sees, which no
	// batch amortises.
	singleEvery = 500 * time.Millisecond

	// serve-online: phase A is an open loop at a fixed rate, phase B a
	// closed loop; phase A takes this share of --seconds.
	openLoopRate      = 2000.0 // requests per second
	openLoopShare     = 0.6
	openLoopWarmup    = 1 * time.Second
	closedLoopCallers = 16
	closedLoopWarmup  = 500 * time.Millisecond
	serveMaxWait      = 200 * time.Microsecond

	// fleet-mutate: closed-loop readers beside one writer.
	fleetShards   = 4
	fleetReplicas = 2
	fleetReaders  = 8
	fleetReadOnly = 2 * time.Second // readers alone before the writer starts (warm-up)
	insertBatch   = 16              // reserve vectors per Insert
	deleteBatch   = 4               // lowest ids of the batch inserted deleteLag iterations earlier
	deleteLag     = 8
	writerPause   = 5 * time.Millisecond
	recoverCopies = 3 // RecoverCluster runs on this many identical copies of the abandoned store

	// Segment lengths, in operations: about 50 ms of work each, short enough
	// that a tenth of them escape the neighbours (stats.go). A latency
	// segment holds enough samples to leave ten beyond its p95.
	searchSegment  = 128 // single-query searches (closed loops, open-loop CPU)
	latencySegment = 256 // latency samples
)

// sizes is the part of the fixture that the smoke run and the tests shrink.
type sizes struct {
	n, nlist    int // IVF corpus and coarse clusters
	graphN      int // graph corpus (the build is super-linear)
	reserve     int // fleet-mutate insert pool
	trainSample int
	profileQ    int // held-out heat profile queries
	measuredQ   int // measured queries, a multiple of passQueries
	recallQ     int // measured queries with ground truth
}

// fullSizes is the benchmark. It is the BENCH_core.json fixture (128-d
// SIFT-shaped, PQ M16/CB256, 64 DPUs, nprobe 32, batch 256) scaled so that
// the driver's 92 runs of set-up, warm-up, a 20 s timed phase and the
// verification fit its time cap; nlist scales with n so a query still scans
// ~1/16 of the corpus.
var fullSizes = sizes{
	n: 32000, nlist: 512, graphN: 20000, reserve: 40960, trainSample: 8000,
	profileQ: 2000, measuredQ: 2000, recallQ: 500,
}

// smokeSizes exercises every code path of every workload in a few seconds.
var smokeSizes = sizes{
	n: 8000, nlist: 128, graphN: 2000, reserve: 4096, trainSample: 2000,
	profileQ: 250, measuredQ: 250, recallQ: 100,
}

func (z sizes) buildConfig() ivf.BuildConfig {
	return ivf.BuildConfig{
		NList: z.nlist, PQ: pq.Config{M: 16, CB: 256},
		KMeansIters: 4, TrainSample: z.trainSample, Seed: corpusSeed,
	}
}

func engineOptions() core.Options {
	o := core.DefaultOptions()
	o.NumDPUs = numDPUs
	o.K = topK
	return o
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a metric. exact marks the ones that are deterministic at
// a fixed seed (simulated clock, counts): compare treats any difference in
// them between two runs at one seed as a behaviour change.
type metricSpec struct {
	name, unit string
	exact      bool
}

// endToEnd is the bounded part of what a user of the system sees; every
// workload reports every one of them on an untraced run. BENCHMARK.json
// carries the same list with directions and bounds (spec_test.go keeps the
// two in step). The host-clock speed figures a user sees as well — wall_qps,
// cpu_ms_per_query, lat_p50_ms — are measured by every run and printed beside
// these, but are layer metrics: the A/A calibration (results/) found gaps of
// 12-17 % between two sets of one commit, and the issue's rule demotes a
// wall-clock metric that needs a bound above 0.10.
var endToEnd = []metricSpec{
	{"setup_s", "s", false},
	{"sim_qps", "q/s", true},
	{"recall_at_10", "ratio", true},
	{"peak_rss_mb", "MB", false},
}

// perLayer is what a traced run reports. A workload prints 0 for the layers
// it does not exercise (the README says which those are).
var perLayer = []metricSpec{
	{"dataset.generate_s", "s", false},
	{"dataset.groundtruth_s", "s", false},

	{"ivf.build_s", "s", false},
	{"ivf.locate_us_per_query", "us", false},
	{"ivf.qe_build_us_per_query", "us", false},
	{"ivf.insert_us_per_point", "us", false},
	{"ivf.save_s", "s", false},
	{"ivf.load_s", "s", false},
	{"ivf.snapshot_mb", "MB", true},
	{"ivf.overlay_mb", "MB", false},

	{"vecmath.adc_ns_per_point", "ns", false},
	{"vecmath.l2u8_abandon_ns_per_vec", "ns", false},
	{"vecmath.l2u8_ns_per_vec", "ns", false},
	{"topk.push_ns_per_candidate", "ns", false},
	{"topk.sorted_into_ns_per_k", "ns", false},
	{"sched.greedy_us_per_batch", "us", false},
	{"layout.optimize_s", "s", false},

	{"upmem.sim_host_s", "s", true},
	{"upmem.sim_pim_s", "s", true},
	{"upmem.sim_xfer_s", "s", true},
	{"upmem.phase_share_cl", "ratio", true},
	{"upmem.phase_share_rc", "ratio", true},
	{"upmem.phase_share_lc", "ratio", true},
	{"upmem.phase_share_dc", "ratio", true},
	{"upmem.phase_share_ts", "ratio", true},
	{"upmem.phase_share_other", "ratio", true},
	{"upmem.compute_cycles_per_query", "cycles", true},
	{"upmem.dma_bytes_per_query", "B", true},
	{"upmem.dma_count_per_query", "count", true},
	{"upmem.imbalance", "ratio", true},
	{"upmem.sqt16_hit_rate", "ratio", true},

	{"core.search_us_per_query", "us", false},
	{"core.probed_us_per_query", "us", false},
	{"core.cl_share", "ratio", false},
	{"core.points_scanned_per_query", "count", true},
	{"core.lut_reuse_ratio", "ratio", true},
	{"core.launches", "count", true},
	{"core.postponed", "count", true},
	{"core.deploy_s", "s", false},
	{"core.replica_s", "s", false},
	{"core.mem_shared_mb", "MB", true},
	{"core.mem_per_replica_mb", "MB", true},

	{"graph.build_s", "s", false},
	{"graph.search_us_per_query", "us", false},
	{"graph.evals_per_query", "count", true},
	{"graph.mem_mb", "MB", true},

	{"serve.mean_batch", "count", false},
	{"serve.batches", "count", false},
	{"serve.avg_latency_ms", "ms", false},
	{"serve.open_cpu_ms_per_query", "ms", false},
	{"serve.client_overhead_ms", "ms", false},
	{"serve.lat_p99_ms", "ms", false},
	{"serve.gen_late_p99_ms", "ms", false},
	{"serve.gen_late_max_ms", "ms", false},
	{"serve.saturation_vs_direct", "ratio", false},
	{"serve.canceled", "count", false},
	{"serve.failed", "count", false},
	{"serve.rejected", "count", false},

	{"cluster.new_s", "s", false},
	{"cluster.mean_fanout", "count", false},
	{"cluster.max_fanout", "count", false},
	{"cluster.front_cl_share", "ratio", false},
	{"cluster.shard_load_max_over_mean", "ratio", false},
	{"cluster.hedged_ratio", "ratio", false},
	{"cluster.hedge_win_ratio", "ratio", false},
	{"cluster.failovers", "count", false},
	{"cluster.breaker_ejections", "count", false},
	{"cluster.offline_us_per_query", "us", false},
	{"cluster.readonly_qps", "q/s", false},
	{"cluster.readonly_p95_ms", "ms", false},
	{"cluster.mut_ack_p50_ms", "ms", false},
	{"cluster.mut_ack_p95_ms", "ms", false},
	{"cluster.compact_s", "s", false},
	{"cluster.checkpoint_s", "s", false},
	// Seen by a user of fleet-mutate only, so they cannot be end-to-end
	// metrics (every workload reports every one of those); they keep the
	// names the issue gave them.
	{"mut_per_s", "mut/s", false},
	{"recover_s", "s", false},

	{"durable.create_s", "s", false},
	{"durable.encode_us_per_record", "us", false},
	{"durable.append_us_per_record", "us", false},
	{"durable.sync_ms_per_batch", "ms", false},
	{"durable.wal_bytes_per_mutation", "B", false},
	{"durable.decode_mb_per_s", "MB/s", false},
	{"durable.wal_mb_replayed", "MB", false},

	// The host clock as a user sees it, on every workload: quiet statistics
	// over the segments of the timed phase (stats.go). Demoted from
	// end-to-end by the calibration; the names are the issue's.
	{"wall_qps", "q/s", false},
	{"cpu_ms_per_query", "ms", false},
	{"lat_p50_ms", "ms", false},
	{"lat_p95_ms", "ms", false},
	// The same segments read the plain way: what the neighbours did to this
	// run shows here.
	{"host.wall_qps_median", "q/s", false},
	{"host.cpu_ms_per_query_mean", "ms", false},
	{"host.lat_p50_ms_all", "ms", false},

	{"trace.overhead_ratio", "ratio", false},
}

var workloads = map[string]func(*run) error{
	"offline-ivf":   runOfflineIVF,
	"serve-online":  runServeOnline,
	"fleet-mutate":  runFleetMutate,
	"offline-graph": runOfflineGraph,
}
