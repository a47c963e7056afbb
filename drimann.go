// Package drimann is a Go implementation of DRIM-ANN, the approximate
// nearest neighbor search engine for commodity DRAM processing-in-memory
// systems from "DRIM-ANN: An Approximate Nearest Neighbor Search Engine
// based on Commercial DRAM-PIMs" (SC '25).
//
// The library contains the full system described by the paper:
//
//   - an IVF-PQ index (with OPQ and DPQ variants) over uint8 vector corpora;
//   - a functional UPMEM DRAM-PIM simulator with the paper's cost model
//     (no hardware multiplier, WRAM/MRAM hierarchy, host-transfer limits);
//   - the DRIM-ANN engine: host-side cluster locating, DPU-side residual /
//     LUT / distance / top-k kernels with the multiplier-less SQT
//     conversion, WRAM buffering and lock pruning;
//   - the load-balance optimizer (cluster partition, duplication,
//     allocation) and the greedy runtime scheduler;
//   - the analytic performance model (Equations 1-13) and the Bayesian
//     design space exploration;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// Execution model: SearchBatch runs as a three-stage pipeline mirroring the
// paper's host/PIM overlap. Stage 1 (cluster locating) processes a whole
// query batch across worker goroutines via the batched LocateBatch API;
// stage 2 schedules the resulting tasks onto DPUs; stage 3 simulates the
// DPU kernels in parallel and merges on the host. Stage 1 of batch i+1
// overlaps stages 2-3 of batch i, and all per-launch state (heaps, arenas,
// task buffers) is pooled, so steady-state searching allocates nothing.
//
// The DPU-phase simulation does O(points) arithmetic with near-zero
// constant factor: distances come from batch ADC kernels that evaluate an
// exact per-subspace algebraic decomposition instead of materializing
// per-group LUTs, simulated costs accumulate in register-resident tallies
// flushed to the DPU counters once per launch block (a per-op reference
// accountant in internal/core's tests checks them), and the kernel
// it charges is a bound-forwarded staged scan (see internal/core): every
// scheduling batch is cut into two waves, the first over each query's
// nearest probes, whose k-th best distance the second carries as a bound —
// and shares its launch with the next batch's first, one launch a batch;
// a scan sums a point's subspaces a stage at a time, drops the point once
// its partial distance exceeds the bound — exact, because LUT entries are
// non-negative — and builds, per stage, only the LUT entries its surviving
// points' codes reference (mark-then-build) rather than all M x CB of them.
// The greedy scheduler that fills those launches prices each task for what it
// is: a scan without a bound at its slice's modelled cycles, one with a bound
// at the share of them its list's CL distance over the query's bound lets
// survive — a table NewEngine measures on the profile it is given (without
// one: a flat share). Metrics reports the prune rate, the codes gathered and
// the scheduler's summed price (PriceRatio: price over simulated cycles)
// beside the rest.
// Results and metrics (every counter, cycle and hit rate) do not depend on
// the worker count or on the pipeline: SearchBatchProbed over the engine's
// own probes runs every batch serially and returns the same bits; only
// wall-clock speed differs. The repo benchmark's offline-ivf workload
// (BENCHMARK.json, benchmark/) measures the simulator's own wall-clock
// throughput beside the simulated one, and BenchmarkSearchBatch /
// BenchmarkSearchBatchOneWorker in core_bench_test.go time the engine on all
// workers and on one.
//
// # Backends
//
// The serving stack is not married to IVF-PQ. The micro-batching Server and
// its durability program against the backend contract in internal/engine
// (the sharded Cluster does not: sharding by inverted list is an IVF-layer
// concern, so a fleet is made of IVF-PQ engines): a SearchEngine answers batched top-k queries (SearchBatch) and reports its
// shape (K, Dim, MaxBatch); everything else is an optional capability
// discovered by type assertion (probed search, mutation, snapshots,
// replication, memory reporting). Two backends implement the contract:
//
//   - the IVF-PQ engine (NewEngine), DRIM-ANN's own design: streaming
//     cluster scans with PQ-compressed codes, host-side cluster locating,
//     and every optional capability — mutable, snapshottable — and the
//     only backend Cluster shards;
//   - the graph engine (NewGraphEngine), a Vamana/HNSW-style beam-search
//     traversal over a pruned proximity graph, the competing ANN design
//     the paper positions against. It is search-only (no mutation, no
//     probed search); the Server detects this and returns ErrUnsupported
//     from the operations it cannot serve.
//
// How to pick: IVF-PQ compresses the corpus ~Dim/M-fold and streams
// contiguous lists, so it fits large corpora in per-DPU MRAM and its
// simulated cost is dominated by sequential scans the paper's buffering
// optimizations amortize; recall is capped by PQ quantization error.
// The graph backend stores full vectors plus adjacency (no compression —
// corpus size is bounded by the 64 MB per-DPU MRAM) and reaches higher
// recall at the same k, but every traversal hop is a dependent, unbuffered
// MRAM access paying full DMA setup latency, the access pattern PIM
// hardware is worst at. Both backends run on the same simulated UPMEM
// system and cost model, so their SimSeconds/QPS are directly comparable —
// that is the point. Cost-model caveats for the comparison: the graph
// simulation replicates the whole graph on every DPU (no sharded
// traversal), assigns each query to one DPU (parallelism across queries,
// not within one), and models no WRAM caching of hot nodes — each is a
// deliberate simplification that favors neither backend's phase
// accounting but understates what a tuned real implementation of either
// could do. Both prune arithmetic against a running bound: the graph's DC
// charges the dimensions a distance summed before it passed the beam's
// worst entry plus one compare per 16-dimension block, and its TS only the
// evaluations that reach the beam. `drim-bench -headtohead` prints both backends'
// recall-vs-simulated-QPS curves through the serving path over one corpus
// (the benchmark's offline-graph workload holds the graph engine's single
// operating point); the conformance suite in internal/engine pins the
// contract behaviors (determinism, result order, empty batches, serving
// integration) for every backend.
//
// # Online serving
//
// SearchBatch is an offline primitive: one caller, one pre-assembled query
// set. NewServer wraps an engine in the online serving layer
// (internal/serve): a concurrent, deadline-aware dynamic micro-batcher
// that accepts single queries from many goroutines (Server.Search),
// coalesces them into engine launches, and demultiplexes per-query results.
// A single batcher goroutine owns the engine and cycles idle -> collecting
// -> launching: the first query of a batch starts a ServerOptions.MaxWait
// countdown, further queries are absorbed until the batch reaches
// MaxBatch, the countdown expires, or a member's context deadline demands
// an early launch (the batcher tracks an EWMA of launch service times and
// launches once now + estimate reaches the earliest deadline). Cancellation
// is honored while a request is queued; once launched, its result is
// delivered regardless (delivery never blocks the batcher). The arrival
// queue is bounded — a full queue blocks Search, turning overload into
// caller-side backpressure rather than memory growth — and Close drains:
// admitted requests are still answered, later Search calls fail fast with
// ErrServerClosed. Per-query results are bit-identical to a single
// SearchBatch over the same queries regardless of how arrivals split into
// micro-batches (the equivalence suite in internal/serve pins this).
// The benchmark's serve-online workload drives the server with an open
// loop at a fixed rate, then a closed loop, and reports latency percentiles
// and achieved QPS.
//
// # Sharded serving
//
// One Engine simulates one PIM system; the rack-scale deployments the paper
// targets spread the corpus over many UPMEM ranks. BuildSharded (or
// NewCluster over a pre-built index) partitions a corpus across S
// independent IVF-PQ engines behind one routed front door: all shards share
// the index's quantizers (centroid directory and PQ codebooks, replicated the
// way every rank holds the small directory), while the inverted lists are
// split either point-wise by a deterministic ID hash (near-perfect
// per-query balance) or whole-cluster-wise by balanced k-means bin packing
// (each inverted list wholly on one shard, spatial neighbors together; given
// a profile, what the packing levels is each list's simulated cycles, measured
// by answering the profile once on a throwaway engine over the whole index).
// Each shard runs in a compact local ID space with a monotone local→global
// remap table, so Cluster.SearchBatch — which routes the query batch and
// merges the per-shard partial top-k — returns IDs and Items bit-identical
// to a single-engine SearchBatch over the unsharded corpus (the equivalence
// suite in internal/cluster pins this for S ∈ {1, 2, 7} and both
// policies). Merged Metrics are the cross-shard parallel view:
// counters sum, wall-like durations are max-over-shards (the fleet is as
// slow as its slowest rank), QPS is recomputed from the merged totals.
//
// The assignment policy decides placement only; every fleet is searched
// through one routed path. The front door runs coarse locate (CL) exactly
// once (through a Locator shared with shard 0's engine), partitions the
// probe list by a cluster→shard owner map kept current under live inserts,
// and contacts only the shards owning at least one probed cluster; each
// contacted shard skips its CL stage (Engine.SearchBatchProbed) and scans
// exactly the probes routed to it — an unowned probe would scan nothing
// anyway, so results are unchanged, while the CL work is one directory scan
// instead of S. What the policy changes is the fan-out: under AssignHash
// every shard holds a slice of every inverted list, so a probed cluster has
// up to S owners and most queries reach every shard; AssignKMeans keeps each
// list whole on one shard and a query's probes are spatial neighbors, so
// the per-query fan-out drops well below S, which is what turns sharding
// from a latency play into a throughput play. Metrics attribution
// follows the hardware: per-shard metrics carry no CL cost, the merged
// batch metrics charge the front-door CL and gather merges into HostSeconds
// (and into SimSeconds only where a launch had to wait for them, mirroring
// the engine's own host/PIM overlap accounting). ClusterStats reports the routing view —
// per-query fan-out mean/max/histogram and front-door CL cost — plus
// replica-aware memory accounting: replicas of a shard share read-only
// state (index, codebooks, layout, locator), so a shard costs
// SharedBytes + R×PerReplicaBytes, not R× everything.
//
// For online traffic, NewClusterServer puts one micro-batching Server in
// front of every shard engine and exposes a single Search front door: the
// query is validated and copied once, located once, routed to the owning
// shard servers concurrently, and the per-shard responses are merged into
// the global top-k; ClusterResponse.ShardsContacted reports the query's
// fan-out.
// Per-shard batching policy, backpressure, cancellation and draining Close
// behave exactly as for a single Server; the benchmark's fleet-mutate
// workload runs both the offline scatter-gather path and the front door
// over a 4-shard x 2-replica fleet (reporting mean/max fan-out and the
// front-door CL share of wall time). The scatter fast-fails: the first
// shard to fail cancels its siblings' in-flight work through a per-query
// derived context.
//
// Replication masks the tail. ClusterOptions.Replicas > 1 clones each
// shard's engine R ways — replicas are deterministic copies, so any
// replica's answer is its shard's answer, bit-identically — and the cluster
// server runs one micro-batcher per replica. Each query is routed within
// its shard by power-of-two-choices on instantaneous replica load
// (queued + in-launch); if the chosen replica has not answered within a
// hedge delay derived from the sibling replicas' p99 latency estimates
// (clamped by ClusterRouteOptions.HedgeMin/HedgeMax), the request is
// re-issued to a second replica and the first reply wins, the loser
// canceled through the per-query context. A replica that fails outright is
// retried on another immediately, and a consecutive-failure breaker ejects
// it from rotation, letting one probe through per cooldown window until a
// success closes the breaker. A wedged, slow, erroring or killed replica is
// therefore masked — queries keep completing with bit-identical results as
// long as any replica of each shard answers (internal/fault injects exactly
// those failure modes to pin this, and `drim-bench -replicas R -straggler`
// prints hedged vs unhedged tail latency over a fault-injected fleet).
// NewClusterServerRouted exposes the routing policy; NewClusterServer uses
// defaults. The offline Cluster.SearchBatch uses the replicas for throughput
// instead: the whole fleet runs the engine's staged scan, launch for launch —
// the front door cuts the waves and forwards one bound per query, merged over
// every shard's partial results — and spreads each shard's share of a wave
// over all R replicas at the engines' own scheduler price.
//
// # Live mutability
//
// An index stays mutable after deployment. Engine.Insert assigns each new
// point to its nearest coarse centroid (bit-identically to index build),
// PQ-encodes it with the frozen codebooks, and appends it to that cluster's
// append segment; Engine.Delete tombstones base-list points (filtered by
// the DPU-side top-k accept pass) and removes still-appended points
// outright. Both are visible to the next launch — inserted points are
// findable immediately, including through the sharded front door (a
// previously-empty cluster gains a placement slice and an owner-map entry
// the moment a point lands in it), and deleted points are gone. The
// quantizers are frozen: mutations never retrain centroids or codebooks, so
// a heavily mutated index drifts from what a retrain would build; Compact
// folds the append segments and tombstones back into the packed inverted
// lists and re-runs the layout optimizer, after which results are
// bit-identical to a freshly built engine over the same logical corpus
// (the equivalence suites in internal/ivf, internal/core and
// internal/cluster pin this). Replacing a point is Delete then Insert;
// inserting a live ID is an error.
//
// Mutations are not safe concurrently with searches on the same engine —
// the serving layers provide the synchronization. Server.Insert/Delete/
// Compact execute on the batcher goroutine between launches (no hot-path
// locking; queries admitted before the call are answered before or after
// the mutation, never during), and ClusterServer.Insert/Delete/Compact
// quiesce every replica batcher of every shard at a launch boundary, apply
// the mutation through the cluster's global-ID routing (Cluster.Insert
// places each point on the shard a fresh build would pick; Cluster.Compact
// renumbers shard-local IDs back to the dense monotone tables the merge
// relies on), and release the fleet. Memory accounting follows along:
// MemoryFootprint and ClusterStats include live append-segment and
// tombstone bytes, which return to zero at Compact. The benchmark's
// fleet-mutate workload serves reads beside a live writer and reports the
// overlay's size and the cost of compacting it.
//
// # Durability and recovery
//
// Everything above lives in memory; the durability layer
// (internal/durable) makes the mutable serving state survive a kill at
// any instant. A DurableStore owns one directory holding a checkpointed
// snapshot (the index with its live mutation overlay, in a checksummed
// section format written via temp-file + fsync + atomic rename), a
// length-framed CRC-per-record write-ahead log of mutations, and a
// manifest binding the {snapshot, WAL} pair so recovery can never mix
// generations. CreateStore attaches a store to the engine, which logs
// its own mutations: every Engine.Insert/Delete, called directly or
// through a Server at its batch boundary, applies the mutation and
// appends one WAL record for exactly the applied points before it
// returns. Acknowledged means WAL-synced under the configured SyncPolicy
// (per record, per batch, or off), and a batch that fails part-way logs
// its applied prefix so the log always reproduces acknowledged engine state.
// Compact checkpoints and rotates the log; Checkpoint rotates without
// compacting. A Server knows nothing of the store, and the caller that
// created it closes it after the last mutation.
//
// Recover rebuilds an engine from a store directory: it redeploys over
// the checkpoint's base lists exactly as NewEngine did (checkpoints are
// only written where base lists equal a deploy-time state, and the
// layout optimizer is deterministic), restores the snapshot's overlay
// byte-for-byte, replays the WAL tail through the normal mutation path
// with the frozen quantizers, and rotates to a fresh generation —
// discarding any torn tail. The recovered engine serves bit-identical
// results and reports identical memory stats to the never-crashed
// engine over the same acknowledged mutations; torn or bit-flipped
// records and snapshot sections are detected by checksum, never
// silently served. CreateClusterStore/RecoverCluster extend the same
// contract to a sharded fleet: one store per shard plus an immutable
// assignment sidecar, WAL records carrying global IDs logged to the
// owning shard, and recovery that restores tables, owner maps and
// per-shard engines bit-identically for any S and either assignment
// policy. Crash-point matrices (a simulated filesystem that kills the
// machine at every mutating operation, torn writes included) pin all of
// this at the store, engine and cluster layers, and the benchmark's
// fleet-mutate workload measures WAL overhead and recovery wall time on
// the real filesystem (kill, recover, compare against an oracle engine).
//
// Quick start:
//
//	corpus := drimann.SIFT(100000, 1000, 1) // synthetic SIFT-shaped data
//	ix, _ := drimann.Build(corpus.Base, drimann.IndexOptions{
//		NList: 1024, M: 16, CB: 256,
//	})
//	eng, _ := drimann.NewEngine(ix, corpus.Queries, drimann.DefaultEngineOptions())
//	res, _ := eng.SearchBatch(corpus.Queries)
//	fmt.Println(res.Metrics.QPS, res.IDs[0])
package drimann

import (
	"time"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/engine"
	"drimann/internal/graph"
	"drimann/internal/ivf"
	"drimann/internal/pq"
	"drimann/internal/serve"
)

// Vectors is a flat corpus of N uint8 vectors of dimension D.
type Vectors = dataset.U8Set

// FloatVectors is a flat float32 corpus (quantize with Quantize before
// indexing).
type FloatVectors = dataset.F32Set

// Synth is a generated corpus with its query workload.
type Synth = dataset.Synth

// SynthConfig controls synthetic corpus generation.
type SynthConfig = dataset.SynthConfig

// Generate builds a synthetic clustered corpus (see SynthConfig).
func Generate(cfg SynthConfig) *Synth { return dataset.Generate(cfg) }

// SIFT generates a synthetic corpus with SIFT's shape (128-dim uint8).
func SIFT(n, queries int, seed int64) *Synth { return dataset.SIFT(n, queries, seed) }

// DEEP generates a synthetic corpus with DEEP's shape (96-dim).
func DEEP(n, queries int, seed int64) *Synth { return dataset.DEEP(n, queries, seed) }

// SPACEV generates a synthetic corpus with SPACEV's shape (100-dim).
func SPACEV(n, queries int, seed int64) *Synth { return dataset.SPACEV(n, queries, seed) }

// T2I generates a synthetic corpus with T2I's shape (200-dim).
func T2I(n, queries int, seed int64) *Synth { return dataset.T2I(n, queries, seed) }

// Index is a built IVF-PQ index.
type Index = ivf.Index

// IndexOptions configures index construction.
type IndexOptions struct {
	// NList is the number of coarse clusters (the paper's nlist).
	NList int
	// M is the number of PQ subvectors; must divide the dimension.
	M int
	// CB is the number of codebook entries per subspace (Faiss requires
	// 256; DRIM-ANN supports 2..65536).
	CB int
	// Variant selects the quantizer family: "pq" (default), "opq" or "dpq".
	Variant string
	// TrainSample caps the vectors used for training; 0 = all.
	TrainSample int
	Seed        int64
}

// Build trains an IVF-PQ index over the corpus.
func Build(base Vectors, opt IndexOptions) (*Index, error) {
	return ivf.Build(base, ivf.BuildConfig{
		NList:       opt.NList,
		PQ:          pq.Config{M: opt.M, CB: opt.CB},
		Variant:     opt.Variant,
		TrainSample: opt.TrainSample,
		Seed:        opt.Seed,
	})
}

// SearchEngine is the backend contract every serving layer programs
// against: batched top-k search plus the engine's shape (K, Dim,
// MaxBatch). *Engine and *GraphEngine both satisfy it; see the "Backends"
// section of the package documentation.
type SearchEngine = engine.Engine

// EngineMetrics re-exports the backend-shared metrics type (identical to
// Metrics; both alias internal/engine's).
type EngineMetrics = engine.Metrics

// Engine is a DRIM-ANN instance: an index deployed across a simulated
// UPMEM DRAM-PIM system with the paper's layout and scheduling
// optimizations.
type Engine = core.Engine

// GraphEngine is the beam-search graph-traversal backend: a Vamana-style
// pruned proximity graph over full uint8 vectors, searched by greedy beam
// traversal on the same simulated PIM system. Search-only: it implements
// SearchEngine (plus replication and memory reporting) but none of the
// mutation or probed-search capabilities.
type GraphEngine = graph.Engine

// GraphOptions configures the graph backend (degree bound, build/search
// beam widths, pruning slack, simulated system size).
type GraphOptions = graph.Options

// DefaultGraphOptions returns the graph backend's default configuration.
func DefaultGraphOptions() GraphOptions { return graph.DefaultOptions() }

// NewGraphEngine builds the proximity graph over the corpus and deploys it
// onto the simulated PIM system. The build is deterministic; the corpus
// (vectors plus adjacency) must fit per-DPU MRAM.
func NewGraphEngine(base Vectors, opts GraphOptions) (*GraphEngine, error) {
	return graph.New(base, opts)
}

// EngineOptions configures the engine; see DefaultEngineOptions.
type EngineOptions = core.Options

// Result carries search results plus simulation metrics.
type Result = core.Result

// Locator is the coarse-locate stage as a standalone component: the
// flat centroid-directory scan with its cost model. Engine.Locator
// exposes an engine's locator so a front door can resolve probe lists once
// and feed them to Engine.SearchBatchProbed, skipping per-engine CL.
type Locator = core.Locator

// ProbeSet is a packed per-query probe-list batch (CSR layout) as produced
// by Locator.Probes and consumed by Engine.SearchBatchProbed.
type ProbeSet = core.ProbeSet

// Metrics reports the simulated cost of a search.
type Metrics = core.Metrics

// DefaultEngineOptions enables every optimization the paper proposes.
func DefaultEngineOptions() EngineOptions { return core.DefaultOptions() }

// NewEngine deploys an index onto the simulated PIM system. The profile
// workload (may be empty) drives the offline cluster-heat profiling used by
// the layout optimizer, and its first scheduling batch is searched once to
// measure the scheduler's task price.
func NewEngine(ix *Index, profile Vectors, opts EngineOptions) (*Engine, error) {
	return core.New(ix, profile, opts)
}

// Server is the online serving layer: a concurrent, deadline-aware dynamic
// micro-batcher over one Engine. See the "Online serving" section of the
// package documentation.
type Server = serve.Server

// ServerOptions configures the micro-batching policy (max batch, max wait,
// queue bound, deadline EWMA seed).
type ServerOptions = serve.Options

// ServerStats is a snapshot of a Server's serving metrics (queue depth,
// latency, batch sizes, aggregated simulation metrics).
type ServerStats = serve.Stats

// ServerResponse is one query's answer from a Server.
type ServerResponse = serve.Response

// ErrServerClosed is returned by Server.Search once Close has stopped
// admission.
var ErrServerClosed = serve.ErrClosed

// NewServer starts the online serving layer over any backend satisfying
// the SearchEngine contract. The server becomes the engine's only driver:
// do not call eng.SearchBatch concurrently with a live server. Operations
// the backend lacks the capability for (Insert/Delete/Compact on a
// search-only backend) return serve.ErrUnsupported.
func NewServer(eng SearchEngine, opt ServerOptions) (*Server, error) {
	return serve.New(eng, opt)
}

// LatencyPercentile returns the p-th nearest-rank percentile of latencies —
// the helper load generators use to report p50/p95/p99 of Server.Search
// latencies. The contract is nearest-rank over a pre-sorted sample:
//
//   - sorted MUST already be in ascending order; the function indexes the
//     slice as-is and returns whatever sits at the nearest-rank position,
//     so unsorted input yields a well-defined but meaningless value (no
//     error is raised — sorting here would hide the caller's bug and cost
//     O(n log n) per call).
//   - p is a fraction in (0, 1]: the returned value is element
//     ceil(p*n)-1, so p=1 is the maximum and small samples never
//     under-report the tail.
//   - p <= 0 clamps to the minimum (element 0) rather than erroring, and
//     p > 1 clamps to the maximum; an empty slice returns 0.
func LatencyPercentile(sorted []time.Duration, p float64) time.Duration {
	return serve.LatencyPercentile(sorted, p)
}

// DurableStore is one engine's durability directory: a checksummed
// checkpoint snapshot, a CRC-per-record mutation WAL, and the manifest
// binding them. See the "Durability and recovery" section of the package
// documentation.
type DurableStore = durable.Store

// DurableOptions locates a store (directory, fsync policy, filesystem
// seam — leave FS nil for the real OS).
type DurableOptions = durable.Options

// SyncPolicy selects when the mutation WAL is fsynced.
type SyncPolicy = durable.SyncPolicy

// WAL fsync policies: SyncEveryBatch (the default) syncs once per
// mutation batch, SyncEveryRecord after every record, SyncNever leaves
// durability to the OS.
const (
	SyncEveryBatch  = durable.SyncEveryBatch
	SyncEveryRecord = durable.SyncEveryRecord
	SyncNever       = durable.SyncNever
)

// CreateStore initializes a durability directory for eng, checkpointing
// its current state as the first snapshot, and attaches it: eng's
// mutations — direct or through a Server — are logged from then on. The
// caller closes the returned store after eng's last mutation.
func CreateStore(eng *Engine, opt DurableOptions) (*DurableStore, error) {
	return eng.CreateStore(opt)
}

// Recover rebuilds an engine from a durability directory: redeploy the
// checkpoint snapshot, replay the WAL tail through the normal mutation
// path, rotate to a fresh generation. The recovered engine serves
// bit-identical results to the never-crashed engine over the same
// acknowledged mutations, with the returned store attached as
// CreateStore's is; the caller closes it. The profile workload and opts
// must match the original deployment's for the layout to reproduce.
func Recover(opt DurableOptions, profile Vectors, opts EngineOptions) (*Engine, *DurableStore, error) {
	return core.Recover(opt, profile, opts)
}

// Cluster is the sharding layer: a corpus partitioned across S independent
// IVF-PQ engines behind one routed front door. See the "Sharded serving"
// section of the package documentation.
type Cluster = cluster.Cluster

// ClusterOptions configures sharding (shard count, assignment policy,
// per-shard engine options).
type ClusterOptions = cluster.Options

// ClusterShard is one partition of a sharded deployment: its engine plus
// the monotone local→global ID table.
type ClusterShard = cluster.Shard

// ShardAssignment selects the partitioning policy.
type ShardAssignment = cluster.Assignment

// Shard-assignment policies decide where points live, not how the fleet is
// searched: AssignHash spreads points across shards by a deterministic ID
// hash; AssignKMeans packs whole coarse clusters onto shards by a balanced
// k-means over the centroids, which keeps the routed fan-out below S.
const (
	AssignHash   = cluster.AssignHash
	AssignKMeans = cluster.AssignKMeans
)

// NewCluster partitions a pre-built index across opt.Shards engines. The
// profile workload (may be empty) drives each shard's layout heat
// profiling, as in NewEngine, and the AssignKMeans split's per-list cost.
func NewCluster(ix *Index, profile Vectors, opt ClusterOptions) (*Cluster, error) {
	return cluster.New(ix, profile, opt)
}

// BuildSharded trains an IVF-PQ index over the corpus and deploys it as a
// sharded scatter-gather fleet: Build followed by NewCluster. Merged
// Cluster.SearchBatch results are bit-identical to a single-engine
// SearchBatch over the same index.
func BuildSharded(base Vectors, profile Vectors, iopt IndexOptions, copt ClusterOptions) (*Cluster, error) {
	ix, err := Build(base, iopt)
	if err != nil {
		return nil, err
	}
	return cluster.New(ix, profile, copt)
}

// ClusterServer is the sharded online serving layer: one micro-batching
// Server per shard behind a single scatter-gather Search front door.
type ClusterServer = cluster.Server

// ClusterServerStats snapshots a ClusterServer's front-door ledger, the
// replication machinery's counters (hedges, hedge wins, failovers, breaker
// ejections), the routing view, and the per-shard,
// per-replica serving stats with their aggregate.
type ClusterServerStats = cluster.ServerStats

// ClusterStats snapshots a Cluster's deployment view: per-shard
// replica-aware memory accounting plus the front door's routing stats.
type ClusterStats = cluster.Stats

// ClusterRouteStats is the front door's routing accumulator: per-query
// fan-out mean/max/histogram and the front-door coarse-locate cost. The
// offline Cluster.SearchBatch and the online ClusterServer drive the same
// front door and share this accumulator.
type ClusterRouteStats = cluster.RouteStats

// ClusterShardMemStats is one shard's replica-aware memory accounting:
// bytes shared by all its replicas plus each replica's private bytes.
type ClusterShardMemStats = cluster.ShardMemStats

// ClusterShardStats groups one shard's per-replica serving ledgers.
type ClusterShardStats = cluster.ShardStats

// ClusterReplicaStats is one replica's serving ledger plus the routing
// state the front door keeps about it (load, p99 estimate, breaker state).
type ClusterReplicaStats = cluster.ReplicaStats

// ClusterResponse is one query's merged answer from a ClusterServer.
type ClusterResponse = cluster.Response

// ClusterRouteOptions configures replica routing on a ClusterServer:
// hedging policy, breaker thresholds, and the per-replica wrap hook fault
// injection uses. Zero values select defaults.
type ClusterRouteOptions = cluster.RouteOptions

// ClusterReplica is the contract one replica of a shard serves behind; a
// *Server satisfies it, as do the fault-injection wrappers in
// internal/fault.
type ClusterReplica = cluster.Replica

// NewClusterServer starts one serving layer per shard replica (all with the
// same options) behind a scatter-gather front door with default routing.
// The fleet becomes the engines' only driver.
func NewClusterServer(cl *Cluster, opt ServerOptions) (*ClusterServer, error) {
	return cluster.NewServer(cl, opt)
}

// NewClusterServerRouted is NewClusterServer with explicit replica-routing
// options (hedging policy, breaker thresholds, the replica wrap hook).
func NewClusterServerRouted(cl *Cluster, opt ServerOptions, route ClusterRouteOptions) (*ClusterServer, error) {
	return cluster.NewServerRouted(cl, opt, route)
}

// FleetStore is a sharded deployment's durability directory: one
// DurableStore per shard plus the immutable shard-assignment sidecar.
type FleetStore = cluster.FleetStore

// CreateClusterStore initializes a fleet durability directory for cl and
// attaches it: every subsequent Cluster.Insert/Delete is WAL-logged on
// the owning shard, and Compact checkpoints and rotates every shard's
// log. One directory, one fleet.
func CreateClusterStore(cl *Cluster, opt DurableOptions) (*FleetStore, error) {
	return cluster.CreateFleetStore(cl, opt)
}

// RecoverCluster rebuilds a sharded fleet from a fleet durability
// directory, replaying each shard's WAL tail independently. The
// recovered fleet serves bit-identical merged results — and identical
// tables, owner maps, and memory stats — to the never-crashed fleet
// over the same acknowledged mutations. copt must match the original
// deployment (shard count, assignment policy, engine options); the
// profile workload drives per-shard layout heat as in NewCluster.
func RecoverCluster(opt DurableOptions, profile Vectors, copt ClusterOptions) (*Cluster, *FleetStore, error) {
	return cluster.RecoverCluster(opt, profile, copt)
}

// GroundTruth computes exact top-k neighbors by parallel brute force.
func GroundTruth(base, queries Vectors, k, workers int) [][]int32 {
	return dataset.GroundTruth(base, queries, k, workers)
}

// Recall computes mean recall@k of got against the ground truth.
func Recall(gt, got [][]int32, k int) float64 { return dataset.Recall(gt, got, k) }
