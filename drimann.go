// Package drimann is a Go implementation of DRIM-ANN, the approximate
// nearest neighbor search engine for commodity DRAM processing-in-memory
// systems from "DRIM-ANN: An Approximate Nearest Neighbor Search Engine
// based on Commercial DRAM-PIMs" (SC '25).
//
// The library contains the full system described by the paper:
//
//   - an IVF-PQ index over uint8 vector corpora;
//   - a functional UPMEM DRAM-PIM simulator with the paper's cost model
//     (no hardware multiplier, WRAM/MRAM hierarchy, host-transfer limits);
//   - the DRIM-ANN engine: host-side cluster locating, DPU-side residual /
//     LUT / distance / top-k kernels with the multiplier-less SQT
//     conversion, WRAM buffering and lock pruning;
//   - the load-balance optimizer (cluster partition, duplication,
//     allocation) and the greedy runtime scheduler;
//   - the analytic performance model (Equations 1-13) and the design space
//     exploration, which walks the grid in model-throughput order;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// Where each part is documented:
//
//   - internal/core: the engine — the pipelined search, the bound-forwarded
//     staged scan, the scheduler's task price, mutation and recovery;
//   - internal/engine: the backend contract, and how to pick between the
//     IVF-PQ engine and the graph engine (internal/graph);
//   - internal/serve: the online micro-batching Server;
//   - internal/cluster: the sharded, replicated fleet and its front door;
//   - internal/durable: the WAL, snapshots and crash-point testing.
//
// The repo benchmark (BENCHMARK.json, benchmark/) measures the simulated and
// the host's wall-clock throughput of four workloads built from these.
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
	// TrainSample caps the vectors used for training; 0 = all.
	TrainSample int
	Seed        int64
}

// Build trains an IVF-PQ index over the corpus.
func Build(base Vectors, opt IndexOptions) (*Index, error) {
	return ivf.Build(base, ivf.BuildConfig{
		NList:       opt.NList,
		PQ:          pq.Config{M: opt.M, CB: opt.CB},
		TrainSample: opt.TrainSample,
		Seed:        opt.Seed,
	})
}

// SearchEngine is the backend contract every serving layer programs
// against: batched top-k search plus the engine's shape (K, Dim,
// MaxBatch). *Engine and *GraphEngine both satisfy it; see internal/engine.
type SearchEngine = engine.Engine

// Engine is a DRIM-ANN instance: an index deployed across a simulated
// UPMEM DRAM-PIM system with the paper's layout and scheduling
// optimizations.
type Engine = core.Engine

// GraphEngine is the beam-search graph-traversal backend: a Vamana-style
// pruned proximity graph over full uint8 vectors, searched by greedy beam
// traversal on the same simulated PIM system. Search-only: it implements
// SearchEngine (plus memory reporting) but none of the
// mutation or probed-search capabilities.
type GraphEngine = graph.Engine

// GraphOptions configures the graph backend (degree bound, build/search
// beam widths, simulated system size).
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
// micro-batcher over one engine; see internal/serve.
type Server = serve.Server

// ServerOptions configures the micro-batching policy (max batch, max wait,
// queue bound, deadline EWMA seed).
type ServerOptions = serve.Options

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
// binding them; see internal/durable.
type DurableStore = durable.Store

// DurableOptions locates a store (directory, fsync policy, filesystem
// seam — leave FS nil for the real OS).
type DurableOptions = durable.Options

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
// IVF-PQ engines behind one routed front door; see internal/cluster.
type Cluster = cluster.Cluster

// ClusterOptions configures sharding (shard count, assignment policy,
// per-shard engine options).
type ClusterOptions = cluster.Options

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

// ClusterServer is the sharded online serving layer: one micro-batching
// Server per shard behind a single scatter-gather Search front door.
type ClusterServer = cluster.Server

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

// GroundTruth computes exact top-k neighbors by parallel brute force.
func GroundTruth(base, queries Vectors, k, workers int) [][]int32 {
	return dataset.GroundTruth(base, queries, k, workers)
}

// Recall computes mean recall@k of got against the ground truth.
func Recall(gt, got [][]int32, k int) float64 { return dataset.Recall(gt, got, k) }
