// Package engine defines the backend contract the serving stack programs
// against. A backend is anything that can answer batched approximate
// nearest-neighbor queries over a fixed corpus while charging its work to
// the simulated UPMEM cost model — the IVF-PQ engine of internal/core (the
// paper's design) and the beam-search graph engine of internal/graph both
// implement it, and internal/serve and the public facade run unmodified over
// either. (internal/cluster shards the IVF engine only; see its package doc.)
//
// The contract splits in two. Engine is the mandatory serving surface:
// batched search plus the three shape accessors the batcher needs to clamp
// and validate requests. Everything else a backend MAY support — CL-skipping
// probed search, live mutation with its checkpoints — is an optional capability
// interface discovered by type assertion, so the stack degrades gracefully (a mutation against a backend
// without Mutable fails with a clear error instead of a compile-time weld to
// one concrete engine type).
//
// # The two backends
//
// The IVF-PQ engine (internal/core) implements every optional capability —
// probed search, mutation, snapshots — and is the only backend
// internal/cluster shards. The graph engine (internal/graph) is search-only:
// no mutation and no probed search, so internal/serve returns ErrUnsupported
// from the operations it cannot serve.
//
// How to pick: IVF-PQ compresses the corpus ~Dim/M-fold and streams
// contiguous lists, so it fits large corpora in per-DPU MRAM and its simulated
// cost is dominated by sequential scans the paper's buffering optimizations
// amortize; recall is capped by PQ quantization error. The graph backend
// stores full vectors plus adjacency (no compression — corpus size is bounded
// by the 64 MB per-DPU MRAM) and reaches higher recall at the same k, but
// every traversal hop is a dependent, unbuffered MRAM access paying full DMA
// setup latency, the access pattern PIM hardware is worst at. Both run on the
// same simulated UPMEM system and cost model, so their SimSeconds and QPS are
// directly comparable — that is the point; `drim-bench -headtohead` prints
// both backends' recall-vs-simulated-QPS curves through the serving path over
// one corpus. The conformance suite in this package pins the contract
// behaviors (determinism, result order, empty batches, serving integration)
// for every backend.
package engine

import "drimann/internal/dataset"

// Engine is the mandatory backend contract: batched search over uint8
// vectors plus the shape accessors the serving layer uses to validate and
// clamp requests. Implementations must be deterministic — two SearchBatch
// calls with the same queries on the same engine state return bit-identical
// Results — and must populate Result.Metrics with the simulated cost of the
// call (Queries, SimSeconds, QPS at minimum).
//
// SearchBatch must accept any batch with 0 < N <= MaxBatch() and D == Dim(),
// and must return exactly min(K(), corpus size) neighbors per query in the
// deterministic ascending (distance, id) order. An empty batch (N == 0)
// returns an empty Result with zero metrics rather than an error.
type Engine interface {
	SearchBatch(queries dataset.U8Set) (*Result, error)
	// K is the neighbors returned per query.
	K() int
	// Dim is the vector dimensionality the engine serves.
	Dim() int
	// MaxBatch is the largest query batch one SearchBatch call accepts.
	MaxBatch() int
}

// ProbedSearcher is the capability behind sharded routing: a backend
// whose first stage is a cluster locate (IVF-style CL) can have that stage
// pre-resolved at a sharded front door and be handed the probe lists
// directly. Backends without a cluster structure (graph traversal) don't
// implement it; the sharding layer (internal/cluster) is IVF-only.
type ProbedSearcher interface {
	Engine
	// SearchBatchProbed runs the batch with cluster probes pre-resolved;
	// chargeCL controls whether the skipped locate stage's host cost is
	// still charged to the returned Metrics (see internal/core).
	SearchBatchProbed(queries dataset.U8Set, probes ProbeSet, chargeCL bool) (*Result, error)
	// NumClusters is the size of the probe-ID domain (the index's nlist).
	NumClusters() int
}

// Mutable is the live-mutation capability: point inserts and deletes
// applied at batch boundaries, plus compaction back to the packed layout.
// The contract matches internal/core: after Compact, results are
// bit-identical to a freshly built engine over the same logical corpus.
// A backend that owns a durable store logs each mutation before it returns
// and rotates the store on Compact and Checkpoint; without one, Checkpoint
// does nothing. The serving layer calls all four under quiescence (no
// in-flight batches).
type Mutable interface {
	Insert(vecs dataset.U8Set, ids []int32) error
	Delete(ids []int32) error
	Compact() error
	Checkpoint() error
}

// MemoryFootprint splits one engine's host-side memory into the read-only
// bytes shared across all replicas of a deployment and the private bytes
// every additional replica costs.
type MemoryFootprint struct {
	SharedBytes     int64
	PerReplicaBytes int64
}
