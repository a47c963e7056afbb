// Package graph is a beam-search graph-traversal ANN backend — the
// competing design to DRIM-ANN's IVF-PQ — served on the same simulated
// UPMEM DRAM-PIM hardware and cost model, so the two papers' access
// patterns are charged under one accounting scheme.
//
// # Index structure
//
// Build constructs a Vamana-style pruned proximity graph (greedy beam
// search for candidates, alpha-slack robust pruning to a bounded
// out-degree, symmetric backlinks re-pruned under the same bound), with
// every step deterministic: insertion order is ascending point ID, all
// orderings are the repository's canonical ascending (distance, id) total
// order, and the search entry point is the corpus medoid. Distances are
// exact integer L2 over the uint8 vectors — a graph index stores full
// vectors, not PQ codes, which is the memory-for-recall trade the
// graph-vs-IVF comparison is about.
//
// # DPU cost profile
//
// Query-time traversal is simulated per DPU with a random-access-heavy
// profile, the defining contrast to IVF-PQ's streaming scans: each query
// runs on one DPU, and every hop issues one unbuffered MRAM DMA for the
// node's adjacency list (charged to the RC phase) plus one unbuffered DMA
// per candidate vector fetched for a distance evaluation (charged to DC,
// full DMA setup latency each — there is no large contiguous slice to
// stream, so the per-transfer latency the paper's buffering optimizations
// amortize away is paid on every access). Distance arithmetic charges DC
// compute cycles for the dimensions actually summed (squaring through the
// multiplier-free SQT table by default, exactly the trick core uses) plus
// one compare per 16-dimension block: once the beam is full, a distance
// stops at the first block that sums strictly above the beam's worst entry,
// which it could not enter. Beam-pool maintenance charges TS only for the
// evaluations that reach the pool.
// The host does no cluster locating — only the final merge/demux. Each DPU
// holds the full graph (vectors + adjacency) in MRAM, so corpus size is
// bounded by MRAM capacity; New reports an error when it does not fit.
//
// SimSeconds follows core's accounting exactly: per launch the PIM time is
// the slowest DPU's cycles, and a batch costs max(host, max(pim, xfer)).
package graph

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/topk"
	"drimann/internal/upmem"
	"drimann/internal/vecmath"
)

// Options configures a graph engine; zero values select defaults.
type Options struct {
	// K is the neighbors returned per query; default 10.
	K int
	// Degree bounds each node's out-neighbor list (Vamana's R); default 16.
	Degree int
	// BuildBeam is the candidate-pool width of build-time searches
	// (Vamana's L_build); default 48.
	BuildBeam int
	// SearchBeam is the query-time pool width (ef); clamped to at least K;
	// default 32. Larger values trade simulated time for recall — the knob
	// the head-to-head recall-vs-QPS curves sweep.
	SearchBeam int
	// Alpha is the robust-prune slack (>= 1); default 1.2.
	Alpha float64

	// NumDPUs sizes the simulated PIM system; default 64.
	NumDPUs int
	// Tasklets per DPU; default 16.
	Tasklets int
	// BatchSize is the scheduling batch (and MaxBatch); default 256.
	BatchSize int
	// Workers bounds goroutine parallelism of the simulation itself
	// (results are identical for any value); default GOMAXPROCS.
	Workers int

	// UseSQT charges squaring through the multiplier-free square-lookup
	// table (DefaultOptions sets it); off, every per-dimension square pays
	// the 32-cycle software multiply.
	UseSQT bool

	// MRAMBytes overrides per-DPU MRAM capacity (default 64 MB).
	MRAMBytes int
	// Host models the CPU running the final merge.
	Host upmem.Platform
}

// DefaultOptions returns the default graph-backend configuration.
func DefaultOptions() Options {
	return Options{
		K:          10,
		Degree:     16,
		BuildBeam:  48,
		SearchBeam: 32,
		Alpha:      1.2,
		NumDPUs:    64,
		Tasklets:   16,
		BatchSize:  256,
		UseSQT:     true,
		Host:       upmem.Platform{Name: "host", Threads: 32, FreqGHz: 2.1, VectorWidth: 8},
		Workers:    runtime.GOMAXPROCS(0),
	}
}

func (o *Options) defaults() {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Degree <= 0 {
		o.Degree = 16
	}
	if o.BuildBeam <= 0 {
		o.BuildBeam = 48
	}
	if o.SearchBeam <= 0 {
		o.SearchBeam = 32
	}
	if o.SearchBeam < o.K {
		o.SearchBeam = o.K
	}
	if o.Alpha < 1 {
		o.Alpha = 1.2
	}
	if o.NumDPUs <= 0 {
		o.NumDPUs = 64
	}
	if o.Tasklets <= 0 {
		o.Tasklets = 16
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.Host.Threads == 0 {
		o.Host = DefaultOptions().Host
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Engine is a graph-traversal backend instance: the pruned proximity graph
// over an owned copy of the corpus, plus one simulated PIM system.
type Engine struct {
	base   dataset.U8Set // owned copy of the corpus vectors
	nbrs   [][]int32     // adjacency: nbrs[i] sorted ascending, len <= Degree
	edges  int           // total directed edges (for memory accounting)
	medoid int32
	opts   Options
	sys    *upmem.System

	scratch []searchScratch // one per DPU
}

// searchScratch is one simulated DPU's private traversal state.
type searchScratch struct {
	pool     []topk.Item[uint32]
	expanded []bool
	visited  []uint32 // per-node visit stamps (epoch trick: no per-query clear)
	epoch    uint32
	evals    uint64 // distance evaluations since the last flush
	tally    upmem.Tally
}

// The graph engine implements the mandatory contract only. It is
// deliberately NOT Mutable or ProbedSearcher: the serving stack
// must degrade gracefully over a search-only backend.
var _ engine.Engine = (*Engine)(nil)

// New builds the proximity graph over base and sizes the simulated PIM
// system. The build is deterministic (no randomness, canonical orderings
// everywhere): the same corpus and options always yield the same graph,
// which is what makes replicas and restarts bit-identical.
func New(base dataset.U8Set, opts Options) (*Engine, error) {
	opts.defaults()
	if base.N == 0 {
		return nil, fmt.Errorf("graph: empty corpus")
	}
	if base.D == 0 {
		return nil, fmt.Errorf("graph: zero-dimensional vectors")
	}
	e := &Engine{
		base: dataset.U8Set{N: base.N, D: base.D, Data: append([]uint8(nil), base.Data...)},
		opts: opts,
	}
	e.medoid = medoid(e.base)
	e.build()
	for _, n := range e.nbrs {
		e.edges += len(n)
	}
	if err := e.deploy(); err != nil {
		return nil, err
	}
	return e, nil
}

// deploy sizes the simulated PIM system and every DPU's traversal scratch
// for e.opts. Every DPU holds the full graph in MRAM: vectors plus the
// degree-bounded adjacency in a packed (count + ids) layout.
func (e *Engine) deploy() error {
	cfg := upmem.DefaultConfig(e.opts.NumDPUs)
	cfg.Tasklets = e.opts.Tasklets
	if e.opts.MRAMBytes > 0 {
		cfg.MRAMBytes = e.opts.MRAMBytes
	}
	sys, err := upmem.NewSystem(cfg)
	if err != nil {
		return err
	}
	mramBytes := e.base.N*e.base.D + e.base.N*(1+e.opts.Degree)*4
	for _, d := range sys.DPUs {
		if err := d.AllocMRAM(mramBytes); err != nil {
			return fmt.Errorf("graph: corpus does not fit per-DPU MRAM: %w", err)
		}
	}
	e.sys = sys
	e.scratch = make([]searchScratch, e.opts.NumDPUs)
	for i := range e.scratch {
		e.scratch[i].visited = make([]uint32, e.base.N)
		e.scratch[i].pool = make([]topk.Item[uint32], 0, e.opts.SearchBeam+1)
		e.scratch[i].expanded = make([]bool, 0, e.opts.SearchBeam+1)
	}
	return nil
}

// medoid returns the point closest to the corpus mean (ties: lowest id) —
// the deterministic traversal entry point.
func medoid(base dataset.U8Set) int32 {
	d := base.D
	sums := make([]float64, d)
	for i := 0; i < base.N; i++ {
		v := base.Vec(i)
		for j := 0; j < d; j++ {
			sums[j] += float64(v[j])
		}
	}
	mean := make([]float32, d)
	for j := 0; j < d; j++ {
		mean[j] = float32(sums[j] / float64(base.N))
	}
	best, bestD := int32(0), math.MaxFloat64
	vf := make([]float32, d)
	for i := 0; i < base.N; i++ {
		vecmath.U8ToF32(vf, base.Vec(i))
		dist := float64(vecmath.L2SquaredF32(vf, mean))
		if dist < bestD {
			best, bestD = int32(i), dist
		}
	}
	return best
}

func (e *Engine) dist(q []uint8, id int32) uint32 {
	return vecmath.L2SquaredU8(q, e.base.Vec(int(id)))
}

// build inserts points in ascending ID order: a beam search over the
// partial graph collects candidates, robust pruning picks the out-list,
// and backlinks are re-pruned under the degree bound.
func (e *Engine) build() {
	n := e.base.N
	e.nbrs = make([][]int32, n)
	sc := &searchScratch{
		visited:  make([]uint32, n),
		pool:     make([]topk.Item[uint32], 0, e.opts.BuildBeam+1),
		expanded: make([]bool, 0, e.opts.BuildBeam+1),
	}
	var cands []topk.Item[uint32]
	for i := 0; i < n; i++ {
		if i == 0 {
			continue // first node: no graph yet, no edges to make
		}
		// Entry: the medoid once it exists in the partial graph, node 0
		// before that (both deterministic).
		entry := int32(0)
		if int(e.medoid) < i {
			entry = e.medoid
		}
		q := e.base.Vec(i)
		cands = e.beamCollect(sc, q, entry, e.opts.BuildBeam, cands[:0])
		// Drop self-matches (a duplicate vector is a distance-0 candidate,
		// the point itself never appears: it is not in the graph yet).
		pruned := e.robustPrune(int32(i), cands)
		e.nbrs[i] = append([]int32(nil), pruned...)
		for _, j := range pruned {
			e.addBacklink(j, int32(i))
		}
	}
	// Canonical adjacency order: ascending node ID per list. Traversal
	// visits every neighbor regardless of order; a fixed order makes the
	// structure (and every downstream result) reproducible byte-for-byte.
	for i := range e.nbrs {
		sort.Slice(e.nbrs[i], func(a, b int) bool { return e.nbrs[i][a] < e.nbrs[i][b] })
	}
}

// addBacklink adds `from` to j's out-list, re-pruning when the degree
// bound overflows.
func (e *Engine) addBacklink(j, from int32) {
	for _, x := range e.nbrs[j] {
		if x == from {
			return
		}
	}
	e.nbrs[j] = append(e.nbrs[j], from)
	if len(e.nbrs[j]) <= e.opts.Degree {
		return
	}
	qj := e.base.Vec(int(j))
	cands := make([]topk.Item[uint32], 0, len(e.nbrs[j]))
	for _, x := range e.nbrs[j] {
		cands = append(cands, topk.Item[uint32]{ID: x, Dist: e.dist(qj, x)})
	}
	topk.SortItems(cands)
	e.nbrs[j] = e.robustPrune(j, cands)
}

// robustPrune selects up to Degree neighbors for p from cands (sorted
// ascending by (dist, id)): greedily keep the nearest candidate, then
// discard any candidate alpha-dominated by a kept one (alpha * d(kept, c)
// <= d(p, c)), Vamana's diversity rule that keeps a few long-range edges.
// That test is d(kept, c) <= pruneBound(Alpha, d(p, c)), so the distance to a
// kept point is abandoned once it passes the bound.
func (e *Engine) robustPrune(p int32, cands []topk.Item[uint32]) []int32 {
	const dead = math.MinInt64 // picked, pruned, or p itself
	out := make([]int32, 0, e.opts.Degree)
	bound := make([]int64, len(cands))
	for i, c := range cands {
		bound[i] = dead
		if c.ID != p {
			bound[i] = pruneBound(e.opts.Alpha, c.Dist)
		}
	}
	// A pick prunes only candidates after it, so every candidate before the
	// last pick is dead and the next one is searched from there.
	for pick := 0; len(out) < e.opts.Degree; pick++ {
		for pick < len(cands) && bound[pick] == dead {
			pick++
		}
		if pick == len(cands) {
			break
		}
		out = append(out, cands[pick].ID)
		vk := e.base.Vec(int(cands[pick].ID))
		for i := pick + 1; i < len(cands); i++ {
			if bound[i] < 0 { // dead, or no distance dominates it
				continue
			}
			if d, _ := vecmath.L2SquaredU8Bounded(vk, e.base.Vec(int(cands[i].ID)), uint32(bound[i])); int64(d) <= bound[i] {
				bound[i] = dead
			}
		}
	}
	return out
}

// pruneBound returns the largest integer x with alpha*float64(x) <= float64(d),
// or -1 when no x >= 0 satisfies it (alpha NaN or +Inf). It is derived from
// the predicate itself: float64(x) and the product round monotonically in x,
// so the predicate holds exactly for x <= pruneBound(alpha, d).
func pruneBound(alpha float64, d uint32) int64 {
	x := int64(-1)
	if q := float64(d) / alpha; q >= 0 {
		x = int64(q)
	}
	for alpha*float64(x+1) <= float64(d) {
		x++
	}
	for x >= 0 && !(alpha*float64(x) <= float64(d)) {
		x--
	}
	return x
}

// beamCollect runs a build-time beam search from entry and returns every
// evaluated candidate sorted ascending — the Vamana visited set, truncated
// to 2*beam (build cost bound; the nearest candidates are what pruning
// uses).
func (e *Engine) beamCollect(sc *searchScratch, q []uint8, entry int32, beam int, cands []topk.Item[uint32]) []topk.Item[uint32] {
	cands = cands[:0]
	e.beamSearch(sc, q, entry, beam, func(it topk.Item[uint32]) {
		cands = append(cands, it)
	})
	topk.SortItems(cands)
	if len(cands) > 2*beam {
		cands = cands[:2*beam]
	}
	return cands
}

// beamStats counts the simulated work of one traversal.
type beamStats struct {
	hops   int // nodes expanded (adjacency-list fetches)
	evals  int // distance evaluations (vector fetches)
	dims   int // dimensions summed over all evaluations
	checks int // partial sums compared against the beam's worst
	probes int // evaluations that reached the pool probe
}

// beamSearch is the greedy best-first traversal: keep a pool of the `beam`
// nearest visited nodes, repeatedly expand the nearest unexpanded one,
// stop when the pool is fully expanded. The final pool is sorted ascending
// (dist, id).
//
// onEval, when set, observes every evaluation's exact distance. Without it,
// once the pool holds `beam` items a distance is abandoned after the first
// block that sums strictly above the pool's worst: insert would reject it,
// and a tie, which the id decides, is never abandoned. The abandoned
// candidate was still fetched and stays visited.
func (e *Engine) beamSearch(sc *searchScratch, q []uint8, entry int32, beam int, onEval func(topk.Item[uint32])) beamStats {
	var st beamStats
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stamps are stale, clear once
		clear(sc.visited)
		sc.epoch = 1
	}
	sc.pool = sc.pool[:0]
	sc.expanded = sc.expanded[:0]

	insert := func(it topk.Item[uint32]) {
		// Binary search under the canonical (dist, id) order.
		lo, hi := 0, len(sc.pool)
		for lo < hi {
			mid := (lo + hi) / 2
			if topk.Less(sc.pool[mid], it) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= beam {
			return
		}
		sc.pool = append(sc.pool, topk.Item[uint32]{})
		sc.expanded = append(sc.expanded, false)
		copy(sc.pool[lo+1:], sc.pool[lo:])
		copy(sc.expanded[lo+1:], sc.expanded[lo:])
		sc.pool[lo] = it
		sc.expanded[lo] = false
		if len(sc.pool) > beam {
			sc.pool = sc.pool[:beam]
			sc.expanded = sc.expanded[:beam]
		}
	}

	eval := func(id int32) {
		sc.visited[id] = sc.epoch
		st.evals++
		it := topk.Item[uint32]{ID: id}
		if onEval != nil || len(sc.pool) < beam {
			it.Dist = e.dist(q, id)
			st.dims += len(q)
			if onEval != nil {
				onEval(it)
			}
		} else {
			bound := sc.pool[beam-1].Dist
			var dims int
			it.Dist, dims = vecmath.L2SquaredU8Bounded(q, e.base.Vec(int(id)), bound)
			st.dims += dims
			st.checks += (dims + vecmath.AbandonStride - 1) / vecmath.AbandonStride
			if it.Dist > bound {
				return
			}
		}
		st.probes++
		insert(it)
	}
	eval(entry)
	for {
		next := -1
		for i := range sc.pool {
			if !sc.expanded[i] {
				next = i
				break
			}
		}
		if next < 0 {
			break
		}
		sc.expanded[next] = true
		node := sc.pool[next].ID
		st.hops++
		for _, nb := range e.nbrs[node] {
			if sc.visited[nb] == sc.epoch {
				continue
			}
			eval(nb)
		}
	}
	return st
}

// K returns the neighbors per query (engine.Engine).
func (e *Engine) K() int { return e.opts.K }

// Dim returns the vector dimensionality (engine.Engine).
func (e *Engine) Dim() int { return e.base.D }

// MaxBatch returns the scheduling batch size (engine.Engine).
func (e *Engine) MaxBatch() int { return e.opts.BatchSize }

// Len returns the corpus size.
func (e *Engine) Len() int { return e.base.N }

// Medoid returns the traversal entry point.
func (e *Engine) Medoid() int32 { return e.medoid }

// Neighbors returns node i's out-list (a view; ascending node ID).
func (e *Engine) Neighbors(i int32) []int32 { return e.nbrs[i] }

// Options reports the engine's resolved configuration.
func (e *Engine) Options() Options { return e.opts }

// System exposes the simulated PIM system (inspection and tests).
func (e *Engine) System() *upmem.System { return e.sys }

// NewReplica builds an engine serving the same graph bit-identically:
// shared read-only corpus and adjacency, private simulated system and
// scratch.
func (e *Engine) NewReplica() (engine.Engine, error) {
	return e.withOptions(e.opts)
}

// WithSearchOptions builds an engine over the same built graph with
// query-time options modified by mod: SearchBeam, K, BatchSize, NumDPUs,
// Workers and the cost knobs may change; the build-time shape (Degree,
// BuildBeam, Alpha) is pinned to the existing graph. This is what lets a
// recall-vs-QPS sweep reuse one expensive build across beam widths.
func (e *Engine) WithSearchOptions(mod func(*Options)) (*Engine, error) {
	opts := e.opts
	mod(&opts)
	opts.defaults()
	opts.Degree, opts.BuildBeam, opts.Alpha = e.opts.Degree, e.opts.BuildBeam, e.opts.Alpha
	return e.withOptions(opts)
}

// withOptions clones the engine around the shared graph under opts: fresh
// simulated system (re-running the MRAM fit check) and fresh scratch.
func (e *Engine) withOptions(opts Options) (*Engine, error) {
	r := &Engine{
		base:   e.base,
		nbrs:   e.nbrs,
		edges:  e.edges,
		medoid: e.medoid,
		opts:   opts,
	}
	if err := r.deploy(); err != nil {
		return nil, err
	}
	return r, nil
}

// MemoryFootprint reports the host-side shared/per-replica byte split
// (engine.MemoryFootprint): the corpus and adjacency are shared read-only;
// each replica owns per-DPU visit stamps and beam pools.
func (e *Engine) MemoryFootprint() engine.MemoryFootprint {
	shared := int64(len(e.base.Data)) + int64(e.edges)*4
	per := int64(e.opts.NumDPUs) * (int64(e.base.N)*4 + int64(e.opts.SearchBeam)*17)
	return engine.MemoryFootprint{SharedBytes: shared, PerReplicaBytes: per}
}
