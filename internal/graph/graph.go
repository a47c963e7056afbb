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
// every step deterministic: points are inserted in ascending ID order, all
// orderings are the repository's canonical ascending (distance, id) total
// order, and the search entry point is the corpus medoid. Distances are
// exact integer L2 over the uint8 vectors — a graph index stores full
// vectors, not PQ codes, which is the memory-for-recall trade the
// graph-vs-IVF comparison is about. The build keeps only what it uses: a
// candidate search holds the 2*BuildBeam nearest evaluations in its pool and
// abandons a distance once it passes the pool's worst, and pruning abandons
// one once it passes its alpha bound; neither moves an edge. Distances run
// eight rows a pass (vecmath.L2U8Rows): a hop's, a pick's or a backlink's.
//
// An insertion runs in two pipelined stages: stage A (the calling goroutine)
// searches point i's candidates and goes on to i+1, while stage B (one
// goroutine, insertions in order) prunes i's list and adds its backlinks.
// Stage B writes only the lists of i and its candidates; stage A raises a
// gate on each before handing i over, stage B lowers each once that list is
// final, and a search reads a list only with its gate down. So every list
// stage A reads is the serial build's, and so is the graph, bit for bit.
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
// multiplier-free SQT table, exactly the trick core uses) plus
// one compare per 16-dimension block: once the beam is full, a distance
// stops at the first block that sums strictly above the beam's worst entry,
// which it could not enter; its dimensions are read from its pass's block
// sums at the bound of its turn. Beam-pool maintenance charges TS only for
// the evaluations that reach the pool.
// The host does no cluster locating — only the final merge/demux. Each DPU
// holds the full graph (vectors + adjacency) in MRAM, so corpus size is
// bounded by MRAM capacity; New reports an error when it does not fit.
//
// SimSeconds follows core's accounting exactly: per launch the PIM time is
// the slowest DPU's cycles, and a batch costs max(host, max(pim, xfer)).
//
// The engine is search-only (no mutation, no probed search). Its cost-model
// simplifications against IVF-PQ — the whole graph replicated on every DPU
// (no sharded traversal), one DPU per query (parallelism across queries, not
// within one), and no WRAM caching of hot nodes — are deliberate: each favors
// neither backend's phase accounting but understates what a tuned real
// implementation of either could do.
package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/topk"
	"drimann/internal/upmem"
	"drimann/internal/vecmath"
)

// alpha is the robust-prune slack (Vamana's alpha >= 1).
const alpha = 1.2

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

	// NumDPUs sizes the simulated PIM system; default 64.
	NumDPUs int
	// BatchSize is the scheduling batch (and MaxBatch); default 256.
	BatchSize int
	// Workers bounds goroutine parallelism of the query simulation
	// (results are identical for any value); default GOMAXPROCS. The build
	// always runs its two stages, which interleave on one core.
	Workers int

	// mramBytes overrides per-DPU MRAM capacity (default 64 MB); the MRAM
	// overflow test shrinks it.
	mramBytes int
}

// DefaultOptions returns the default graph-backend configuration: the zero
// Options with its defaults filled in.
func DefaultOptions() Options {
	var o Options
	o.defaults()
	return o
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
	if o.NumDPUs <= 0 {
		o.NumDPUs = 64
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
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
	hop      []int32 // the expanded node's unvisited neighbours, in list order
	pass     vecmath.L2U8Rows
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
	if err := base.Check(base.D); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
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
	if e.opts.mramBytes > 0 {
		cfg.MRAMBytes = e.opts.mramBytes
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

// pruner is stage B's scratch, reused by every prune: the candidates' alpha
// bounds, a backlinked node's candidates and the distance pass.
type pruner struct {
	bound []int64
	cands []topk.Item[uint32]
	pass  vecmath.L2U8Rows
}

// build inserts points in ascending ID order, stage A (the candidate search)
// here and stage B (link) on a goroutine of its own, then sorts every list.
func (e *Engine) build() {
	n := e.base.N
	e.nbrs = make([][]int32, n)
	gate := make([]atomic.Int32, n)
	// The gates keep stage A in step; the queue only lets it run on while
	// stage B links, and free holds every buffer, so a return never blocks.
	jobs := make(chan []topk.Item[uint32], 64)
	free := make(chan []topk.Item[uint32], cap(jobs)+2)
	go func() {
		defer close(free)
		var pr pruner
		for i := int32(1); ; {
			select {
			case cands, ok := <-jobs:
				if !ok {
					return
				}
				e.link(&pr, gate, i, cands)
				free <- cands
				i++
			default: // polling: a parked stage B wakes tens of µs after a hand-off
				runtime.Gosched()
			}
		}
	}()
	sc := &searchScratch{
		visited:  make([]uint32, n),
		pool:     make([]topk.Item[uint32], 0, 2*e.opts.BuildBeam+1),
		expanded: make([]bool, 0, 2*e.opts.BuildBeam+1),
	}
	for i := int32(1); i < int32(n); i++ { // node 0 starts the graph, with no edges to make
		entry := int32(0) // the medoid once it is in the graph, node 0 before
		if e.medoid < i {
			entry = e.medoid
		}
		var cands []topk.Item[uint32]
		select {
		case cands = <-free:
		default:
		}
		// The candidates: the 2*BuildBeam nearest evaluated, sorted ascending —
		// the Vamana visited set, cut to what pruning uses.
		e.beamSearch(sc, e.base.Vec(int(i)), entry, e.opts.BuildBeam, 2*e.opts.BuildBeam, gate)
		cands = append(cands[:0], sc.pool...)
		for _, c := range cands {
			gate[c.ID].Add(1)
		}
		gate[i].Add(1)
		jobs <- cands
	}
	close(jobs)
	for range free { // until stage B is done
	}
	// Canonical adjacency order: ascending node ID per list. Traversal
	// visits every neighbor regardless of order; a fixed order makes the
	// structure (and every downstream result) reproducible byte-for-byte.
	for _, nb := range e.nbrs {
		slices.Sort(nb)
	}
}

// link is stage B for point i: robust pruning picks i's out-list from its
// candidates, and backlinks are re-pruned under the degree bound. A gate is
// lowered once its list is final: an unpicked candidate's at once, i's once
// its list is written, a picked node's after its backlink.
func (e *Engine) link(pr *pruner, gate []atomic.Int32, i int32, cands []topk.Item[uint32]) {
	// A duplicate vector is a distance-0 candidate; the point itself never
	// appears: it is not in the graph yet. The list has room for a backlink.
	e.nbrs[i] = e.robustPrune(pr, i, cands, make([]int32, 0, e.opts.Degree+1))
	picked, p := e.nbrs[i], 0
	for _, c := range cands { // the picks are a subsequence of cands
		if p < len(picked) && c.ID == picked[p] {
			p++
			continue
		}
		gate[c.ID].Add(-1)
	}
	gate[i].Add(-1)
	for _, j := range picked {
		e.addBacklink(pr, j, i)
		gate[j].Add(-1)
	}
}

// addBacklink adds `from` to j's out-list, re-pruning when the degree
// bound overflows.
func (e *Engine) addBacklink(pr *pruner, j, from int32) {
	if slices.Contains(e.nbrs[j], from) {
		return
	}
	e.nbrs[j] = append(e.nbrs[j], from)
	if len(e.nbrs[j]) <= e.opts.Degree {
		return
	}
	qj, nb, m := e.base.Vec(int(j)), e.nbrs[j], uint32(math.MaxUint32)
	pr.cands = pr.cands[:0]
	for lo := 0; lo < len(nb); lo += 8 {
		pr.pass.Run(qj, e.base.Data, nb[lo:min(lo+8, len(nb))], &[8]uint32{m, m, m, m, m, m, m, m})
		for r, x := range nb[lo:min(lo+8, len(nb))] {
			d, _ := pr.pass.At(r, m)
			pr.cands = append(pr.cands, topk.Item[uint32]{ID: x, Dist: d})
		}
	}
	topk.SortItems(pr.cands)
	e.nbrs[j] = e.robustPrune(pr, j, pr.cands, e.nbrs[j][:0])
}

// robustPrune appends to out up to Degree neighbors for p from cands (sorted
// ascending by (dist, id)): greedily keep the nearest candidate, then
// discard any candidate alpha-dominated by a kept one (alpha * d(kept, c)
// <= d(p, c)), Vamana's diversity rule that keeps a few long-range edges.
// That test is d(kept, c) <= pruneBound(alpha, d(p, c)), so after each pick
// the live candidates after it run eight a pass, each abandoned once it
// passes its own bound. out may share storage with the list cands was read
// from.
func (e *Engine) robustPrune(pr *pruner, p int32, cands []topk.Item[uint32], out []int32) []int32 {
	const dead = math.MinInt64 // picked, pruned, or p itself
	bound := slices.Grow(pr.bound[:0], len(cands))[:len(cands)]
	pr.bound = bound
	for i, c := range cands {
		bound[i] = dead
		if c.ID != p {
			bound[i] = pruneBound(alpha, c.Dist)
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
		for i := pick + 1; i < len(cands); {
			ids, at, b, n := [8]int32{}, [8]int{}, [8]uint32{}, 0
			for ; i < len(cands) && n < 8; i++ {
				if bound[i] >= 0 { // neither dead nor beyond every distance
					ids[n], at[n], b[n] = cands[i].ID, i, uint32(bound[i])
					n++
				}
			}
			if n == 0 {
				break
			}
			pr.pass.Run(vk, e.base.Data, ids[:n], &b)
			for r, i := range at[:n] {
				if d, _ := pr.pass.At(r, b[r]); int64(d) <= bound[i] {
					bound[i] = dead
				}
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

// beamStats counts the simulated work of one traversal.
type beamStats struct {
	hops   int // nodes expanded (adjacency-list fetches)
	evals  int // distance evaluations (vector fetches)
	dims   int // dimensions summed over all evaluations
	checks int // partial sums compared against the beam's worst
	probes int // evaluations that reached the pool probe
}

// beamSearch is the greedy best-first traversal: keep a pool of the `width`
// nearest visited nodes, repeatedly expand the nearest unexpanded one of its
// first `beam`, stop when those are all expanded. The final pool is sorted
// ascending (dist, id). A query's pool is its beam; the build's is twice
// that, the candidates it collects, whose first `beam` are the beam: an item
// leaves the beam only for a nearer one, so it never comes back.
//
// A hop's unvisited neighbours run eight a pass at the bound that stands when
// the pass starts, then each is read at the bound of its turn, in list order:
// once the pool is full, a distance is abandoned after the first block that
// sums strictly above the pool's worst, which insert would reject; a tie,
// which the id decides, is never abandoned. The bound only falls, so every
// turn's answer is in the pass's block sums. The abandoned candidate was
// still fetched and stays visited. With gate (the build), a list is read only
// once no pending link writes it.
func (e *Engine) beamSearch(sc *searchScratch, q []uint8, entry int32, beam, width int, gate []atomic.Int32) beamStats {
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
		if lo >= width {
			return
		}
		sc.pool = append(sc.pool, topk.Item[uint32]{})
		sc.expanded = append(sc.expanded, false)
		copy(sc.pool[lo+1:], sc.pool[lo:])
		copy(sc.expanded[lo+1:], sc.expanded[lo:])
		sc.pool[lo] = it
		sc.expanded[lo] = false
		if len(sc.pool) > width {
			sc.pool = sc.pool[:width]
			sc.expanded = sc.expanded[:width]
		}
	}
	// limit is the pool's worst once it is full, MaxUint32 before.
	limit := func() (uint32, bool) {
		if len(sc.pool) < width {
			return math.MaxUint32, false
		}
		return sc.pool[width-1].Dist, true
	}
	sc.visited[entry] = sc.epoch
	sc.hop = append(sc.hop[:0], entry)
	for {
		for lo := 0; lo < len(sc.hop); lo += 8 {
			ids := sc.hop[lo:min(lo+8, len(sc.hop))]
			b, _ := limit()
			sc.pass.Run(q, e.base.Data, ids, &[8]uint32{b, b, b, b, b, b, b, b})
			for r, id := range ids {
				st.evals++
				bound, bounded := limit()
				it := topk.Item[uint32]{ID: id}
				var dims int
				it.Dist, dims = sc.pass.At(r, bound)
				st.dims += dims
				if bounded {
					st.checks += (dims + vecmath.AbandonStride - 1) / vecmath.AbandonStride
					if it.Dist > bound {
						continue
					}
				}
				st.probes++
				insert(it)
			}
		}
		next := slices.Index(sc.expanded[:min(beam, len(sc.expanded))], false)
		if next < 0 {
			break
		}
		sc.expanded[next] = true
		node := sc.pool[next].ID
		st.hops++
		for gate != nil && gate[node].Load() != 0 {
			runtime.Gosched()
		}
		sc.hop = sc.hop[:0]
		for _, nb := range e.nbrs[node] {
			if sc.visited[nb] != sc.epoch {
				sc.visited[nb] = sc.epoch
				sc.hop = append(sc.hop, nb)
			}
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

// Options reports the engine's resolved configuration.
func (e *Engine) Options() Options { return e.opts }

// WithSearchOptions builds an engine over the same built graph with
// query-time options modified by mod: SearchBeam, K, BatchSize, NumDPUs
// and Workers may change; the build-time shape (Degree, BuildBeam)
// is pinned to the existing graph. This is what lets a
// recall-vs-QPS sweep reuse one expensive build across beam widths.
func (e *Engine) WithSearchOptions(mod func(*Options)) (*Engine, error) {
	opts := e.opts
	mod(&opts)
	opts.defaults()
	opts.Degree, opts.BuildBeam = e.opts.Degree, e.opts.BuildBeam
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
