// The DPU kernels: the bound-forwarded staged scan of one (query, cluster)
// group (see the package doc), its costs batched in the DPU's tally.

package core

import (
	"math"

	"drimann/internal/engine"
	"drimann/internal/perfmodel"
	"drimann/internal/sched"
	"drimann/internal/upmem"
	"drimann/internal/vecmath"
)

const (
	// stageWidth is the number of subspaces a staged scan sums between two
	// prune passes, and waveFill sizes the first wave of a scheduling batch:
	// a query's leading probes are scheduled ahead of the rest until their
	// lists hold waveFill x K live points, enough for the k-th best of them to
	// be a useful bound on the rest (see the package doc). The performance
	// model predicts with the same two.
	stageWidth = perfmodel.StageWidth
	waveFill   = perfmodel.WaveFill
	// markCyclesPerCode is the LC mark pass per code element: load the code,
	// derive word index, bit index and mask, then load, or and store the
	// bitmap word (2 loads, 4 ALU ops, 1 store).
	markCyclesPerCode = 7
	// pruneCyclesPerPoint is the prune pass per surviving point and stage:
	// load the point's index, compare its partial sum with the bound, store
	// index and sum at the compacted position.
	pruneCyclesPerPoint = 4
	// lockCycles is the cost of one shared-heap lock acquisition.
	lockCycles = 24
	// sqtAccessCycles is the per-lookup overhead of the squaring table beyond
	// the load itself (address generation, load-use stalls, WRAM port pressure
	// at 4-byte granularity) — the reason the paper's LC speedup is ~1.93x
	// rather than the naive 32x.
	sqtAccessCycles = 8
)

// sameGroup returns the leading tasks of a DPU's sorted task list that share
// the first one's (query, cluster): the co-located slices one scan serves.
func sameGroup(tasks []sched.Task) []sched.Task {
	n := 1
	for n < len(tasks) && tasks[n].Query == tasks[0].Query && tasks[n].Cluster == tasks[0].Cluster {
		n++
	}
	return tasks[:n]
}

// groupKernel scans one group on one DPU; scanGroup is the engine's.
type groupKernel func(e *Engine, dpu *upmem.DPU, sc *dpuScratch, group []sched.Task, bi int, bound uint32)

// runDPUBlock advances one DPU's kernel execution through every group in
// [gLo, gHi), scanning each with its query's forwarded bound. The cursor in
// the DPU scratch carries the run across blocks of the same launch. Every
// simulated cost of scanGroup accumulates in the scratch tally, flushed to the
// DPU once per block.
func (e *Engine) runDPUBlock(d int, tasks []sched.Task, gLo, gHi int, bounds []uint32) {
	sc := &e.scratch[d]
	dpu := e.sys.DPUs[d]
	scan := e.kernel
	if scan == nil {
		scan = (*Engine).scanGroup
	}
	g, lutLen := &e.groups, e.ix.M*e.ix.CB
	for ri := 0; sc.taskPos < len(tasks); {
		gi := int(sc.groupIx[sc.taskPos])
		if gi >= gHi {
			break
		}
		if e.lut != nil { // the gather table of gi's query run
			for int(g.runs[ri+1]) <= gi {
				ri++
			}
			sc.qe = g.qe[ri*lutLen : (ri+1)*lutLen]
		}
		group := sameGroup(tasks[sc.taskPos:])
		sc.taskPos += len(group)
		q := group[0].Query
		if q != sc.curQ {
			sc.curQ = q
			sc.curHeap = sc.nextHeap(e.opts.K)
			sc.results = append(sc.results, dpuQueryResult{q: q, h: sc.curHeap})
		}
		sc.stats.lutBuilds++
		sc.stats.lutReuses += uint64(len(group) - 1)
		if e.rec == nil {
			scan(e, dpu, sc, group, gi-gLo, bounds[q])
		} else {
			e.recordScan(scan, dpu, sc, group, gi-gLo, bounds[q])
		}
	}
	dpu.ApplyTally(&sc.tally)
	sc.tally.Reset()
}

// scanGroup runs the staged scan of one group on one DPU: group is the DPU's
// co-located tasks of the (query, cluster) pair, bi its block index, bound the
// query's forwarded bound. Per stage the LC kernel builds the entries the
// survivors reference, DC gathers them into the partial sums and the prune
// pass drops every point above the bound; TS takes the survivors of the last
// stage. Every cost goes to the DPU's tally, which the per-op reference (a
// test kernel on the same stage walk) must reproduce exactly.
func (e *Engine) scanGroup(dpu *upmem.DPU, sc *dpuScratch, group []sched.Task, bi int, bound uint32) {
	ix := e.ix
	n, bound := e.loadGroup(sc, group, bound)
	sc.tally.ChargeCycles(upmem.PhaseRC, e.rcCycles())
	sc.tally.DMA(upmem.PhaseRC, uint64(ix.Dim)) // centroid bytes (uint8)
	c := int(group[0].Cluster)
	order := e.groups.order[bi*ix.M : (bi+1)*ix.M]
	// Without a bound nothing can be pruned, and the values need not come
	// stage by stage: whole distances are summed in one pass.
	whole := bound == math.MaxUint32
	if whole {
		e.gather(sc, order, c, bi)
	}
	for lo := 0; lo < ix.M && len(sc.alive) > 0; lo += stageWidth {
		subs := order[lo:min(lo+stageWidth, ix.M)]
		e.chargeLC(&sc.tally, sc, group, subs, len(sc.alive) == n)
		if !whole {
			e.gather(sc, subs, c, bi)
		}
		e.chargeDC(&sc.tally, sc, len(subs), lo == 0)
		sc.prune(bound)
	}
	sc.stats.pruned += uint64(n - len(sc.alive))
	e.kernelTS(&sc.tally, sc)
}

// loadGroup readies the scratch for one group's scan and returns how many
// points it scans and the bound it scans them under. Up to two segments per
// task are scanned: the slice's base points and, on the slice that starts the
// cluster (slicing always begins at 0, so exactly one task per group carries
// it), the live append segment. Base-list tombstones filter in the TS accept
// pass while the physically-scanned points still charge every stage they
// survive. The bound is the forwarded one, or the DPU's own heap threshold for
// the query where that is tighter.
func (e *Engine) loadGroup(sc *dpuScratch, group []sched.Task, bound uint32) (int, uint32) {
	ix := e.ix
	sc.segs = sc.segs[:0]
	n := 0
	addSeg := func(sg scanSegment) {
		if len(sg.ids) > 0 {
			sg.lo, sg.hi = n, n+len(sg.ids)
			n = sg.hi
			sc.segs = append(sc.segs, sg)
		}
	}
	c := int(group[0].Cluster)
	for _, t := range group {
		s := &e.pl.Slices[t.Slice]
		addSeg(scanSegment{
			ids:   ix.Lists[c][s.Start : s.Start+s.Count],
			codes: ix.Codes[c][s.Start*ix.M : (s.Start+s.Count)*ix.M],
			tomb:  ix.Tombstoned(c),
		})
		if s.Start == 0 {
			addSeg(scanSegment{ids: ix.AppendIDs(c), codes: ix.AppendCodes(c)})
		}
	}
	if cap(sc.alive) < n {
		sc.alive, sc.part = make([]int32, n), make([]uint32, n)
	}
	sc.alive, sc.part = sc.alive[:n], sc.part[:n]
	clear(sc.part)
	for i := range sc.segs {
		sg := &sc.segs[i]
		for k := sg.lo; k < sg.hi; k++ {
			sc.alive[k] = int32(k - sg.lo)
		}
	}
	sc.stats.points += uint64(n)
	if th, full := sc.curHeap.Threshold(); full && th < bound {
		bound = th
	}
	return n, bound
}

// prune compacts away every point whose partial distance is strictly above
// bound (a tie stays: the (distance, id) order decides it in TS), keeping
// each segment's survivors contiguous and in order.
func (sc *dpuScratch) prune(bound uint32) {
	if bound == math.MaxUint32 {
		return
	}
	alive, part := sc.alive, sc.part
	k := 0
	for i := range sc.segs {
		sg := &sc.segs[i]
		lo := k
		for j := sg.lo; j < sg.hi; j++ {
			// Store first, then advance on survival: k <= j, and survival is
			// a coin toss the branch predictor loses.
			p := part[j]
			alive[k], part[k] = alive[j], p
			if p <= bound {
				k++
			}
		}
		sg.lo, sg.hi = lo, k
	}
	sc.alive, sc.part = alive[:k], part[:k]
}

// liveSegments returns how many of the group's segments still hold a
// surviving point and how many points those segments hold in all: a pass over
// the survivors streams one column per subspace (or the id column) from each
// such segment, whole.
func (sc *dpuScratch) liveSegments() (segs, points uint64) {
	for i := range sc.segs {
		if sg := &sc.segs[i]; sg.hi > sg.lo {
			segs++
			points += uint64(len(sg.ids))
		}
	}
	return segs, points
}

// squareCycles is the cost of squaring one difference: with UseSQT |d| plus
// one table load, without it a multiply.
func (e *Engine) squareCycles() uint64 {
	if e.opts.UseSQT {
		return upmem.AddCycles + upmem.LoadCycles + sqtAccessCycles
	}
	return upmem.MulCycles
}

// rcCycles prices the residual-calculation kernel (paper Equations 4-5) plus
// the staged scan's subspace ordering: D subtractions, then per element a
// load, an absolute value and an accumulate for the M subspace magnitudes,
// and an M-key sort of them. The values themselves are computed once per
// group in buildGroups; every DPU running the group is still charged as if it
// ran the kernel privately, as the hardware would.
func (e *Engine) rcCycles() uint64 {
	n, m := uint64(e.ix.Dim), uint64(e.ix.M)
	return n*(2*upmem.LoadCycles+upmem.AddCycles+upmem.StoreCycles) + n*(upmem.LoadCycles+2*upmem.AddCycles) +
		m*uint64(engine.Log2Ceil(e.ix.M))*(upmem.CmpCycles+upmem.StoreCycles)
}

// markWords32 is the size of one subspace's WRAM mark bitmap row in the
// DPU's native 32-bit words.
func (e *Engine) markWords32() int { return (e.ix.CB + 31) / 32 }

// codeElemBytes is the width of one code element in MRAM.
func (e *Engine) codeElemBytes() uint64 { return uint64(e.codeBytes / e.ix.M) }

// lcCosts prices the scan-and-build half of one stage of the LC kernel
// (Equations 6-7 over the referenced entries) once its data-dependent counts
// are known: the instruction cycles, and the unbuffered MRAM access batches
// (zero where a mode has none). The bitmap rows of the stage — one per
// subspace, or per tasklet when those are more (they mark privately and
// merge) — are cleared, then scanned word by word; each marked entry is
// extracted, tested for run continuation, built from dsub elements —
// subtract, square, accumulate — and stored. The SQT without the WRAM buffer
// hits MRAM, as does the LUT when it does not fit WRAM.
func (e *Engine) lcCosts(w int, entries uint64) (cycles uint64, mram [2]uint64) {
	elems := entries * uint64(e.ix.Dim/e.ix.M)
	perElem := 2*upmem.AddCycles + upmem.LoadCycles + e.squareCycles() // subtract, accumulate, codebook element load
	if e.opts.UseSQT && !e.opts.UseWRAM {
		mram[0] = elems
	}
	if !e.lutInWRAM {
		mram[1] = entries
	}
	cycles = uint64(max(w, upmem.Tasklets)*e.markWords32())*(upmem.StoreCycles+upmem.LoadCycles+upmem.CmpCycles) +
		entries*(upmem.AddCycles+upmem.CmpCycles+upmem.StoreCycles) + elems*perElem
	return cycles, mram
}

// markAlive clears the bitmap rows of subspaces subs and marks in them the
// codes of every surviving point.
func (e *Engine) markAlive(sc *dpuScratch, subs []uint16) {
	m := e.ix.M
	for _, s := range subs {
		clear(e.markRow(sc.marks, int(s)))
	}
	wordsPer := markWordsPer(e.ix.CB)
	for i := range sc.segs {
		sg := &sc.segs[i]
		for _, p := range sc.alive[sg.lo:sg.hi] {
			code := sg.codes[int(p)*m:][:m]
			for _, s := range subs {
				c := code[s]
				sc.marks[int(s)*wordsPer+int(c>>6)] |= 1 << (c & 63)
			}
		}
	}
}

// chargeLC accounts one stage of the mark-then-build LC kernel (see the
// package doc) for one group on one DPU: the mark pass over the surviving
// points' codes of subspaces subs, then the scan of those bitmap rows and the
// build of the marked entries. group is the DPU's co-located tasks of the
// group. With every point of a single slice alive (full) the entry and run
// counts come from the slice's cached demand; a pruned population and a group
// spanning several slices (their union is not cached) mark the scratch bitmap
// here.
func (e *Engine) chargeLC(ta *upmem.Tally, sc *dpuScratch, group []sched.Task, subs []uint16, full bool) {
	ix := e.ix
	w := uint64(len(subs))
	segs, points := sc.liveSegments()
	ta.ChargeCycles(upmem.PhaseLC, uint64(len(sc.alive))*w*markCyclesPerCode)
	ta.DMAs(upmem.PhaseLC, segs*w, points*w*e.codeElemBytes()) // code columns, first stream

	var ref sliceRef
	if full && len(group) == 1 {
		cached := e.lc.bySlice[group[0].Slice*ix.M:][:ix.M]
		for _, s := range subs {
			ref.need += cached[s].need
			ref.runs += cached[s].runs
		}
	} else {
		if sc.marks == nil {
			sc.marks = e.newMarks()
		}
		e.markAlive(sc, subs)
		for _, s := range subs {
			r := countMarks(e.markRow(sc.marks, int(s)))
			ref.need += r.need
			ref.runs += r.runs
		}
	}
	entries := uint64(ref.need)
	elems := entries * uint64(ix.Dim/ix.M)
	sc.stats.lutEntries += entries
	cycles, mram := e.lcCosts(len(subs), entries)
	ta.ChargeCycles(upmem.PhaseLC, cycles)
	for _, n := range mram {
		ta.RandomAccess(upmem.PhaseLC, n)
	}
	ta.DMAs(upmem.PhaseLC, uint64(ref.runs), 2*elems) // marked codebook rows (int16), one DMA per run
}

// gather adds the LUT entries of subspaces subs to the surviving points'
// partial distances — LUT-free with the decomposed builder, from the group's
// materialized LUT on the over-budget fallback. c is the group's cluster, bi
// its block index.
func (e *Engine) gather(sc *dpuScratch, subs []uint16, c, bi int) {
	ix := e.ix
	g := &e.groups
	lutLen := ix.M * ix.CB
	for i := range sc.segs {
		sg := &sc.segs[i]
		part, rows := sc.part[sg.lo:sg.hi], sc.alive[sg.lo:sg.hi]
		if len(rows) == 0 {
			continue
		}
		if e.lut != nil {
			p := g.p[bi*ix.M : (bi+1)*ix.M]
			var base int32
			for _, s := range subs {
				base += p[s]
			}
			vecmath.ADCResidualPartial(part, sc.qe, e.lut.ClusterTerms(c), sg.codes, rows, subs, base, ix.M, ix.CB)
		} else {
			vecmath.ADCPartialU32(part, g.lut[bi*lutLen:(bi+1)*lutLen], sg.codes, rows, subs, ix.M, ix.CB)
		}
	}
}

// chargeDC accounts one stage of distance calculation (DC, Equations 8-9)
// over the surviving points and w subspaces in bulk: per point and subspace a
// code load, a LUT gather and an add (the first stage starts the sum, so it
// saves one add per point), the second stream of the code columns, and the
// prune pass that follows.
func (e *Engine) chargeDC(ta *upmem.Tally, sc *dpuScratch, subspaces int, first bool) {
	a, w := uint64(len(sc.alive)), uint64(subspaces)
	segs, points := sc.liveSegments()
	sc.stats.codes += a * w
	adds := a * w
	if first {
		adds -= a
	}
	ta.Charge(upmem.PhaseDC, upmem.OpLoad, a*w) // code element loads
	ta.Charge(upmem.PhaseDC, upmem.OpLoad, a*w) // LUT gathers
	ta.Charge(upmem.PhaseDC, upmem.OpAdd, adds)
	ta.ChargeCycles(upmem.PhaseDC, a*pruneCyclesPerPoint)
	ta.DMAs(upmem.PhaseDC, segs*w, points*w*e.codeElemBytes()) // code columns, second stream
	if !e.opts.UseWRAM || !e.lutInWRAM {
		ta.RandomAccess(upmem.PhaseDC, a*w) // LUT gathers hit MRAM
	}
}

// kernelTS runs the top-k accept pass (TS, Equations 10-11) over the points
// that survived every stage — their partial distances are now whole — against
// a register-cached bound (topk.Bound — the predicate is exactly
// Heap.WouldAccept, re-captured after each Push), then charges TS in bulk:
// locks and heap updates are counted during the scan and converted to cycles
// once, which is exact because every per-op charge is a uint64 product. The
// id column streams from every segment a survivor came from. Tombstoned
// base-list points are scanned (and charged) but never accepted.
func (e *Engine) kernelTS(ta *upmem.Tally, sc *dpuScratch) {
	h := sc.curHeap
	bound := h.Bound()
	var accepts uint64
	for i := range sc.segs {
		sg := &sc.segs[i]
		for k := sg.lo; k < sg.hi; k++ {
			id, dv := sg.ids[sc.alive[k]], sc.part[k]
			if bound.Accepts(id, dv) && (sg.tomb == nil || !sg.tomb[id]) {
				h.Push(id, dv)
				bound = h.Bound()
				accepts++
			}
		}
	}

	n := uint64(len(sc.alive))
	logK := uint64(engine.Log2Ceil(e.opts.K))
	sc.stats.lockAcquired += accepts
	sc.stats.lockSkipped += n - accepts
	ta.ChargeCycles(upmem.PhaseTS, accepts*lockCycles)
	ta.Charge(upmem.PhaseTS, upmem.OpCmp, accepts*logK)
	ta.Charge(upmem.PhaseTS, upmem.OpStore, accepts*logK)
	ta.Charge(upmem.PhaseTS, upmem.OpCmp, n) // bound comparison per point
	segs, points := sc.liveSegments()
	ta.DMAs(upmem.PhaseDC, segs, 4*points) // id columns
}
