// The DPU kernels: the bound-forwarded staged scan of one (query, cluster)
// group (see the package doc), in the batched-tally form the engine runs and
// in the per-op reference form that checks it.

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

// runDPUBlock advances one DPU's kernel execution through every group in
// [gLo, gHi), scanning each with its query's forwarded bound. The cursor in
// the DPU scratch carries the run across blocks of the same launch. On the
// batched-tally path every simulated cost accumulates in the scratch tally,
// flushed to the DPU once per block.
func (e *Engine) runDPUBlock(d int, tasks []sched.Task, gLo, gHi int, bounds []uint32) {
	sc := &e.scratch[d]
	dpu := e.sys.DPUs[d]
	for sc.taskPos < len(tasks) {
		gi := int(sc.groupIx[sc.taskPos])
		if gi >= gHi {
			break
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
			e.scanGroup(dpu, sc, group, gi-gLo, bounds[q])
		} else {
			e.recordScan(dpu, sc, group, gi-gLo, bounds[q])
		}
	}
	dpu.ApplyTally(&sc.tally)
	sc.tally.Reset()
}

// scanGroup runs the staged scan of one group on one DPU: group is the DPU's
// co-located tasks of the (query, cluster) pair, bi its block index, bound the
// query's forwarded bound. Up to two segments per task are scanned: the
// slice's base points and, on the slice that starts the cluster (slicing
// always begins at 0, so exactly one task per group carries it), the live
// append segment. Base-list tombstones filter in the TS accept pass while the
// physically-scanned points still charge every stage they survive.
//
// Options.PerOpAccounting swaps in the per-op reference kernels (the ...Ref
// functions) on the same stage walk: every instruction and DMA is charged to
// the DPU at the point it happens, the LC kernel runs literally and DC
// gathers from the sparse LUT it left, point by point. The tally path must
// reproduce the reference's results and metrics exactly.
func (e *Engine) scanGroup(dpu *upmem.DPU, sc *dpuScratch, group []sched.Task, bi int, bound uint32) {
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

	perOp := e.opts.PerOpAccounting
	if perOp {
		dpu.ChargeCycles(upmem.PhaseRC, e.rcCycles())
		dpu.DMA(upmem.PhaseRC, uint64(ix.Dim)) // centroid bytes (uint8)
	} else {
		sc.tally.ChargeCycles(upmem.PhaseRC, e.rcCycles())
		sc.tally.DMA(upmem.PhaseRC, uint64(ix.Dim))
	}
	order := e.groups.order[bi*ix.M : (bi+1)*ix.M]
	// Without a bound nothing can be pruned, and the tally path (whose values
	// need not come stage by stage) sums whole distances in one pass.
	whole := !perOp && bound == math.MaxUint32
	if whole {
		e.gather(sc, order, c, bi)
	}
	for lo := 0; lo < ix.M && len(sc.alive) > 0; lo += stageWidth {
		subs := order[lo:min(lo+stageWidth, ix.M)]
		if perOp {
			e.chargeLCRef(dpu, sc, subs, bi)
			e.kernelDCRef(dpu, sc, subs, lo == 0)
		} else {
			e.chargeLC(&sc.tally, dpu, sc, group, subs, bi, len(sc.alive) == n)
			if !whole {
				e.gather(sc, subs, c, bi)
			}
			e.chargeDC(&sc.tally, sc, len(subs), lo == 0)
		}
		sc.prune(bound)
	}
	sc.stats.pruned += uint64(n - len(sc.alive))
	if perOp {
		e.kernelTSRef(dpu, sc)
	} else {
		e.kernelTS(&sc.tally, sc)
	}
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
	c := &e.sys.Cfg.Cost
	if e.opts.UseSQT {
		return c.AddCycles + c.LoadCycles + e.opts.SQTAccessCycles
	}
	return c.MulCycles
}

// rcCycles prices the residual-calculation kernel (paper Equations 4-5) plus
// the staged scan's subspace ordering: D subtractions, then per element a
// load, an absolute value and an accumulate for the M subspace magnitudes,
// and an M-key sort of them. The values themselves are computed once per
// group in buildGroups; every DPU running the group is still charged as if it
// ran the kernel privately, as the hardware would.
func (e *Engine) rcCycles() uint64 {
	c := &e.sys.Cfg.Cost
	n, m := uint64(e.ix.Dim), uint64(e.ix.M)
	return n*(2*c.LoadCycles+c.AddCycles+c.StoreCycles) + n*(c.LoadCycles+2*c.AddCycles) +
		m*uint64(engine.Log2Ceil(e.ix.M))*(c.CmpCycles+c.StoreCycles)
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
// subtract, square, accumulate — and stored. SQT16 cold lookups hit the MRAM tier, as does the
// whole SQT without the WRAM buffer and the LUT when it does not fit WRAM.
func (e *Engine) lcCosts(w int, entries, cold uint64) (cycles uint64, mram [3]uint64) {
	c := &e.sys.Cfg.Cost
	elems := entries * uint64(e.ix.Dim/e.ix.M)
	perElem := 2*c.AddCycles + c.LoadCycles + e.squareCycles() // subtract, accumulate, codebook element load
	if e.opts.UseSQT {
		mram[0] = cold
		if !e.opts.UseWRAM {
			mram[1] = elems - cold
		}
	}
	if !e.lutInWRAM {
		mram[2] = entries
	}
	cycles = uint64(max(w, e.opts.Tasklets)*e.markWords32())*(c.StoreCycles+c.LoadCycles+c.CmpCycles) +
		entries*(c.AddCycles+c.CmpCycles+c.StoreCycles) + elems*perElem
	return cycles, mram
}

// replayCold replays the SQT16 diff stream of the marked rows of subspaces
// subs through count (a table's CountColdRow or ColdCountRow) and totals the
// cold lookups.
func (e *Engine) replayCold(count func(res, entry []int16) uint64, res []int16, bm []uint64, subs []uint16) (cold uint64) {
	ix := e.ix
	dsub := ix.Dim / ix.M
	markedRuns(bm, subs, ix.CB, func(m, lo, hi int) {
		for c := lo; c < hi; c++ {
			cold += count(res[m*dsub:(m+1)*dsub], ix.IntCB.Entry(m, c))
		}
	})
	return cold
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
// group, bi its block index. With every point of a single slice alive (full)
// the entry and run counts come from the slice's cached demand; a pruned
// population, a group spanning several slices (their union is not cached) and
// the SQT16 replay (which needs the marked rows themselves, and runs against
// a shared table per the geometry invariant) mark the scratch bitmap here.
func (e *Engine) chargeLC(ta *upmem.Tally, dpu *upmem.DPU, sc *dpuScratch, group []sched.Task, subs []uint16, bi int, full bool) {
	ix := e.ix
	w := uint64(len(subs))
	segs, points := sc.liveSegments()
	ta.ChargeCycles(upmem.PhaseLC, uint64(len(sc.alive))*w*markCyclesPerCode)
	ta.DMAs(upmem.PhaseLC, segs*w, points*w*e.codeElemBytes()) // code columns, first stream

	var ref sliceRef
	var cold uint64
	if full && len(group) == 1 && e.sqt16 == nil {
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
		if e.sqt16 != nil {
			cold = e.replayCold(e.sqt16[0].ColdCountRow, e.groups.res[bi*ix.Dim:(bi+1)*ix.Dim], sc.marks, subs)
		}
	}
	entries := uint64(ref.need)
	elems := entries * uint64(ix.Dim/ix.M)
	if e.sqt16 != nil {
		e.sqt16[dpu.ID].AddStats(elems-cold, cold)
	}
	sc.stats.lutEntries += entries
	cycles, mram := e.lcCosts(len(subs), entries, cold)
	ta.ChargeCycles(upmem.PhaseLC, cycles)
	for _, n := range mram {
		ta.RandomAccess(upmem.PhaseLC, n)
	}
	ta.DMAs(upmem.PhaseLC, uint64(ref.runs), 2*elems) // marked codebook rows (int16), one DMA per run
}

// chargeLCRef is the per-op reference twin of chargeLC: it runs the stage
// literally. Every surviving point's real codes of subspaces subs are marked,
// segment by segment; the bitmap scan walks the marked runs, issuing one
// codebook DMA per run and copying only marked entries from the group's full
// LUT (the functional values) into the DPU's LUT, whose rows for the stage
// are poisoned first — DC gathers from that LUT, so an entry the kernel
// failed to build corrupts the answers. In SQT16 mode the marked rows' diff
// stream replays privately against this DPU's tiered table.
func (e *Engine) chargeLCRef(dpu *upmem.DPU, sc *dpuScratch, subs []uint16, bi int) {
	ix := e.ix
	lutLen := ix.M * ix.CB
	full := e.groups.lut[bi*lutLen : (bi+1)*lutLen]
	if sc.marks == nil {
		sc.marks, sc.lut = e.newMarks(), make([]uint32, lutLen)
	}
	wordsPer := markWordsPer(ix.CB)
	for _, s := range subs {
		clear(e.markRow(sc.marks, int(s)))
		row := sc.lut[int(s)*ix.CB : (int(s)+1)*ix.CB]
		for i := range row {
			row[i] = math.MaxUint32
		}
	}
	for i := range sc.segs {
		sg := &sc.segs[i]
		if sg.hi == sg.lo {
			continue
		}
		dpu.ChargeCycles(upmem.PhaseLC, uint64((sg.hi-sg.lo)*len(subs))*markCyclesPerCode)
		for _, s := range subs {
			dpu.DMA(upmem.PhaseLC, uint64(len(sg.ids))*e.codeElemBytes()) // code column, first stream
			for _, p := range sc.alive[sg.lo:sg.hi] {
				c := sg.codes[int(p)*ix.M+int(s)]
				sc.marks[int(s)*wordsPer+int(c>>6)] |= 1 << (c & 63)
			}
		}
	}
	var entries, cold uint64
	rowBytes := uint64(ix.Dim / ix.M * 2)
	markedRuns(sc.marks, subs, ix.CB, func(m, lo, hi int) {
		dpu.DMA(upmem.PhaseLC, uint64(hi-lo)*rowBytes) // marked codebook rows (int16)
		copy(sc.lut[m*ix.CB+lo:m*ix.CB+hi], full[m*ix.CB+lo:m*ix.CB+hi])
		entries += uint64(hi - lo)
	})
	if e.sqt16 != nil {
		cold = e.replayCold(e.sqt16[dpu.ID].CountColdRow, e.groups.res[bi*ix.Dim:(bi+1)*ix.Dim], sc.marks, subs)
	}
	sc.stats.lutEntries += entries
	cycles, mram := e.lcCosts(len(subs), entries, cold)
	dpu.ChargeCycles(upmem.PhaseLC, cycles)
	for _, n := range mram {
		dpu.RandomAccess(upmem.PhaseLC, n)
	}
}

// gather adds the LUT entries of subspaces subs to the surviving points'
// partial distances — LUT-free on the algebraic path, from the group's
// materialized LUT otherwise. c is the group's cluster, bi its block index.
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
		if e.algebraic {
			p := g.p[bi*ix.M : (bi+1)*ix.M]
			var base int32
			for _, s := range subs {
				base += p[s]
			}
			qe := g.qe[int(g.qeSlot[sc.curQ])*lutLen:][:lutLen]
			vecmath.ADCResidualPartial(part, qe, e.lut.ClusterTerms(c), sg.codes, rows, subs, base, ix.M, ix.CB)
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
	cost := &e.sys.Cfg.Cost
	a, w := uint64(len(sc.alive)), uint64(subspaces)
	segs, points := sc.liveSegments()
	sc.stats.codes += a * w
	adds := a * w
	if first {
		adds -= a
	}
	ta.Charge(cost, upmem.PhaseDC, upmem.OpLoad, a*w) // code element loads
	ta.Charge(cost, upmem.PhaseDC, upmem.OpLoad, a*w) // LUT gathers
	ta.Charge(cost, upmem.PhaseDC, upmem.OpAdd, adds)
	ta.ChargeCycles(upmem.PhaseDC, a*pruneCyclesPerPoint)
	ta.DMAs(upmem.PhaseDC, segs*w, points*w*e.codeElemBytes()) // code columns, second stream
	if !e.opts.UseWRAM || !e.lutInWRAM {
		ta.RandomAccess(upmem.PhaseDC, a*w) // LUT gathers hit MRAM
	}
}

// kernelDCRef is the per-op reference twin of gather + chargeDC: per surviving
// point, the gathers from the DPU's sparse LUT, the adds and the prune
// compare, each charged as it is simulated.
func (e *Engine) kernelDCRef(dpu *upmem.DPU, sc *dpuScratch, subs []uint16, first bool) {
	ix := e.ix
	w := uint64(len(subs))
	for i := range sc.segs {
		sg := &sc.segs[i]
		if sg.hi == sg.lo {
			continue
		}
		for range subs {
			dpu.DMA(upmem.PhaseDC, uint64(len(sg.ids))*e.codeElemBytes()) // code column, second stream
		}
		for k := sg.lo; k < sg.hi; k++ {
			code := sg.codes[int(sc.alive[k])*ix.M:][:ix.M]
			for _, s := range subs {
				sc.part[k] += sc.lut[int(s)*ix.CB+int(code[s])]
			}
			dpu.Charge(upmem.PhaseDC, upmem.OpLoad, w) // code element loads
			dpu.Charge(upmem.PhaseDC, upmem.OpLoad, w) // LUT gathers
			if first {
				dpu.Charge(upmem.PhaseDC, upmem.OpAdd, w-1)
			} else {
				dpu.Charge(upmem.PhaseDC, upmem.OpAdd, w)
			}
			dpu.ChargeCycles(upmem.PhaseDC, pruneCyclesPerPoint)
			sc.stats.codes += w
		}
	}
	if !e.opts.UseWRAM || !e.lutInWRAM {
		dpu.RandomAccess(upmem.PhaseDC, uint64(len(sc.alive))*w) // LUT gathers hit MRAM
	}
}

// bitonicSwaps is the compare-exchange count of a bitonic sorting network
// over n candidates: size/2 per column, log(size)*(log(size)+1)/2 columns.
func bitonicSwaps(n int) uint64 {
	if n < 2 {
		return 0
	}
	logSize := uint64(engine.Log2Ceil(n))
	return (uint64(1) << logSize) / 2 * logSize * (logSize + 1) / 2
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

	cost := &e.sys.Cfg.Cost
	n := uint64(len(sc.alive))
	logK := uint64(engine.Log2Ceil(e.opts.K))
	st := &sc.stats
	switch {
	case e.opts.UseBitonicTS:
		// No shared queue, no per-accept heap updates.
		swaps := bitonicSwaps(len(sc.alive))
		ta.Charge(cost, upmem.PhaseTS, upmem.OpCmp, swaps)
		ta.Charge(cost, upmem.PhaseTS, upmem.OpStore, swaps/2)
	case e.opts.UseLockPruning:
		st.lockAcquired += accepts
		st.lockSkipped += n - accepts
		ta.ChargeCycles(upmem.PhaseTS, accepts*e.opts.LockCycles)
		ta.Charge(cost, upmem.PhaseTS, upmem.OpCmp, accepts*logK)
		ta.Charge(cost, upmem.PhaseTS, upmem.OpStore, accepts*logK)
	default:
		st.lockAcquired += n
		ta.ChargeCycles(upmem.PhaseTS, n*e.opts.LockCycles)
		ta.Charge(cost, upmem.PhaseTS, upmem.OpCmp, accepts*logK)
		ta.Charge(cost, upmem.PhaseTS, upmem.OpStore, accepts*logK)
	}
	ta.Charge(cost, upmem.PhaseTS, upmem.OpCmp, n) // bound comparison per point
	segs, points := sc.liveSegments()
	ta.DMAs(upmem.PhaseDC, segs, 4*points) // id columns
}

// kernelTSRef is the per-op reference twin of kernelTS: the top-k update per
// surviving point with the shared-heap lock and optional lock pruning, each
// cost charged as it is simulated.
func (e *Engine) kernelTSRef(dpu *upmem.DPU, sc *dpuScratch) {
	h := sc.curHeap
	st := &sc.stats
	logK := uint64(engine.Log2Ceil(e.opts.K))
	for i := range sc.segs {
		sg := &sc.segs[i]
		if sg.hi == sg.lo {
			continue
		}
		dpu.DMA(upmem.PhaseDC, uint64(4*len(sg.ids))) // id column
		for k := sg.lo; k < sg.hi; k++ {
			id, dist := sg.ids[sc.alive[k]], sc.part[k]
			accept := (sg.tomb == nil || !sg.tomb[id]) && h.WouldAccept(id, dist)
			switch {
			case e.opts.UseBitonicTS:
				// Lock-free network: no shared queue, costs charged in bulk
				// below.
			case e.opts.UseLockPruning:
				if accept {
					st.lockAcquired++
					dpu.ChargeCycles(upmem.PhaseTS, e.opts.LockCycles)
				} else {
					st.lockSkipped++
				}
			default:
				st.lockAcquired++
				dpu.ChargeCycles(upmem.PhaseTS, e.opts.LockCycles)
			}
			if accept {
				h.Push(id, dist)
				if !e.opts.UseBitonicTS {
					dpu.Charge(upmem.PhaseTS, upmem.OpCmp, logK)
					dpu.Charge(upmem.PhaseTS, upmem.OpStore, logK)
				}
			}
			dpu.Charge(upmem.PhaseTS, upmem.OpCmp, 1) // bound comparison per point
		}
	}
	if e.opts.UseBitonicTS {
		swaps := bitonicSwaps(len(sc.alive))
		dpu.Charge(upmem.PhaseTS, upmem.OpCmp, swaps)
		dpu.Charge(upmem.PhaseTS, upmem.OpStore, swaps/2)
	}
}
