package core

import (
	"math"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/ivf"
	"drimann/internal/sched"
	"drimann/internal/upmem"
)

// The per-op reference accountant: the oracle the engine's batched tally is
// checked against. It walks the same stages as scanGroup, but every simulated
// instruction and DMA is charged to the DPU at the point it happens, the LC
// kernel runs literally and DC gathers from the sparse LUT it left, point by
// point. The tally must reproduce its results and metrics exactly.

// reference makes e the per-op reference: its group scans run scanGroupRef,
// on the LUTs the over-budget fallback materializes with IntCodebooks.LUTInt
// (LUTIntMul without the SQT) — values that do not come from the decomposed
// builder the engine gathers from. Replicas, and the ones Compact measures
// the share table on, inherit both.
func reference(e *Engine) {
	e.lut = nil
	e.kernel = (*Engine).scanGroupRef
}

// newEngine deploys ix with o, as the per-op reference when ref is set.
func newEngine(t testing.TB, ix *ivf.Index, profile dataset.U8Set, o Options, ref bool) *Engine {
	t.Helper()
	e, err := New(ix, profile, o)
	if err != nil {
		t.Fatal(err)
	}
	if ref {
		reference(e)
	}
	return e
}

// scanGroupRef is scanGroup's stage walk with the per-op kernels.
func (e *Engine) scanGroupRef(dpu *upmem.DPU, sc *dpuScratch, group []sched.Task, bi int, bound uint32) {
	ix := e.ix
	n, bound := e.loadGroup(sc, group, bound)
	dpu.ChargeCycles(upmem.PhaseRC, e.rcCycles())
	dpu.DMA(upmem.PhaseRC, uint64(ix.Dim)) // centroid bytes (uint8)
	order := e.groups.order[bi*ix.M : (bi+1)*ix.M]
	for lo := 0; lo < ix.M && len(sc.alive) > 0; lo += stageWidth {
		subs := order[lo:min(lo+stageWidth, ix.M)]
		e.chargeLCRef(dpu, sc, subs, bi)
		e.kernelDCRef(dpu, sc, subs, lo == 0)
		sc.prune(bound)
	}
	sc.stats.pruned += uint64(n - len(sc.alive))
	e.kernelTSRef(dpu, sc)
}

// chargeLCRef is the per-op reference twin of chargeLC: it runs the stage
// literally. Every surviving point's real codes of subspaces subs are marked,
// segment by segment; the bitmap scan walks the marked runs, issuing one
// codebook DMA per run and copying only marked entries from the group's full
// LUT (the fallback's LUTInt values) into the DPU's LUT, whose rows for the stage
// are poisoned first — DC gathers from that LUT, so an entry the kernel
// failed to build corrupts the answers.
func (e *Engine) chargeLCRef(dpu *upmem.DPU, sc *dpuScratch, subs []uint16, bi int) {
	ix := e.ix
	lutLen := ix.M * ix.CB
	full := e.groups.lut[bi*lutLen : (bi+1)*lutLen]
	if sc.lut == nil {
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
	var entries uint64
	rowBytes := uint64(ix.Dim / ix.M * 2)
	markedRuns(sc.marks, subs, ix.CB, func(m, lo, hi int) {
		dpu.DMA(upmem.PhaseLC, uint64(hi-lo)*rowBytes) // marked codebook rows (int16)
		copy(sc.lut[m*ix.CB+lo:m*ix.CB+hi], full[m*ix.CB+lo:m*ix.CB+hi])
		entries += uint64(hi - lo)
	})
	sc.stats.lutEntries += entries
	cycles, mram := e.lcCosts(len(subs), entries)
	dpu.ChargeCycles(upmem.PhaseLC, cycles)
	for _, n := range mram {
		dpu.RandomAccess(upmem.PhaseLC, n)
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

// kernelTSRef is the per-op reference twin of kernelTS: the top-k update per
// surviving point, the shared-heap lock taken only by the points the bound
// accepts, each cost charged as it is simulated.
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
			if (sg.tomb == nil || !sg.tomb[id]) && h.WouldAccept(id, dist) {
				st.lockAcquired++
				dpu.ChargeCycles(upmem.PhaseTS, lockCycles)
				h.Push(id, dist)
				dpu.Charge(upmem.PhaseTS, upmem.OpCmp, logK)
				dpu.Charge(upmem.PhaseTS, upmem.OpStore, logK)
			} else {
				st.lockSkipped++
			}
			dpu.Charge(upmem.PhaseTS, upmem.OpCmp, 1) // bound comparison per point
		}
	}
}
