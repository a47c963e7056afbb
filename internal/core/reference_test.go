package core

import (
	"math"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/ivf"
	"drimann/internal/perfmodel"
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

// markedRuns calls f(m, lo, hi) for every maximal run [lo, hi) of marked
// codes of every listed subspace, in ascending code order within a subspace —
// the order the kernel's bitmap scan meets them.
func markedRuns(bm []uint64, subs []uint16, cb int, f func(m, lo, hi int)) {
	marked := func(row []uint64, c int) bool { return row[c>>6]>>(c&63)&1 == 1 }
	for _, mi := range subs {
		row := bm[int(mi)*markWordsPer(cb):]
		for c := 0; c < cb; c++ {
			if lo := c; marked(row, c) {
				for c < cb && marked(row, c) {
					c++
				}
				f(int(mi), lo, c)
			}
		}
	}
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

// The deploy-time measurements as they ran before the profile was located
// once (Prepare): each located the queries it answered where it answered
// them. Deploy and ListCycles, handed the probes Prepare located, must
// reproduce both bit for bit.

// refShares is the share table calibrate measured on e's deployment: the flat
// table schedules a replica that locates the profile's first scheduling batch
// itself and answers it under the recorder. e's own table is left as it was.
func refShares(t testing.TB, e *Engine, profile dataset.U8Set) [ShareBins]float64 {
	t.Helper()
	kept := e.lc.share
	defer func() { e.lc.share = kept }()
	var cycles, price [ShareBins]float64
	copy(e.lc.share[:], perfmodel.FitShares(cycles[:], price[:], perfmodel.BoundedShare(e.ix.M)))
	n := min(profile.N, e.opts.BatchSize)
	rep, err := NewReplica(e)
	if err != nil {
		t.Fatal(err)
	}
	var scans []ScanSample
	rep.RecordScans(&scans)
	if _, err := rep.SearchBatch(dataset.U8Set{N: n, D: profile.D, Data: profile.Data[:n*profile.D]}); err != nil {
		t.Fatal(err)
	}
	for _, s := range scans {
		if s.Bound != math.MaxUint32 {
			b := ShareBin(s.Dist, s.Bound)
			cycles[b], price[b] = cycles[b]+s.Cycles, price[b]+s.Price
		}
	}
	var out [ShareBins]float64
	copy(out[:], perfmodel.FitShares(cycles[:], price[:], perfmodel.BoundedShare(e.ix.M)))
	return out
}

// refListCycles is ListCycles answering the profile on the pipelined path,
// which locates it again batch by batch.
func refListCycles(t testing.TB, ix *ivf.Index, profile dataset.U8Set, opts Options, shards int) []float64 {
	t.Helper()
	if opts.MRAMBytes <= 0 {
		opts.MRAMBytes = upmem.DefaultConfig(1).MRAMBytes
	}
	opts.MRAMBytes *= shards
	e, err := deploy(ix, profile, NewLocator(ix, opts).Probes(profile), ix.NewLUTBuilder(1), false, opts)
	if err != nil {
		t.Fatal(err)
	}
	var scans []ScanSample
	e.RecordScans(&scans)
	if _, err := e.SearchBatch(profile); err != nil {
		t.Fatal(err)
	}
	cycles := make([]float64, ix.NList)
	for _, s := range scans {
		cycles[s.Cluster] += s.Cycles
	}
	return cycles
}
