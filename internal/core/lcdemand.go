// Static LC demand of a deployment: the distinct LUT entries each placement
// slice's codes read and the codebook-row runs they form, which is all the
// mark-then-build LC kernel's cost depends on (see the package doc). Counted
// once at deployment, shared across replicas like bsum, refreshed by
// Insert/Delete (the touched cluster's starting slice, which carries the
// append segment) and Compact (the whole new layout); a launch never recounts.

package core

import (
	"math/bits"

	"drimann/internal/layout"
	"drimann/internal/perfmodel"
)

// sliceRef is one slice's LC demand.
type sliceRef struct {
	need uint32 // distinct (subspace, code) LUT entries the slice's codes read
	runs uint32 // contiguous runs of their codebook rows (one DMA each)
}

// lcDemand is the deployment-wide LC state shared by replica engines:
// updates go through the pointer so every engine of a deployment sees them.
type lcDemand struct {
	bySlice []sliceRef // indexed like Placement.Slices
	heat    []float64  // scheduler heat estimate by slice point count
}

// A mark bitmap holds one CB-bit row per subspace, padded to whole words:
// bit (m, code) says some scanned point has that code in subspace m.
func markWordsPer(cb int) int { return (cb + 63) / 64 }

func (e *Engine) newMarks() []uint64 { return make([]uint64, e.ix.M*markWordsPer(e.ix.CB)) }

// markCodes marks every code of a point-major packed code matrix.
func markCodes(bm []uint64, codes []uint16, m, wordsPer int) {
	for ; len(codes) >= m; codes = codes[m:] {
		for j, c := range codes[:m] {
			bm[j*wordsPer+int(c>>6)] |= 1 << (c & 63)
		}
	}
}

// markSlice marks the codes one task over slice s scans: the slice's base
// points plus, on the cluster-starting slice, the live append segment.
func (e *Engine) markSlice(bm []uint64, s *layout.Slice) {
	ix := e.ix
	wordsPer := markWordsPer(ix.CB)
	markCodes(bm, ix.Codes[s.Cluster][s.Start*ix.M:(s.Start+s.Count)*ix.M], ix.M, wordsPer)
	if s.Start == 0 {
		markCodes(bm, ix.AppendCodes(int(s.Cluster)), ix.M, wordsPer)
	}
}

// sliceDemand counts slice s afresh, using bm as scratch.
func (e *Engine) sliceDemand(bm []uint64, s *layout.Slice) sliceRef {
	clear(bm)
	e.markSlice(bm, s)
	return countMarks(bm, markWordsPer(e.ix.CB))
}

// countMarks returns the demand a bitmap encodes: set bits, and 0->1
// transitions within each subspace row.
func countMarks(bm []uint64, wordsPer int) (r sliceRef) {
	for i, w := range bm {
		var carry uint64
		if i%wordsPer != 0 {
			carry = bm[i-1] >> 63
		}
		r.need += uint32(bits.OnesCount64(w))
		r.runs += uint32(bits.OnesCount64(w &^ (w<<1 | carry)))
	}
	return r
}

// markedRuns calls f(m, lo, hi) for every maximal run [lo, hi) of marked
// codes of every subspace, in ascending order — the order the kernel's
// bitmap scan meets them.
func markedRuns(bm []uint64, m, cb int, f func(m, lo, hi int)) {
	marked := func(row []uint64, c int) bool { return row[c>>6]>>(c&63)&1 == 1 }
	for mi := 0; mi < m; mi++ {
		row := bm[mi*markWordsPer(cb):]
		for c := 0; c < cb; c++ {
			if lo := c; marked(row, c) {
				for c < cb && marked(row, c) {
					c++
				}
				f(mi, lo, c)
			}
		}
	}
}

// recountCluster refreshes the cached demand of cluster c's starting slice
// after its append segment changed.
func (e *Engine) recountCluster(c int32) {
	bm := e.newMarks()
	for _, si := range e.pl.ByCluster[c] {
		if s := &e.pl.Slices[si]; s.Start == 0 {
			e.lc.bySlice[si] = e.sliceDemand(bm, s)
		}
	}
}

// rebuildDemand counts every slice of the current placement and tabulates
// the scheduler's heat estimate for every slice size that placement holds.
func (e *Engine) rebuildDemand() {
	sl := e.pl.Slices
	refs := make([]sliceRef, len(sl))
	bms := make([][]uint64, e.opts.Workers)
	parallelFor(len(sl), e.opts.Workers, func(w, si int) {
		if bms[w] == nil {
			bms[w] = e.newMarks()
		}
		refs[si] = e.sliceDemand(bms[w], &sl[si])
	})
	maxCount := 0
	for i := range sl {
		maxCount = max(maxCount, sl[i].Count)
	}
	heat := make([]float64, maxCount+1)
	for n := range heat {
		heat[n] = e.modelTaskCycles(n)
	}
	*e.lc = lcDemand{bySlice: refs, heat: heat}
}

// modelTaskCycles predicts the cycles of one task scanning n points — the
// scheduler's heat estimate (Equations 6-11 restricted to the dominant
// terms): the expected LC build over the entries n uniform codes reference
// per subspace, plus the per-point LC mark pass, DC gathers and TS bound
// test. Co-located slices of one cluster share a build, which the estimate
// ignores.
func (e *Engine) modelTaskCycles(n int) float64 {
	ix := e.ix
	m := float64(ix.M)
	perElem := 3 + float64(e.sys.Cfg.Cost.MulCycles)
	if e.opts.UseSQT {
		perElem = 3 + 2 + float64(e.opts.SQTAccessCycles)
	}
	build := m * perfmodel.LUTOccupancy(ix.CB, n) * float64(ix.Dim/ix.M) * perElem
	perPoint := markCyclesPerCode*m + 2*m + (m - 1) + 1 + float64(e.opts.LockCycles)/8
	return build + float64(n)*perPoint
}

// ProbeCycles is the scheduler's heat estimate of one probe of cluster c on
// this engine — one task per placement slice of the cluster. A sharded front
// door sums it over a batch's probe lists to compare shard loads.
func (e *Engine) ProbeCycles(c int32) float64 {
	var w float64
	for _, si := range e.pl.ByCluster[c] {
		w += e.lc.heat[e.pl.Slices[si].Count]
	}
	return w
}
