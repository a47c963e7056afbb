// Static LC demand of a deployment: per placement slice and subspace, the
// distinct LUT entries the slice's codes read and the codebook-row runs they
// form — all the mark-then-build LC kernel's cost depends on while every
// point of the slice is alive, which is true of a staged scan's first stage
// always and of every stage when no bound prunes (see the package doc); later
// stages count the bitmap they mark. Beside it, the scheduler's heat estimate
// of one task per slice, for queries without and with a forwarded bound.
// Both are computed once at deployment, shared across replicas through one
// pointer, refreshed by Insert/Delete for the touched cluster's starting
// slice (which carries the append segment) and rebuilt by Compact.

package core

import (
	"math"
	"math/bits"

	"drimann/internal/layout"
	"drimann/internal/perfmodel"
)

// sliceRef is the LC demand of one slice in one subspace (or a sum of them).
type sliceRef struct {
	need uint32 // distinct codes, i.e. LUT entries read
	runs uint32 // contiguous runs of their codebook rows (one DMA each)
}

// lcDemand is the deployment-wide LC state shared by replica engines:
// updates go through the pointer so every engine of a deployment sees them.
type lcDemand struct {
	bySlice []sliceRef // slice si, subspace m at si*M+m
	// heat[w][si] is the scheduler's estimate of one task over slice si: w = 0
	// for a query that carries no bound, 1 for one that does (heatOf).
	heat [2][]float64
}

// A mark bitmap holds one CB-bit row per subspace, padded to whole words:
// bit (m, code) says some scanned point has that code in subspace m.
func markWordsPer(cb int) int { return (cb + 63) / 64 }

func (e *Engine) newMarks() []uint64 { return make([]uint64, e.ix.M*markWordsPer(e.ix.CB)) }

// markRow is subspace m's row of a mark bitmap.
func (e *Engine) markRow(bm []uint64, m int) []uint64 {
	w := markWordsPer(e.ix.CB)
	return bm[m*w : (m+1)*w]
}

// markCodes marks every code of a point-major packed code matrix.
func markCodes(bm []uint64, codes []uint16, m, wordsPer int) {
	for ; len(codes) >= m; codes = codes[m:] {
		for j, c := range codes[:m] {
			bm[j*wordsPer+int(c>>6)] |= 1 << (c & 63)
		}
	}
}

// scannedPoints is the number of points one task over slice s scans: the
// slice's base points plus, on the cluster-starting slice, the live append
// segment.
func (e *Engine) scannedPoints(s *layout.Slice) int {
	if s.Start == 0 {
		return s.Count + e.ix.AppendLen(int(s.Cluster))
	}
	return s.Count
}

// sliceDemand counts slice s afresh into out (one sliceRef per subspace),
// using bm as scratch.
func (e *Engine) sliceDemand(bm []uint64, s *layout.Slice, out []sliceRef) {
	ix := e.ix
	clear(bm)
	wordsPer := markWordsPer(ix.CB)
	markCodes(bm, ix.Codes[s.Cluster][s.Start*ix.M:(s.Start+s.Count)*ix.M], ix.M, wordsPer)
	if s.Start == 0 {
		markCodes(bm, ix.AppendCodes(int(s.Cluster)), ix.M, wordsPer)
	}
	for m := range out {
		out[m] = countMarks(e.markRow(bm, m))
	}
}

// countMarks returns the demand one bitmap row encodes: set bits, and 0->1
// transitions.
func countMarks(row []uint64) (r sliceRef) {
	var carry uint64
	for _, w := range row {
		r.need += uint32(bits.OnesCount64(w))
		r.runs += uint32(bits.OnesCount64(w &^ (w<<1 | carry)))
		carry = w >> 63
	}
	return r
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

// recountSlice refreshes slice si's cached demand and, from it and the
// points a task over the slice scans, its heat; bm is scratch.
func (e *Engine) recountSlice(bm []uint64, si int) {
	s, m := &e.pl.Slices[si], e.ix.M
	e.sliceDemand(bm, s, e.lc.bySlice[si*m:(si+1)*m])
	n := e.scannedPoints(s)
	var need float64
	for _, r := range e.lc.bySlice[si*m : (si+1)*m] {
		need += float64(r.need)
	}
	e.lc.heat[0][si], e.lc.heat[1][si] = e.modelTaskCycles(n, need, false), e.modelTaskCycles(n, need, true)
}

// recountCluster refreshes the cached demand and heat of cluster c's
// starting slice after its append segment changed.
func (e *Engine) recountCluster(c int32) {
	bm := e.newMarks()
	for _, si := range e.pl.ByCluster[c] {
		if e.pl.Slices[si].Start == 0 {
			e.recountSlice(bm, si)
		}
	}
}

// rebuildDemand counts and prices every slice of the current placement.
func (e *Engine) rebuildDemand() {
	n := len(e.pl.Slices)
	*e.lc = lcDemand{
		bySlice: make([]sliceRef, n*e.ix.M),
		heat:    [2][]float64{make([]float64, n), make([]float64, n)},
	}
	bms := make([][]uint64, e.opts.Workers)
	parallelFor(n, e.opts.Workers, func(w, si int) {
		if bms[w] == nil {
			bms[w] = e.newMarks()
		}
		e.recountSlice(bms[w], si)
	})
}

// modelTaskCycles predicts the cycles of one task scanning n points whose
// codes read need distinct LUT entries — the scheduler's heat estimate
// (Equations 6-11 restricted to the dominant terms), stage by stage: the LC
// build over the stage's share of the entries, plus per surviving point the
// LC mark pass, the DC gathers and the prune, and for the survivors of the
// last stage the TS bound test. Without bounds every point survives every
// stage; with them the survivors follow perfmodel.BoundedSurvival — the
// scheduler only compares tasks, so what matters is that later stages are
// priced far below the first, not the exact decay — and read the entries
// that many uniform codes would. Co-located slices of one cluster share a
// build, which the estimate ignores.
func (e *Engine) modelTaskCycles(n int, need float64, bounded bool) float64 {
	ix := e.ix
	perEntry := 3 + float64(ix.Dim/ix.M)*float64(3+e.squareCycles())
	perStage := float64(max(stageWidth, e.opts.Tasklets) * e.markWords32() * 3)
	occ := perfmodel.LUTOccupancy(ix.CB, n)
	alive, entries := float64(n), need
	var cycles float64
	for lo := 0; lo < ix.M && n > 0; lo += stageWidth {
		w := float64(min(stageWidth, ix.M-lo))
		if bounded {
			alive = float64(n) * perfmodel.BoundedSurvival(float64(lo)/float64(ix.M))
			entries = need * perfmodel.LUTOccupancy(ix.CB, int(math.Ceil(alive))) / occ
		}
		cycles += perStage + entries*w/float64(ix.M)*perEntry + alive*(w*(markCyclesPerCode+3)+pruneCyclesPerPoint)
	}
	if bounded {
		alive = float64(n) * perfmodel.BoundedSurvival(1)
	}
	return cycles + alive*(1+float64(e.opts.LockCycles)/8)
}

// heatOf is the scheduler's price table for tasks whose query carries a bound
// (bounded) or does not.
func (lc *lcDemand) heatOf(bounded bool) []float64 {
	if bounded {
		return lc.heat[1]
	}
	return lc.heat[0]
}

// ProbeCycles is the scheduler's heat estimate of one probe of cluster c on
// this engine — one task per placement slice of the cluster — for a query
// that carries a bound or one that does not. A sharded front door sums it
// over a step's requests to level a shard's replicas.
func (e *Engine) ProbeCycles(c int32, bounded bool) float64 {
	heat := e.lc.heatOf(bounded)
	var w float64
	for _, si := range e.pl.ByCluster[c] {
		w += heat[si]
	}
	return w
}
