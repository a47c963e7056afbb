// Static LC demand of a deployment: per placement slice and subspace, the
// distinct LUT entries the slice's codes read and the codebook-row runs they
// form — all the mark-then-build LC kernel's cost depends on while every
// point of the slice is alive, which is true of a staged scan's first stage
// always and of every stage when no bound prunes (see the package doc); later
// stages count the bitmap they mark. Beside it, the scheduler's price of a
// task: the slice's modelled no-prune cycles and, for tasks under a bound, the
// share table. All of it is computed once at deployment, shared across
// replicas through one pointer and rebuilt by Compact; Insert/Delete refresh
// the touched cluster's starting slice (which carries the append segment).

package core

import (
	"math"
	"math/bits"

	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/layout"
	"drimann/internal/perfmodel"
	"drimann/internal/sched"
	"drimann/internal/upmem"
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
	// heat[si] is the scheduler's estimate of one task over slice si when
	// nothing prunes; share[b] the part of it a task costs whose query carries
	// a bound B and whose cluster lies at CL distance d, b = ShareBin(d, B).
	heat  []float64
	share [ShareBins]float64
	cal   dataset.U8Set // the deployment's profile, which share is measured on (calibrate)
}

// The share table bins ρ = dist ÷ bound in steps of 1/ShareBinsPerUnit; the
// last bin takes everything beyond.
const (
	ShareBins        = 24
	ShareBinsPerUnit = 8
)

// ShareBin is the table's bin for a probe at CL distance dist of a query whose
// bound is bound.
func ShareBin(dist, bound uint32) int {
	return int(min(uint64(dist)*ShareBinsPerUnit/max(uint64(bound), 1), ShareBins-1))
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

// recountSlice refreshes slice si's cached demand and, from it and the
// points a task over the slice scans, its heat; bm is scratch.
func (e *Engine) recountSlice(bm []uint64, si int) {
	s, m := &e.pl.Slices[si], e.ix.M
	e.sliceDemand(bm, s, e.lc.bySlice[si*m:(si+1)*m])
	var need float64
	for _, r := range e.lc.bySlice[si*m : (si+1)*m] {
		need += float64(r.need)
	}
	e.lc.heat[si] = e.modelTaskCycles(e.scannedPoints(s), need)
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

// rebuildDemand counts and prices every slice of the current placement, then
// measures the share table on it.
func (e *Engine) rebuildDemand() {
	n := len(e.pl.Slices)
	*e.lc = lcDemand{bySlice: make([]sliceRef, n*e.ix.M), heat: make([]float64, n), cal: e.lc.cal}
	bms := make([][]uint64, e.opts.Workers)
	parallelFor(n, e.opts.Workers, func(w, si int) {
		if bms[w] == nil {
			bms[w] = e.newMarks()
		}
		e.recountSlice(bms[w], si)
	})
	e.calibrate()
}

// modelTaskCycles predicts the cycles of one task scanning n points whose
// codes read need distinct LUT entries when no bound prunes — the scheduler's
// heat estimate (Equations 6-11 restricted to the dominant terms), stage by
// stage: the LC build over the stage's share of the entries, plus per point
// the LC mark pass, the DC gathers and the prune, and after the last stage
// the TS bound test. Co-located slices of one cluster share a build, which
// the estimate ignores.
func (e *Engine) modelTaskCycles(n int, need float64) float64 {
	ix := e.ix
	perEntry := 3 + float64(ix.Dim/ix.M)*float64(3+e.squareCycles())
	perStage := float64(max(stageWidth, e.sys.Cfg.Tasklets) * e.markWords32() * 3)
	var cycles float64
	for lo := 0; lo < ix.M && n > 0; lo += stageWidth {
		w := float64(min(stageWidth, ix.M-lo))
		cycles += perStage + need*w/float64(ix.M)*perEntry + float64(n)*(w*(markCyclesPerCode+3)+pruneCyclesPerPoint)
	}
	return cycles + float64(n)*(1+float64(lockCycles)/8)
}

// optimize lays the lists of the given sizes out with the configuration New
// resolved, splits priced as the scheduler prices a task no bound prunes: over
// a slice of n points, the LUT entries they read taken in closed form.
func (e *Engine) optimize(sizes []int) (*layout.Placement, error) {
	cfg := e.lcfg
	cfg.TaskCycles = func(n int) float64 {
		return e.modelTaskCycles(n, float64(e.ix.M)*perfmodel.LUTOccupancy(e.ix.CB, n))
	}
	return layout.Optimize(sizes, e.freq, cfg)
}

// ScanSample is one (query, cluster) group scan on one DPU as the recorder
// saw it: the probe's CL distance, the bound the query carried (MaxUint32:
// none), the instruction cycles charged, and the no-prune price of its tasks.
type ScanSample struct {
	Query, Cluster int32
	Dist, Bound    uint32
	Cycles, Price  float64
}

// RecordScans makes the engine append to *into (nil: stop) a sample of every
// group it scans, folded from per-DPU scratch at each launch's barrier. Set it
// between searches; engines that run side by side need a slice each.
func (e *Engine) RecordScans(into *[]ScanSample) { e.rec = into }

// recordScan is a group scan under the recorder.
func (e *Engine) recordScan(scan groupKernel, dpu *upmem.DPU, sc *dpuScratch, group []sched.Task, bi int, bound uint32) {
	c0 := dpu.ComputeCycles() + sc.tally.ComputeCycles()
	scan(e, dpu, sc, group, bi, bound)
	s := ScanSample{Query: group[0].Query, Cluster: group[0].Cluster, Dist: group[0].Dist, Bound: bound, Cycles: float64(dpu.ComputeCycles() + sc.tally.ComputeCycles() - c0)}
	for _, t := range group {
		s.Price += e.lc.heat[t.Slice]
	}
	sc.rec = append(sc.rec, s)
}

// calibrate measures the share table (see the package doc): a throwaway
// replica answers the first scheduling batch of the deployment's profile under
// the recorder, and perfmodel.FitShares turns the bounded scans' simulated
// cycles and no-prune prices, summed per bin, into the table. Without a
// profile or a bounded scan in it every bin keeps perfmodel's flat share — as
// it does should the replica fail: a price is not worth refusing a deployment
// or a compaction for.
func (e *Engine) calibrate() {
	var cycles, price [ShareBins]float64
	fit := func() {
		copy(e.lc.share[:], perfmodel.FitShares(cycles[:], price[:], perfmodel.BoundedShare(e.ix.M)))
	}
	fit() // nothing measured yet: the flat share, which schedules the measuring run
	var scans []ScanSample
	sample := e.lc.cal
	if sample.N = min(sample.N, e.opts.BatchSize); sample.N > 0 {
		if rep, err := NewReplica(e); err == nil {
			rep.rec = &scans
			if _, err := rep.SearchBatch(sample); err != nil {
				return
			}
		}
	}
	for _, s := range scans {
		if s.Bound != math.MaxUint32 {
			b := ShareBin(s.Dist, s.Bound)
			cycles[b], price[b] = cycles[b]+s.Cycles, price[b]+s.Price
		}
	}
	fit()
}

// ListCycles deploys ix as New does on one engine with the MRAM of a fleet of
// that many — an index the fleet can hold fits it, and its layout levels over
// as many DPUs as a shard's will — short of measuring a share table (the flat
// one schedules), answers the profile under the scan recorder and returns the
// simulated cycles the scans of each inverted list cost in total: the per-list
// cost a sharded deployment levels its split on (cluster.New). WRAM is not
// scaled (it decides where the LUT lives), so a DPU's slice directory covers
// that many shards' lists.
func ListCycles(ix *ivf.Index, profile dataset.U8Set, opts Options, shards int) ([]float64, error) {
	if opts.MRAMBytes <= 0 {
		opts.MRAMBytes = upmem.DefaultConfig(1).MRAMBytes
	}
	opts.MRAMBytes *= shards
	e, err := deploy(ix, profile, dataset.U8Set{}, opts)
	if err != nil {
		return nil, err
	}
	var scans []ScanSample
	e.rec = &scans
	if _, err := e.SearchBatch(profile); err != nil {
		return nil, err
	}
	cycles := make([]float64, ix.NList)
	for _, s := range scans {
		cycles[s.Cluster] += s.Cycles
	}
	return cycles, nil
}

// Share is the part of its no-prune price a task costs whose probe lies at CL
// distance dist of a query whose bound is bound (MaxUint32, none yet: all).
func (e *Engine) Share(dist, bound uint32) float64 {
	if bound == math.MaxUint32 {
		return 1
	}
	return e.lc.share[ShareBin(dist, bound)]
}

// ProbeCycles is the scheduler's price of one probe of cluster c on this
// engine: what its tasks over the cluster's placement slices cost together.
// Steps sums it over a step's requests to level a shard's replicas.
func (e *Engine) ProbeCycles(c int32, dist, bound uint32) (w float64) {
	for _, si := range e.pl.ByCluster[c] {
		w += e.lc.heat[si] * e.Share(dist, bound)
	}
	return w
}
