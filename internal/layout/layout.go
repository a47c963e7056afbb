// Package layout implements DRIM-ANN's data layout optimization (paper
// §3.2): the three-phase strategy that fights load imbalance on thousands of
// DPUs with no inter-DPU communication fabric.
//
//  1. Cluster partition — clusters larger than a threshold th1 are split
//     into equal-capacity slices so one hot cluster can spread over several
//     DPUs. th1 is chosen by evaluation (see below), under the constraint
//     that slice metadata fits in WRAM.
//  2. Cluster duplication — hot clusters get extra copies (all slices of a
//     cluster are duplicated the same number of times), proportional to
//     heat and inversely proportional to slice count, until the configured
//     extra MRAM footprint is exhausted.
//  3. Cluster allocation — slice copies go to the coldest DPU that can hold
//     them (greedy), followed by exchange passes that co-locate slices of
//     the same cluster for RC/LC/TS data reuse while keeping the heat
//     balance within tolerance.
//
// # Th1 by evaluation
//
// What a split costs depends on the kernel — every slice of a list builds its
// own LUT entries — and what it buys on everything after it: how many copies
// duplication can afford, how many DPUs there are to level over. So no closed
// form picks th1. Optimize walks the thresholds that cut the largest list
// into 1, 2, 3, … equal slices (every other list in proportion), coarsest
// first, runs all three phases for each and keeps the placement whose modelled
// launch (Placement.launchCycles) is shortest: the hottest DPU's load, a
// slice's load being its list's probes × Config.TaskCycles of its length,
// shared among its copies. Splitting only adds work when the price is concave
// (k tasks over n/k points cost no less than one over n), and the hottest DPU
// carries at least the mean, so the walk ends at the first threshold whose
// priced work ÷ NumDPUs already reaches the best launch found, or whose slice
// metadata no longer fits.
package layout

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Config controls the optimizer.
type Config struct {
	NumDPUs       int
	BytesPerPoint int // PQ code bytes + id bytes per point

	// MRAMDataBudget is the per-DPU byte budget for primary slice data.
	MRAMDataBudget int
	// CopyFootprint is the extra per-DPU byte budget for duplicate copies
	// (the paper's Figure 14(b) x-axis). 0 disables duplication.
	CopyFootprint int

	// WRAMMetaBudget bounds per-DPU slice metadata (constrains th1).
	WRAMMetaBudget int
	// MetaBytesPerSlice is the metadata footprint of one slice; default 16.
	MetaBytesPerSlice int

	// HeatWeight w blends cluster size and profiled frequency into heat:
	// heat = w*sizeNorm + (1-w)*freqNorm. Default 0.5.
	HeatWeight float64

	// SplitThreshold forces th1 (Figure 14(a) x-axis); 0 = by evaluation.
	SplitThreshold int

	// Phase toggles for the paper's ablations (Figure 13).
	EnableSplit   bool
	EnableDup     bool
	EnableBalance bool // false = naive round-robin allocation by cluster id

	// TaskCycles prices one task over a slice of n points (the engine passes
	// its scheduler's no-prune price). It should be concave in n. Default: one
	// DMA set-up and 16 cycles a point, a scan that builds nothing.
	TaskCycles func(n int) float64
}

func (c *Config) defaults() error {
	if c.NumDPUs <= 0 {
		return fmt.Errorf("layout: NumDPUs must be positive")
	}
	if c.BytesPerPoint <= 0 {
		return fmt.Errorf("layout: BytesPerPoint must be positive")
	}
	if c.MetaBytesPerSlice <= 0 {
		c.MetaBytesPerSlice = 16
	}
	if c.WRAMMetaBudget <= 0 {
		c.WRAMMetaBudget = 16 * 1024
	}
	if c.HeatWeight <= 0 || c.HeatWeight > 1 {
		c.HeatWeight = 0.5
	}
	if c.TaskCycles == nil {
		c.TaskCycles = func(n int) float64 { return 77 + 16*float64(n) }
	}
	if c.MRAMDataBudget <= 0 {
		c.MRAMDataBudget = 64 * 1024 * 1024
	}
	return nil
}

// Slice is one partition of a cluster. Start/Count index into the cluster's
// inverted list; DPUs lists the devices holding a copy (len >= 1 after
// allocation).
type Slice struct {
	ID      int
	Cluster int32
	Start   int
	Count   int
	Heat    float64 // per-copy heat share of this slice
	DPUs    []int
}

// Placement is the optimizer's output.
type Placement struct {
	NumDPUs int
	Th1     int
	Slices  []Slice
	// ByCluster maps cluster id -> indices into Slices.
	ByCluster [][]int
	// DPUHeat and DPUBytes are the post-allocation per-DPU loads.
	DPUHeat  []float64
	DPUBytes []int
	// ClusterHeat is the blended heat used for decisions (exported for the
	// scheduler and for tests).
	ClusterHeat []float64
	// Copies per cluster (>= 1).
	Copies []int
}

// Optimize runs partition, duplication, and allocation for clusters with the
// given sizes (points per cluster) and profiled access frequencies
// (normalized or raw; only relative values matter).
func Optimize(sizes []int, freq []float64, cfg Config) (*Placement, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := len(sizes)
	if n == 0 {
		return nil, fmt.Errorf("layout: no clusters")
	}
	if len(freq) != n {
		return nil, fmt.Errorf("layout: freq length %d != clusters %d", len(freq), n)
	}
	heat := blendHeat(sizes, freq, cfg.HeatWeight)
	switch {
	case !cfg.EnableSplit:
		return place(sizes, heat, math.MaxInt, cfg)
	case cfg.SplitThreshold > 0:
		return place(sizes, heat, cfg.SplitThreshold, cfg)
	}

	var best *Placement
	var bestCycles float64
	var firstErr error
	for i, th := range thresholds(sizes) {
		nSlices, work := 0, 0.0
		for c, size := range sizes {
			if k, per := sliceCounts(size, th); k > 0 {
				nSlices += k
				work += freq[c] * (float64(k-1)*cfg.TaskCycles(per) + cfg.TaskCycles(size-(k-1)*per))
			}
		}
		// The unsplit layout is evaluated whatever its metadata takes: there is
		// nothing coarser to fall back to.
		if (i > 0 && nSlices*cfg.MetaBytesPerSlice > cfg.WRAMMetaBudget) || (best != nil && work/float64(cfg.NumDPUs) >= bestCycles) {
			break
		}
		pl, err := place(sizes, heat, th, cfg)
		if err != nil { // a slice too large for any DPU: finer ones may fit
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if cycles := pl.launchCycles(freq, cfg.TaskCycles); best == nil || cycles < bestCycles {
			best, bestCycles = pl, cycles
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// thresholds lists the th1 candidates of the automatic search, coarsest
// first: the distinct ceil(largest list / k), k = 1, 2, 3, …
func thresholds(sizes []int) []int {
	maxSize := 1
	for _, s := range sizes {
		maxSize = max(maxSize, s)
	}
	var ths []int
	for k := 1; k <= maxSize; k++ {
		if th := (maxSize + k - 1) / k; len(ths) == 0 || th < ths[len(ths)-1] {
			ths = append(ths, th)
		}
	}
	return ths
}

// sliceCounts is the partition rule: a cluster above th is cut into the
// fewest slices of at most th points, of equal capacity per (the last takes
// the remainder); k counts the non-empty ones.
func sliceCounts(size, th int) (k, per int) {
	if size <= 0 {
		return 0, 0
	}
	per = (size-1)/((size-1)/th+1) + 1
	return (size-1)/per + 1, per
}

// place runs the three phases for one threshold.
func place(sizes []int, heat []float64, th1 int, cfg Config) (*Placement, error) {
	n := len(sizes)
	pl := &Placement{
		NumDPUs:     cfg.NumDPUs,
		Th1:         th1,
		ByCluster:   make([][]int, n),
		DPUHeat:     make([]float64, cfg.NumDPUs),
		DPUBytes:    make([]int, cfg.NumDPUs),
		ClusterHeat: heat,
		Copies:      make([]int, n),
	}
	// Phase 1: partition.
	for c, size := range sizes {
		k, per := sliceCounts(size, th1)
		for s := 0; s < k; s++ {
			id := len(pl.Slices)
			pl.Slices = append(pl.Slices, Slice{
				ID: id, Cluster: int32(c), Start: s * per, Count: min(per, size-s*per),
			})
			pl.ByCluster[c] = append(pl.ByCluster[c], id)
		}
	}

	// Phase 2: duplication.
	for c := range pl.Copies {
		pl.Copies[c] = 1
	}
	if cfg.EnableDup && cfg.CopyFootprint > 0 {
		duplicate(pl, sizes, heat, cfg)
	}

	// Per-copy heat share: cluster heat spread over its slices and copies.
	for i := range pl.Slices {
		s := &pl.Slices[i]
		c := s.Cluster
		share := heat[c] * float64(s.Count) / float64(sizes[c])
		s.Heat = share / float64(pl.Copies[c])
	}

	// Phase 3: allocation.
	if err := allocate(pl, cfg); err != nil {
		return nil, err
	}
	return pl, nil
}

// launchCycles is the modelled length of a launch on the placement: the priced
// load of the hottest DPU, where a slice's load — the probes its list draws
// times the price of a task over it — is shared evenly among its copies.
func (pl *Placement) launchCycles(freq []float64, taskCycles func(int) float64) float64 {
	load := make([]float64, pl.NumDPUs)
	for i := range pl.Slices {
		s := &pl.Slices[i]
		share := freq[s.Cluster] * taskCycles(s.Count) / float64(len(s.DPUs))
		for _, d := range s.DPUs {
			load[d] += share
		}
	}
	return slices.Max(load)
}

// blendHeat normalizes sizes and frequencies to mean 1 and blends them.
func blendHeat(sizes []int, freq []float64, w float64) []float64 {
	n := len(sizes)
	var sizeSum float64
	var freqSum float64
	for i := 0; i < n; i++ {
		sizeSum += float64(sizes[i])
		freqSum += freq[i]
	}
	sizeMean := sizeSum / float64(n)
	freqMean := freqSum / float64(n)
	if sizeMean == 0 {
		sizeMean = 1
	}
	if freqMean == 0 {
		freqMean = 1
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = w*float64(sizes[i])/sizeMean + (1-w)*freq[i]/freqMean
	}
	return out
}

// copyQueue orders the clusters still eligible for another copy by priority
// heat/(slices x copies), highest first, ties to the lower cluster id.
type copyQueue struct {
	cluster  []int
	priority []float64
}

func (q *copyQueue) Len() int { return len(q.cluster) }
func (q *copyQueue) Less(i, j int) bool {
	if q.priority[i] != q.priority[j] {
		return q.priority[i] > q.priority[j]
	}
	return q.cluster[i] < q.cluster[j]
}
func (q *copyQueue) Swap(i, j int) {
	q.cluster[i], q.cluster[j] = q.cluster[j], q.cluster[i]
	q.priority[i], q.priority[j] = q.priority[j], q.priority[i]
}
func (q *copyQueue) Push(any) {}
func (q *copyQueue) Pop() any {
	n := len(q.cluster) - 1
	q.cluster, q.priority = q.cluster[:n], q.priority[:n]
	return nil
}

// duplicate adds copies to clusters by priority heat/slices until the extra
// footprint budget is exhausted (paper: "as many duplicated cluster slices
// as PIM memory allows", hot clusters first).
func duplicate(pl *Placement, sizes []int, heat []float64, cfg Config) {
	budget := cfg.CopyFootprint * cfg.NumDPUs
	// Repeatedly grant one copy to the cluster with the highest current
	// priority heat/(slices x copies): copy counts converge to be
	// proportional to heat and inversely proportional to the slice count,
	// exactly the paper's th2[i] rule, bounded by the DPU count (copies must
	// land on distinct devices). The budget only shrinks and copies only grow,
	// so a cluster that cannot take a copy now never will and leaves the queue.
	priority := func(c int) float64 {
		return heat[c] / float64(len(pl.ByCluster[c])) / float64(pl.Copies[c])
	}
	q := &copyQueue{}
	for c := range sizes {
		if len(pl.ByCluster[c]) > 0 && priority(c) > 0 {
			q.cluster, q.priority = append(q.cluster, c), append(q.priority, priority(c))
		}
	}
	heap.Init(q)
	for q.Len() > 0 {
		c := q.cluster[0]
		if pl.Copies[c] >= cfg.NumDPUs || sizes[c]*cfg.BytesPerPoint > budget {
			heap.Pop(q)
			continue
		}
		pl.Copies[c]++
		budget -= sizes[c] * cfg.BytesPerPoint
		q.priority[0] = priority(c)
		heap.Fix(q, 0)
	}
}

// allocate assigns every slice copy to DPUs.
func allocate(pl *Placement, cfg Config) error {
	type copyRef struct {
		slice int
		heat  float64
		bytes int
	}
	var refs []copyRef
	for i := range pl.Slices {
		s := &pl.Slices[i]
		nCopies := pl.Copies[s.Cluster]
		bytes := s.Count * cfg.BytesPerPoint
		for k := 0; k < nCopies; k++ {
			refs = append(refs, copyRef{slice: i, heat: s.Heat, bytes: bytes})
		}
		s.DPUs = s.DPUs[:0]
	}

	if !cfg.EnableBalance {
		// Naive layout: whole clusters round-robin by id, copies to
		// subsequent DPUs. This is the paper's imbalanced baseline.
		for i := range pl.Slices {
			s := &pl.Slices[i]
			for k := 0; k < pl.Copies[s.Cluster]; k++ {
				d := (int(s.Cluster) + k) % cfg.NumDPUs
				s.DPUs = append(s.DPUs, d)
				pl.DPUHeat[d] += s.Heat
				pl.DPUBytes[d] += s.Count * cfg.BytesPerPoint
			}
		}
		return validateCapacity(pl, cfg)
	}

	// Greedy: hottest copies first, each to the coldest DPU that has room
	// and does not already hold a copy of the same slice.
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].heat != refs[j].heat {
			return refs[i].heat > refs[j].heat
		}
		return refs[i].slice < refs[j].slice
	})
	capacity := cfg.MRAMDataBudget + cfg.CopyFootprint
	for _, r := range refs {
		s := &pl.Slices[r.slice]
		bestD := -1
		for d := 0; d < cfg.NumDPUs; d++ {
			if pl.DPUBytes[d]+r.bytes > capacity {
				continue
			}
			if containsInt(s.DPUs, d) {
				continue
			}
			if bestD < 0 || pl.DPUHeat[d] < pl.DPUHeat[bestD] {
				bestD = d
			}
		}
		if bestD < 0 {
			if len(s.DPUs) > 0 {
				continue // a duplicate that no longer fits: drop the copy
			}
			return fmt.Errorf("layout: slice %d (%d bytes) fits on no DPU", s.ID, r.bytes)
		}
		s.DPUs = append(s.DPUs, bestD)
		pl.DPUHeat[bestD] += r.heat
		pl.DPUBytes[bestD] += r.bytes
	}
	// Recompute copies to reflect dropped duplicates.
	for c := range pl.Copies {
		minCopies := math.MaxInt
		for _, si := range pl.ByCluster[c] {
			if l := len(pl.Slices[si].DPUs); l < minCopies {
				minCopies = l
			}
		}
		if minCopies != math.MaxInt {
			pl.Copies[c] = minCopies
		}
	}

	exchangeForReuse(pl, cfg)
	return validateCapacity(pl, cfg)
}

// exchangeForReuse tries to co-locate the primary copies of same-cluster
// slices (for residual/LUT/top-k reuse) by swapping slice copies between
// DPUs when the swap keeps the heat balance within 2 %.
func exchangeForReuse(pl *Placement, cfg Config) {
	const tolerance = 1.02
	maxHeat := func() float64 {
		m := 0.0
		for _, h := range pl.DPUHeat {
			if h > m {
				m = h
			}
		}
		return m
	}
	limit := maxHeat() * tolerance

	for pass := 0; pass < 3; pass++ {
		moved := false
		for c := range pl.ByCluster {
			ids := pl.ByCluster[c]
			if len(ids) < 2 {
				continue
			}
			home := pl.Slices[ids[0]].DPUs
			if len(home) == 0 {
				continue
			}
			target := home[0]
			for _, si := range ids[1:] {
				s := &pl.Slices[si]
				if len(s.DPUs) == 0 || s.DPUs[0] == target || containsInt(s.DPUs, target) {
					continue
				}
				from := s.DPUs[0]
				bytes := s.Count * cfg.BytesPerPoint
				if pl.DPUBytes[target]+bytes > cfg.MRAMDataBudget+cfg.CopyFootprint {
					continue
				}
				if pl.DPUHeat[target]+s.Heat > limit {
					continue
				}
				s.DPUs[0] = target
				pl.DPUHeat[from] -= s.Heat
				pl.DPUBytes[from] -= bytes
				pl.DPUHeat[target] += s.Heat
				pl.DPUBytes[target] += bytes
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

func validateCapacity(pl *Placement, cfg Config) error {
	capacity := cfg.MRAMDataBudget + cfg.CopyFootprint
	for d, b := range pl.DPUBytes {
		if b > capacity && cfg.EnableBalance {
			return fmt.Errorf("layout: DPU %d over capacity: %d > %d", d, b, capacity)
		}
	}
	return nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Validate checks structural invariants: every cluster fully covered by its
// slices exactly once per copy, no slice duplicated on one DPU, at least one
// copy per slice. Intended for tests and engine assertions.
func (pl *Placement) Validate(sizes []int) error {
	for c, ids := range pl.ByCluster {
		covered := 0
		expectedCopies := -1
		for _, si := range ids {
			s := pl.Slices[si]
			if int(s.Cluster) != c {
				return fmt.Errorf("layout: slice %d in wrong cluster bucket", si)
			}
			covered += s.Count
			if len(s.DPUs) == 0 {
				return fmt.Errorf("layout: slice %d unallocated", si)
			}
			seen := map[int]bool{}
			for _, d := range s.DPUs {
				if seen[d] {
					return fmt.Errorf("layout: slice %d duplicated on DPU %d", si, d)
				}
				if d < 0 || d >= pl.NumDPUs {
					return fmt.Errorf("layout: slice %d on invalid DPU %d", si, d)
				}
				seen[d] = true
			}
			if expectedCopies == -1 {
				expectedCopies = len(s.DPUs)
			}
		}
		if covered != sizes[c] {
			return fmt.Errorf("layout: cluster %d covered %d of %d points", c, covered, sizes[c])
		}
	}
	return nil
}
