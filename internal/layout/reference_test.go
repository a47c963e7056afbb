package layout

// The three phases as they stood before th1 was chosen by evaluation — linear
// rescans in duplication, a list search per DPU in allocation — kept as the
// reference TestForcedLayoutsUnchanged compares the production code against.

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

func refOptimize(sizes []int, freq []float64, cfg Config) (*Placement, error) {
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

	// Phase 1: partition.
	th1 := cfg.SplitThreshold
	if !cfg.EnableSplit {
		th1 = math.MaxInt
	} else if th1 <= 0 {
		panic("refOptimize: no automatic th1")
	}
	pl := &Placement{
		NumDPUs:     cfg.NumDPUs,
		Th1:         th1,
		ByCluster:   make([][]int, n),
		DPUHeat:     make([]float64, cfg.NumDPUs),
		DPUBytes:    make([]int, cfg.NumDPUs),
		ClusterHeat: heat,
		Copies:      make([]int, n),
	}
	for c, size := range sizes {
		nSlices := 1
		if size > th1 {
			nSlices = (size + th1 - 1) / th1
		}
		per := (size + nSlices - 1) / nSlices
		for s := 0; s < nSlices; s++ {
			start := s * per
			count := per
			if start+count > size {
				count = size - start
			}
			if count <= 0 {
				continue
			}
			id := len(pl.Slices)
			pl.Slices = append(pl.Slices, Slice{
				ID: id, Cluster: int32(c), Start: start, Count: count,
			})
			pl.ByCluster[c] = append(pl.ByCluster[c], id)
		}
	}

	// Phase 2: duplication.
	for c := range pl.Copies {
		pl.Copies[c] = 1
	}
	if cfg.EnableDup && cfg.CopyFootprint > 0 {
		refDuplicate(pl, sizes, heat, cfg)
	}

	// Per-copy heat share: cluster heat spread over its slices and copies.
	for i := range pl.Slices {
		s := &pl.Slices[i]
		c := s.Cluster
		share := heat[c] * float64(s.Count) / float64(sizes[c])
		s.Heat = share / float64(pl.Copies[c])
	}

	// Phase 3: allocation.
	if err := refAllocate(pl, cfg); err != nil {
		return nil, err
	}
	return pl, nil
}

// duplicate adds copies to clusters by priority heat/slices until the extra
// footprint budget is exhausted (paper: "as many duplicated cluster slices
// as PIM memory allows", hot clusters first).
func refDuplicate(pl *Placement, sizes []int, heat []float64, cfg Config) {
	budget := cfg.CopyFootprint * cfg.NumDPUs
	// Repeatedly grant one copy to the cluster with the highest current
	// priority heat/(slices x copies): copy counts converge to be
	// proportional to heat and inversely proportional to the slice count,
	// exactly the paper's th2[i] rule, bounded by the DPU count (copies must
	// land on distinct devices).
	for {
		best, bestPriority := -1, 0.0
		for c := range sizes {
			ns := len(pl.ByCluster[c])
			if ns == 0 || pl.Copies[c] >= cfg.NumDPUs {
				continue
			}
			if sizes[c]*cfg.BytesPerPoint > budget {
				continue
			}
			p := heat[c] / float64(ns) / float64(pl.Copies[c])
			if p > bestPriority {
				best, bestPriority = c, p
			}
		}
		if best < 0 {
			return
		}
		pl.Copies[best]++
		budget -= sizes[best] * cfg.BytesPerPoint
	}
}

// allocate assigns every slice copy to DPUs.
func refAllocate(pl *Placement, cfg Config) error {
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
			if slices.Contains(s.DPUs, d) {
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
