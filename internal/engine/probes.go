package engine

import "fmt"

// ProbeSet holds pre-resolved per-query probe lists in the flat CSR layout:
// query qi's probed cluster IDs are Clusters[Offsets[qi]:Offsets[qi+1]], in
// the ascending-distance order the CL stage produces (the order matters —
// the scheduler consumes requests in probe order, so preserving it keeps
// results and metrics bit-identical to an engine running its own CL).
type ProbeSet struct {
	// Offsets has one entry per query plus a final sentinel
	// (len = queries + 1); Offsets[0] is 0 and the sequence is monotone.
	Offsets []int32
	// Clusters concatenates every query's probed cluster IDs.
	Clusters []int32
	// Dists holds beside every probe its CL distance (query to centroid,
	// squared), which the scheduler prices the probe's tasks with.
	Dists []uint32
}

// Of returns query qi's probe list (a view, not a copy).
func (p ProbeSet) Of(qi int) []int32 {
	return p.Clusters[p.Offsets[qi]:p.Offsets[qi+1]]
}

// DistsOf returns the CL distances of query qi's probes, aligned with Of(qi).
func (p ProbeSet) DistsOf(qi int) []uint32 {
	return p.Dists[p.Offsets[qi]:p.Offsets[qi+1]]
}

// Validate checks the CSR invariants against a query count and the index's
// cluster-ID domain.
func (p ProbeSet) Validate(queries, nlist int) error {
	if len(p.Offsets) != queries+1 {
		return fmt.Errorf("engine: probe set has %d offsets for %d queries (want %d)",
			len(p.Offsets), queries, queries+1)
	}
	if queries >= 0 && len(p.Offsets) > 0 {
		if p.Offsets[0] != 0 {
			return fmt.Errorf("engine: probe set offsets start at %d, want 0", p.Offsets[0])
		}
		if int(p.Offsets[queries]) != len(p.Clusters) {
			return fmt.Errorf("engine: probe set offsets end at %d, want %d",
				p.Offsets[queries], len(p.Clusters))
		}
	}
	for i := 1; i < len(p.Offsets); i++ {
		if p.Offsets[i] < p.Offsets[i-1] {
			return fmt.Errorf("engine: probe set offsets not monotone at query %d", i-1)
		}
	}
	if len(p.Dists) != len(p.Clusters) {
		return fmt.Errorf("engine: probe set has %d distances for %d probes", len(p.Dists), len(p.Clusters))
	}
	for _, c := range p.Clusters {
		if c < 0 || int(c) >= nlist {
			return fmt.Errorf("engine: probe cluster %d outside [0, %d)", c, nlist)
		}
	}
	return nil
}
