// Replica engines: R-way replication of one shard deployment without
// cloning its read-only state. A replica shares the source engine's index,
// optimized layout, Locator, decomposed LUT builder and cached LC demand —
// everything the hot path only reads — and gets its own simulated PIM system
// and per-launch scratch, the state a concurrently-running engine mutates.
// Before this, every replica rebuilt the whole deployment (including the
// centroid directory and PQ codebooks), multiplying the dominant read-only
// footprint by R; MemoryFootprint reports the split so the cluster layer can
// account shared-vs-per-replica bytes honestly.

package core

import (
	"drimann/internal/engine"
	"drimann/internal/upmem"
)

// NewReplica builds an engine that serves the same deployment as src:
// bit-identical results and metrics, shared read-only state, private
// mutable state. Safe to call multiple times; replicas and the source may
// run concurrently (each owns its simulated system and scratch).
func NewReplica(src *Engine) (*Engine, error) {
	sys, err := upmem.NewSystem(src.sys.Cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		ix:        src.ix,
		sys:       sys,
		pl:        src.pl,
		opts:      src.opts,
		codeBytes: src.codeBytes,
		loc:       src.loc,
		lut:       src.lut,
		kernel:    src.kernel,
		// Mutation state is shared too: lc is rewritten through the pointer,
		// and freq/lcfg let Compact re-run the layout from any engine of the
		// deployment with identical inputs.
		lc:   src.lc,
		freq: src.freq,
		lcfg: src.lcfg,
	}
	if err := e.accountMemory(); err != nil {
		return nil, err
	}
	e.scratch = make([]dpuScratch, e.opts.NumDPUs)
	return e, nil
}

// MemoryFootprint splits one engine's host-side memory into the read-only
// bytes NewReplica shares across all replicas of a deployment and the
// private bytes every additional replica costs. For the IVF engine the
// shared side is the centroid directory (float and integer), integer PQ
// codebooks, inverted lists + codes, the LUT builder's per-cluster table
// and the cached LC demand and scheduler heat; the per-replica side is the
// steady-state per-DPU launch scratch. The type is shared across backends
// (see internal/engine) so the cluster layer accounts fleets uniformly.
type MemoryFootprint = engine.MemoryFootprint

// MemoryFootprint reports the engine's shared/per-replica byte split (see
// MemoryFootprint). Structural sizes only — deterministic, not a heap
// profile.
func (e *Engine) MemoryFootprint() MemoryFootprint {
	ix := e.ix
	var shared int64
	shared += int64(len(ix.Centroids)) * 4
	shared += int64(len(ix.CentroidsU8))
	shared += int64(ix.M*ix.CB*(ix.Dim/ix.M)) * 2 // integer codebooks (int16)
	for c := range ix.Lists {
		shared += int64(len(ix.Lists[c]))*4 + int64(len(ix.Codes[c]))*2
	}
	shared += e.lut.Bytes()
	shared += int64(len(e.lc.bySlice)+len(e.lc.heat)+ShareBins) * 8
	// Live mutation overlay: append segments + tombstones. Zero once
	// compacted.
	shared += ix.MutationBytes()

	// Steady-state per-DPU scratch: K-item heaps, the survivor index and
	// partial-distance buffers for the largest slice, and group indices for a
	// batch's tasks.
	maxSlice := 0
	for _, s := range e.pl.Slices {
		if s.Count > maxSlice {
			maxSlice = s.Count
		}
	}
	per := int64(e.opts.NumDPUs) * int64(maxSlice) * 8 // alive + part
	per += int64(e.opts.NumDPUs) * int64(e.opts.K) * 16
	return MemoryFootprint{SharedBytes: shared, PerReplicaBytes: per}
}
