// Locator is the host-side cluster-locating (CL) stage factored out of the
// Engine so it can run at a sharded deployment's front door: the cluster
// layer locates once per batch over the full shared centroid directory,
// partitions the probe lists per shard, and hands each shard engine a
// pre-resolved ProbeSet (SearchBatchProbed) instead of letting every shard
// redundantly rerun CL. The engine itself delegates its own CL stage to an
// embedded Locator, so both paths scan the same directory and produce
// identical probes.

package core

import (
	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/ivf"
	"drimann/internal/topk"
	"drimann/internal/upmem"
	"drimann/internal/vecmath"
)

// Locator runs the flat CL scan over one index's centroid directory and
// models its host cost. Construct with NewLocator (or take an
// engine's via Engine.Locator). LocateBatch is stateless per call, so one
// Locator is safe for concurrent use by independent batches.
type Locator struct {
	ix      *ivf.Index
	nprobe  int
	workers int
}

// NewLocator builds the CL stage an engine with the same Options would use.
func NewLocator(ix *ivf.Index, opts Options) *Locator {
	opts.defaults()
	return &Locator{ix: ix, nprobe: opts.NProbe, workers: opts.Workers}
}

// LocateBatch computes probes for queries[lo:hi) across the locator's
// workers, writing into the flat out/counts layout of ivf.Index.LocateBatch
// (out holds (hi-lo)*NProbe slots; counts[i] the probe count of query lo+i,
// in ascending distance order).
func (l *Locator) LocateBatch(queries dataset.U8Set, lo, hi int, out []topk.Item[uint32], counts []int) {
	l.ix.LocateBatch(queries, lo, hi, l.nprobe, l.workers, out, counts)
}

// CLSeconds models the host-side cluster-locating cost for nq queries
// (Equations 1-3 with upmem.PlatformHost's #PE, frequency and vector width) —
// exactly the per-batch charge Engine.SearchBatch applies. Linear in nq, so a
// front door charging CLSeconds(N) once matches an engine charging it batch
// by batch.
func (l *Locator) CLSeconds(nq int) float64 {
	distOps := float64(3*l.ix.Dim - 1)
	sortOps := float64(engine.Log2Ceil(l.nprobe) + 1)
	ops := float64(nq) * float64(l.ix.NList) * (distOps + sortOps)
	host := upmem.PlatformHost()
	lanes := float64(host.Threads * host.VectorWidth)
	return ops / (lanes * host.FreqGHz * 1e9)
}

// Probes locates every query of the set and packs the results into a
// ProbeSet, CL distances beside the cluster ids — what a front door runs
// before partitioning the probes per shard (the cluster layer calls it for
// offline batches and for single queries).
func (l *Locator) Probes(queries dataset.U8Set) ProbeSet {
	chunk := min(queries.N, 256)
	out := make([]topk.Item[uint32], chunk*l.nprobe)
	counts := make([]int, chunk)
	ps := ProbeSet{
		Offsets:  make([]int32, 1, queries.N+1),
		Clusters: make([]int32, 0, queries.N*l.nprobe),
		Dists:    make([]uint32, 0, queries.N*l.nprobe),
	}
	for lo := 0; lo < queries.N; lo += chunk {
		hi := min(lo+chunk, queries.N)
		l.LocateBatch(queries, lo, hi, out, counts)
		for qi := lo; qi < hi; qi++ {
			base := (qi - lo) * l.nprobe
			for _, p := range out[base : base+counts[qi-lo]] {
				ps.Clusters, ps.Dists = append(ps.Clusters, p.ID), append(ps.Dists, p.Dist)
			}
			ps.Offsets = append(ps.Offsets, int32(len(ps.Clusters)))
		}
	}
	return ps
}

// dists is the CL distance column of a probe set that came without one.
func (l *Locator) dists(queries dataset.U8Set, ps ProbeSet) []uint32 {
	out := make([]uint32, len(ps.Clusters))
	for qi := 0; qi < queries.N; qi++ {
		for i := ps.Offsets[qi]; i < ps.Offsets[qi+1]; i++ {
			out[i] = vecmath.L2SquaredU8(queries.Vec(qi), l.ix.CentroidU8(int(ps.Clusters[i])))
		}
	}
	return out
}
