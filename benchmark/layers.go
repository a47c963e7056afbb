package main

import (
	"bytes"
	"sort"
	"time"

	"drimann/internal/core"
	"drimann/internal/ivf"
	"drimann/internal/layout"
	"drimann/internal/sched"
	"drimann/internal/topk"
	"drimann/internal/upmem"
	"drimann/internal/vecmath"
)

// Layer probes: the traced run's outside-in look at the layers below the
// engine. Each replays one public function of a layer on the run's own
// index and queries, a fixed number of times, and reports the median per
// unit of work — so a kernel's share of an end-to-end figure is its cost
// here times the work count the engine reports (core.points_scanned_per_query,
// graph.evals_per_query, ...).

const probeReps = 7

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// probe times fn probeReps times inside spans and returns the median, in
// seconds.
func (r *run) probe(name string, fn func()) float64 {
	secs := make([]float64, probeReps)
	for i := range secs {
		secs[i], _ = r.timed(name, r.root, func() error { fn(); return nil })
	}
	return median(secs)
}

// probeKernels replays the index-independent kernels: the exact uint8 L2
// both backends evaluate per candidate, its early-abandon form the coarse
// locate uses, and the bounded top-k heap.
func (r *run) probeKernels(fx fixture) {
	n := min(fx.base.N, 20000)
	q := fx.measured.Vec(0)
	dists := make([]uint32, n)
	sec := r.probe("vecmath.L2SquaredU8", func() {
		for i := 0; i < n; i++ {
			dists[i] = vecmath.L2SquaredU8(q, fx.base.Vec(i))
		}
	})
	r.set("vecmath.l2u8_ns_per_vec", sec*1e9/float64(n))

	// The abandon bound of a locate is its heap's threshold: the nprobe-th
	// best distance, which most candidates exceed early.
	sorted := append([]uint32(nil), dists...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	bound := sorted[min(engineOptions().NProbe, n)-1]
	sec = r.probe("vecmath.L2SquaredU8Abandon", func() {
		for i := 0; i < n; i++ {
			d, _ := vecmath.L2SquaredU8Abandon(q, fx.base.Vec(i), bound)
			sink += uint64(d)
		}
	})
	r.set("vecmath.l2u8_abandon_ns_per_vec", sec*1e9/float64(n))

	h := topk.NewHeap[uint32](topK)
	sec = r.probe("topk.Push", func() {
		h.Reset()
		for i, d := range dists {
			h.Push(int32(i), d)
		}
	})
	r.set("topk.push_ns_per_candidate", sec*1e9/float64(n))

	const drains = 20000
	dst := make([]topk.Item[uint32], 0, topK)
	sec = r.probe("topk.SortedInto", func() {
		for i := 0; i < drains; i++ {
			dst = h.SortedInto(dst)
		}
	})
	r.set("topk.sorted_into_ns_per_k", sec*1e9/float64(drains*h.Len()))
}

// probeIVFLayers replays the IVF engine's stages one public function at a
// time on the deployed index: coarse locate, per-query gather-table build,
// the ADC scan over the index's real lists, scheduling of one batch, the
// layout optimizer, the engine with its CL stage split off, replica
// construction, snapshot save/load and live insertion.
func (r *run) probeIVFLayers(fx fixture, dep ivfDeploy, ref *core.Result) error {
	ix, eng := dep.ix, dep.eng
	opts := engineOptions()
	nq := fx.measured.N

	out := make([]topk.Item[uint32], nq*opts.NProbe)
	counts := make([]int, nq)
	sec := r.probe("ivf.LocateBatch", func() {
		ix.LocateBatch(fx.measured, 0, nq, opts.NProbe, opts.Workers, out, counts)
	})
	r.set("ivf.locate_us_per_query", sec*1e6/float64(nq))

	lb := ix.NewLUTBuilder(opts.Workers)
	qe := make([]int32, ix.M*ix.CB)
	sec = r.probe("ivf.BuildQE", func() {
		for qi := 0; qi < nq; qi++ {
			lb.BuildQE(fx.measured.Vec(qi), qe)
		}
	})
	r.set("ivf.qe_build_us_per_query", sec*1e6/float64(nq))

	// ADC over every inverted list of the index, for one query: the DC
	// kernel with the list-length distribution the engine really scans.
	bsum := make([][]int32, ix.NList)
	points, longest := 0, 0
	for c := range bsum {
		bsum[c] = make([]int32, ix.ListLen(c))
		lb.ClusterADCSums(c, ix.Codes[c], bsum[c])
		points += ix.ListLen(c)
		longest = max(longest, ix.ListLen(c))
	}
	q := fx.measured.Vec(0)
	lb.BuildQE(q, qe)
	dist := make([]uint32, longest)
	sec = r.probe("vecmath.ADCResidualBatch", func() {
		for c := range bsum {
			if n := len(bsum[c]); n > 0 {
				vecmath.ADCResidualBatch(dist[:n], qe, ix.Codes[c], bsum[c], lb.PTerm(q, c), ix.M, ix.CB)
			}
		}
	})
	r.set("vecmath.adc_ns_per_point", sec*1e9/float64(points))

	// One scheduling batch on the engine's own placement.
	batch := fx.measured
	batch.N = min(nq, opts.BatchSize)
	batch.Data = batch.Data[:batch.N*batch.D]
	ps := eng.Locator().Probes(batch)
	var reqs []sched.Request
	for qi := 0; qi < batch.N; qi++ {
		for _, c := range ps.Of(qi) {
			reqs = append(reqs, sched.Request{Query: int32(qi), Cluster: c})
		}
	}
	var sb sched.Batch
	scfg := sched.Config{Th3: opts.Th3, Rebalance: opts.Rebalance}
	sec = r.probe("sched.GreedyInto", func() { sched.GreedyInto(&sb, reqs, nil, eng.Placement(), scfg) })
	r.set("sched.greedy_us_per_batch", sec*1e6)

	// The layout optimizer on the deployment's inputs (sizes and profiled
	// probe frequency), with the budgets core.New derives from the default
	// hardware configuration.
	sizes := make([]int, ix.NList)
	freq := make([]float64, ix.NList)
	for c := range sizes {
		sizes[c] = ix.ListLen(c)
	}
	for qi := 0; qi < fx.profile.N; qi++ {
		for _, p := range ix.LocateInt(fx.profile.Vec(qi), opts.NProbe) {
			freq[p.ID]++
		}
	}
	hw := upmem.DefaultConfig(opts.NumDPUs)
	fixed := ix.M*ix.CB*(ix.Dim/ix.M)*2 + ix.NList*ix.Dim
	lcfg := layout.Config{
		NumDPUs: opts.NumDPUs, BytesPerPoint: ix.M + 4,
		MRAMDataBudget: hw.MRAMBytes - fixed - opts.CopyFootprint, CopyFootprint: opts.CopyFootprint,
		WRAMMetaBudget: hw.WRAMBytes / 4, HeatWeight: 0.5,
		EnableSplit: opts.EnableSplit, EnableDup: opts.EnableDup, EnableBalance: opts.EnableBalance,
	}
	var lerr error
	sec = r.probe("layout.Optimize", func() { _, lerr = layout.Optimize(sizes, freq, lcfg) })
	if lerr != nil {
		return lerr
	}
	r.set("layout.optimize_s", sec)

	// The engine with CL split off: Probes at the front door, then the DPU
	// phase alone, interleaved with whole searches so both see the same
	// machine. 1 - probed/search is the share of a search that is CL and is
	// not hidden behind the DPU phase by the engine's pipeline.
	var searchSec, probedSec []float64
	for i := 0; i < probeReps; i++ {
		s, err := r.timed("core.SearchBatch", r.root, func() error {
			_, err := eng.SearchBatch(fx.measured)
			return err
		})
		if err != nil {
			return err
		}
		searchSec = append(searchSec, s)
		var ps core.ProbeSet
		r.timed("core.Locator.Probes", r.root, func() error {
			ps = eng.Locator().Probes(fx.measured)
			return nil
		})
		var res *core.Result
		s, err = r.timed("core.SearchBatchProbed", r.root, func() (err error) {
			res, err = eng.SearchBatchProbed(fx.measured, ps, true)
			return err
		})
		r.ops(1, 0)
		if err != nil {
			r.ops(0, 1)
			return err
		}
		r.sameResults("SearchBatchProbed vs SearchBatch", res, ref)
		probedSec = append(probedSec, s)
	}
	r.set("core.probed_us_per_query", median(probedSec)*1e6/float64(nq))
	r.set("core.cl_share", 1-median(probedSec)/median(searchSec))

	sec, err := r.timed("core.NewReplica", r.root, func() error {
		_, err := core.NewReplica(eng)
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.replica_s", sec)

	// Snapshot image: save, load, and live insertion into the loaded copy
	// (the measured queries stand in as new points).
	var img bytes.Buffer
	sec, err = r.timed("ivf.Save", r.root, func() error { return ix.Save(&img) })
	if err != nil {
		return err
	}
	r.set("ivf.save_s", sec)
	r.set("ivf.snapshot_mb", float64(img.Len())/(1<<20))
	var loaded *ivf.Index
	sec, err = r.timed("ivf.Load", r.root, func() (err error) {
		loaded, err = ivf.Load(bytes.NewReader(img.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	r.set("ivf.load_s", sec)
	t := time.Now()
	id := r.tr.begin("ivf.Insert", r.root, -1)
	for qi := 0; qi < nq; qi++ {
		if _, err := loaded.Insert(int32(fx.base.N+qi), fx.measured.Vec(qi)); err != nil {
			return err
		}
	}
	r.tr.end(id)
	r.set("ivf.insert_us_per_point", time.Since(t).Seconds()*1e6/float64(nq))
	return nil
}
