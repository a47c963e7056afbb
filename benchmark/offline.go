package main

import (
	"fmt"
	"slices"
	"time"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/graph"
	"drimann/internal/ivf"
)

type searchFn func(dataset.U8Set) (*engine.Result, error)

// ivfDeploy is the IVF fixture the three IVF workloads share: the built
// index and the engine deployed over it.
type ivfDeploy struct {
	ix  *ivf.Index
	eng *core.Engine
}

// deployIVF is the IVF set-up a user pays before the first query: index
// build, then engine deployment with the held-out heat profile.
func (r *run) deployIVF(fx fixture) (ivfDeploy, error) {
	var d ivfDeploy
	parent := r.tr.begin("setup", r.root, -1)
	defer r.tr.end(parent)
	buildSec, err := r.timed("ivf.Build", parent, func() (err error) {
		d.ix, err = ivf.Build(fx.base, r.z.buildConfig())
		return err
	})
	if err != nil {
		return d, err
	}
	deploySec, err := r.timed("core.New", parent, func() (err error) {
		d.eng, err = core.New(d.ix, fx.profile, engineOptions())
		return err
	})
	if err != nil {
		return d, err
	}
	r.set("ivf.build_s", buildSec)
	r.set("core.deploy_s", deploySec)
	r.set("setup_s", buildSec+deploySec)
	return d, nil
}

// coreCounters reports the IVF engine's deterministic work counts from the
// deterministic pass.
func (r *run) coreCounters(eng *core.Engine, m *engine.Metrics) {
	nq := float64(m.Queries)
	r.set("core.points_scanned_per_query", float64(m.PointsScanned)/nq)
	if tot := m.LUTBuilds + m.LUTReuses; tot > 0 {
		r.set("core.lut_reuse_ratio", float64(m.LUTReuses)/float64(tot))
	}
	r.set("core.launches", float64(m.Launches))
	r.set("core.postponed", float64(m.Postponed))
	mf := eng.MemoryFootprint()
	r.set("core.mem_shared_mb", float64(mf.SharedBytes)/(1<<20))
	r.set("core.mem_per_replica_mb", float64(mf.PerReplicaBytes)/(1<<20))
}

// passLoop is the offline timed phase: SearchBatch passes over one chunk of
// passQueries measured queries after another, back to back, for dur, after
// a discarded warm-up when warm is set. A pass is one segment; its answers
// are checked against the deterministic pass outside the segment's clocks.
// Every singleEvery a burst of one-query calls takes the passes' place; it
// returns their latencies, one latency segment per burst.
func (r *run) passLoop(tr *tracer, span string, parent int, fx fixture, ref *engine.Result,
	warm bool, dur time.Duration, search searchFn) ([]segment, []time.Duration, error) {
	per := min(passQueries, fx.measured.N)
	chunks := fx.measured.N / per
	onePass := func(pass int) (segment, error) {
		chunk := (pass%chunks + chunks) % chunks // warm-up passes count down from -1
		lo := chunk * per
		qs := queries(fx.measured, lo, lo+per)
		id := tr.begin(span, parent, int64(pass))
		cpu0, t := cpuSeconds(), time.Now()
		res, err := search(qs)
		g := segment{wall: time.Since(t).Seconds(), cpu: cpuSeconds() - cpu0, n: int64(per)}
		tr.end(id)
		r.ops(1, 0)
		if err != nil {
			r.ops(0, 1)
			return g, fmt.Errorf("pass %d: %w", pass, err)
		}
		if pass == 0 && len(res.IDs) > 0 {
			c := r.corrupt(res.Query(0))
			res.IDs[0], res.Items[0] = c.IDs, c.Items
		}
		r.sameChunk(fmt.Sprintf("pass %d vs deterministic pass", pass), res, ref, lo)
		return g, nil
	}
	if warm {
		start := time.Now()
		for i := 0; i < warmupPasses || time.Since(start) < r.capped(warmupTime); i++ {
			if _, err := onePass(-1 - i); err != nil {
				return nil, nil, err
			}
		}
	}
	var segs []segment
	var lat []time.Duration
	start := time.Now()
	for nextBurst := time.Duration(0); time.Since(start) < dur || len(segs) == 0; {
		if time.Since(start) >= nextBurst {
			nextBurst += singleEvery
			var err error
			if lat, err = r.singleBurst(fx, ref, search, lat); err != nil {
				return segs, lat, err
			}
		}
		g, err := onePass(len(segs))
		if err != nil {
			return segs, lat, err
		}
		segs = append(segs, g)
	}
	return segs, lat, nil
}

// singleBurst is latencySegment one-query SearchBatch calls, one measured
// query after another; it appends their latencies to lat. Every answer is
// checked.
func (r *run) singleBurst(fx fixture, ref *engine.Result, search searchFn, lat []time.Duration) ([]time.Duration, error) {
	var bad int64
	for i := 0; i < latencySegment; i++ {
		qi := len(lat) % fx.measured.N
		t := time.Now()
		res, err := search(queries(fx.measured, qi, qi+1))
		lat = append(lat, time.Since(t))
		if err != nil {
			r.ops(int64(i+1), bad+1)
			return lat, fmt.Errorf("single query %d: %w", qi, err)
		}
		if !sameAnswer(res.Query(0), ref.Query(qi)) {
			if bad++; bad == 1 {
				fmt.Fprintf(r.log, "FAIL %s: query %d alone: got %v want %v\n", r.workload, qi, res.IDs[0], ref.IDs[qi])
			}
		}
	}
	r.ops(latencySegment, bad)
	return lat, nil
}

// hostMetrics reports the host-clock figures of a timed phase: the quiet
// statistics over its segments (end-to-end) and, beside them, the median
// and the mean over the same segments, which carry whatever the neighbours
// did during the run. Throughput and CPU cost may come from different
// phases of a workload.
func (r *run) hostMetrics(rateSegs, cpuSegs []segment) {
	r.setSampled("wall_qps", quietRate(rates(rateSegs)), len(rateSegs))
	r.setSampled("cpu_ms_per_query", quietCost(cpuMSPerOp(cpuSegs)), len(cpuSegs))
	r.set("host.wall_qps_median", median(rates(rateSegs)))
	r.set("host.cpu_ms_per_query_mean", meanCPUMSPerOp(cpuSegs))
}

// latencyMetrics reports p50 and p95 of latencies taken in completion
// order: the quiet statistic over segments of latencySegment samples.
func (r *run) latencyMetrics(lat []time.Duration) {
	r.setSampled("lat_p50_ms", quietCost(segmentPercentilesMS(lat, latencySegment, 0.50)), len(lat))
	r.setSampled("lat_p95_ms", quietCost(segmentPercentilesMS(lat, latencySegment, 0.95)), len(lat))
	r.set("host.lat_p50_ms_all", percentileMS(slices.Clone(lat), 0.50))
}

// offlinePhases measures an offline workload. Traced, the time is split
// into an untraced and a traced half, so the tracing overhead is a ratio
// taken inside one process, and the traced half gives the layer's search
// time per query (usPerQuery names that metric).
func (r *run) offlinePhases(fx fixture, ref *engine.Result, search searchFn, span, usPerQuery string) error {
	dur := r.seconds
	if r.tr != nil {
		dur /= 2
	}
	segs, lat, err := r.passLoop(nil, span, -1, fx, ref, true, dur, search)
	if err != nil {
		return err
	}
	r.hostMetrics(segs, segs)
	r.latencyMetrics(lat)
	if r.tr != nil {
		phase := r.tr.begin("measure", r.root, -1)
		on, _, err := r.passLoop(r.tr, span, phase, fx, ref, false, dur, search)
		r.tr.end(phase)
		if err != nil {
			return err
		}
		r.set("trace.overhead_ratio", quietCost(cpuMSPerOp(on))/quietCost(cpuMSPerOp(segs)))
		r.set(usPerQuery, 1e6/quietRate(rates(on)))
	}
	return nil
}

// runOfflineIVF: the paper's offline-batch regime. core, ivf, vecmath,
// sched, topk and layout do all the work; serve, cluster, durable and graph
// do none.
func runOfflineIVF(r *run) error {
	fx := r.makeFixture(r.z.n, 0)
	dep, err := r.deployIVF(fx)
	if err != nil {
		return err
	}
	ref, err := r.detPass(fx, "core.SearchBatch", r.root, dep.eng.SearchBatch)
	if err != nil {
		return err
	}
	r.coreCounters(dep.eng, &ref.Metrics)
	if err := r.offlinePhases(fx, ref, dep.eng.SearchBatch, "core.SearchBatch", "core.search_us_per_query"); err != nil {
		return err
	}
	if r.tr != nil {
		r.probeKernels(fx)
		return r.probeIVFLayers(fx, dep, ref)
	}
	return nil
}

// runOfflineGraph: the second backend alone. graph does all the work, core,
// ivf, sched and layout none — the control for every IVF optimisation.
func runOfflineGraph(r *run) error {
	fx := r.makeFixture(r.z.graphN, 0)
	opts := graph.DefaultOptions()
	opts.NumDPUs, opts.K = numDPUs, topK
	var g *graph.Engine
	sec, err := r.timed("graph.New", r.root, func() (err error) {
		g, err = graph.New(fx.base, opts)
		return err
	})
	if err != nil {
		return err
	}
	r.set("graph.build_s", sec)
	r.set("setup_s", sec)
	ref, err := r.detPass(fx, "graph.SearchBatch", r.root, g.SearchBatch)
	if err != nil {
		return err
	}
	r.set("graph.evals_per_query", float64(ref.Metrics.PointsScanned)/float64(ref.Metrics.Queries))
	mf := g.MemoryFootprint()
	r.set("graph.mem_mb", float64(mf.SharedBytes+mf.PerReplicaBytes)/(1<<20))
	if err := r.offlinePhases(fx, ref, g.SearchBatch, "graph.SearchBatch", "graph.search_us_per_query"); err != nil {
		return err
	}
	if r.tr != nil {
		r.probeKernels(fx)
	}
	return nil
}
