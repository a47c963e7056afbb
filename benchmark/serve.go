package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drimann/internal/engine"
	"drimann/internal/serve"
)

// openStats is what one open-loop phase measured, warm-up already dropped.
type openStats struct {
	samples []olSample
	respLat []time.Duration // serve's own enqueue-to-demux latency per request
	segs    []segment       // searchSegment requests each, cut where they were sent
}

// openPhase drives srv with the fixed-rate open loop for warm-up + dur and
// checks every response against the offline answer for its query (batching
// invariance). Requests cycle through the measured queries.
func (r *run) openPhase(tr *tracer, parent int, srv *serve.Server, fx fixture, ref *engine.Result, dur time.Duration) openStats {
	warm := r.capped(openLoopWarmup)
	warmN := int(openLoopRate * warm.Seconds())
	n := warmN + int(openLoopRate*dur.Seconds())
	nq := fx.measured.N
	respLat := make([]time.Duration, n)
	var failed atomic.Int64
	seg := newSegmenter(searchSegment)
	samples := openLoop{rate: openLoopRate, n: n}.run(func(i int) {
		seg.done(1) // counted when sent: in a steady open loop as many complete meanwhile
		qi := i % nq
		id := tr.begin("serve.Search", parent, int64(i))
		resp, err := srv.Search(context.Background(), fx.measured.Vec(qi), 0)
		tr.end(id)
		got := engine.QueryResult{IDs: resp.IDs, Items: resp.Items}
		if i == warmN {
			got = r.corrupt(got)
		}
		if err != nil || !sameAnswer(got, ref.Query(qi)) {
			if failed.Add(1) == 1 {
				fmt.Fprintf(r.log, "FAIL %s: open-loop request %d (query %d): err=%v got %v want %v\n",
					r.workload, i, qi, err, got.IDs, ref.IDs[qi])
			}
		}
		respLat[i] = resp.Latency
	})
	r.ops(int64(n), failed.Load())
	return openStats{
		samples: samples[warmN:],
		respLat: respLat[warmN:],
		segs:    seg.segments(warm, time.Duration(float64(n)/openLoopRate*float64(time.Second))),
	}
}

// closedPhase drives srv with closedLoopCallers callers, each sending its
// next query when the previous one answers, for warm + dur. It returns the
// segments of searchSegment completions after the warm-up.
func (r *run) closedPhase(srv *serve.Server, fx fixture, ref *engine.Result, warm, dur time.Duration) []segment {
	nq := fx.measured.N
	var (
		wg     sync.WaitGroup
		total  atomic.Int64
		failed atomic.Int64
	)
	seg := newSegmenter(searchSegment)
	deadline := seg.start.Add(warm + dur)
	for c := 0; c < closedLoopCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				qi := (c + i*closedLoopCallers) % nq
				resp, err := srv.Search(context.Background(), fx.measured.Vec(qi), 0)
				seg.done(1)
				total.Add(1)
				if err != nil || !sameAnswer(engine.QueryResult{IDs: resp.IDs, Items: resp.Items}, ref.Query(qi)) {
					if failed.Add(1) == 1 {
						fmt.Fprintf(r.log, "FAIL %s: closed-loop query %d: err=%v got %v want %v\n",
							r.workload, qi, err, resp.IDs, ref.IDs[qi])
					}
				}
			}
		}(c)
	}
	wg.Wait()
	r.ops(total.Load(), failed.Load())
	return seg.segments(warm, warm+dur)
}

// runServeOnline: the same index and engine behind the online batcher.
// serve (queueing, batch formation, demux) dominates latency while the
// engine runs small batches — the opposite engine regime from offline-ivf.
// Phase A is an open loop at a fixed rate (latency, timed from the due
// time); phase B a closed loop (saturation throughput).
func runServeOnline(r *run) error {
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

	// Everything that calls the engine directly happens before the server
	// starts: from then on the batcher is the engine's only driver.
	var directQPS float64
	if r.tr != nil {
		segs, _, err := r.passLoop(r.tr, "core.SearchBatch", r.root, fx, ref, true, r.seconds/8, dep.eng.SearchBatch)
		if err != nil {
			return err
		}
		directQPS = quietRate(rates(segs))
		r.set("core.search_us_per_query", 1e6/directQPS)
		r.probeKernels(fx)
		if err := r.probeIVFLayers(fx, dep, ref); err != nil {
			return err
		}
	}

	var srv *serve.Server
	startSec, err := r.timed("serve.New", r.root, func() (err error) {
		srv, err = serve.New(dep.eng, serve.Options{MaxWait: serveMaxWait})
		return err
	})
	if err != nil {
		return err
	}
	r.add("setup_s", startSec) // server start is part of what a user waits for

	durA := time.Duration(float64(r.seconds) * openLoopShare)
	durB := r.seconds - durA
	var open openStats
	if r.tr == nil {
		open = r.openPhase(nil, -1, srv, fx, ref, durA)
	} else {
		off := r.openPhase(nil, -1, srv, fx, ref, durA/2)
		phase := r.tr.begin("measure.open", r.root, -1)
		open = r.openPhase(r.tr, phase, srv, fx, ref, durA/2)
		r.tr.end(phase)
		r.set("trace.overhead_ratio", meanCPUMSPerOp(open.segs)/meanCPUMSPerOp(off.segs))
	}
	phase := r.tr.begin("measure.closed", r.root, -1)
	warmB := r.capped(closedLoopWarmup)
	closed := r.closedPhase(srv, fx, ref, warmB, durB)
	r.tr.end(phase)
	if err := srv.Close(); err != nil {
		return err
	}
	st := srv.Stats()
	r.check(st.Enqueued == st.Completed+st.Canceled+st.Failed,
		"serve ledger: enqueued %d != completed %d + canceled %d + failed %d", st.Enqueued, st.Completed, st.Canceled, st.Failed)

	lat := make([]time.Duration, len(open.samples))
	late := make([]time.Duration, len(open.samples))
	client := make([]time.Duration, len(open.samples))
	for i, s := range open.samples {
		lat[i], late[i], client[i] = s.latency(), s.lateness(), s.done-s.sent
	}
	// Throughput and CPU cost are the closed loop's, where the machine is
	// kept busy. In the open loop the CPU a request costs depends on how
	// full the batches happen to form (0.22 or 0.31 ms, for stretches of a
	// run or whole runs): it is reported, as a mean, but carries no bound.
	r.hostMetrics(closed, closed)
	r.set("serve.open_cpu_ms_per_query", meanCPUMSPerOp(open.segs))
	r.latencyMetrics(lat)

	r.setSampled("serve.lat_p99_ms", percentileMS(lat, 0.99), len(lat))
	r.setSampled("serve.gen_late_p99_ms", percentileMS(late, 0.99), len(late))
	r.set("serve.gen_late_max_ms", percentileMS(late, 1))
	r.set("serve.client_overhead_ms", percentileMS(client, 0.50)-percentileMS(open.respLat, 0.50))
	r.set("serve.mean_batch", st.MeanBatch)
	r.set("serve.batches", float64(st.Batches))
	r.set("serve.avg_latency_ms", st.AvgLatency.Seconds()*1e3)
	r.set("serve.canceled", float64(st.Canceled))
	r.set("serve.failed", float64(st.Failed))
	r.set("serve.rejected", float64(st.Rejected))
	if directQPS > 0 {
		r.set("serve.saturation_vs_direct", quietRate(rates(closed))/directQPS)
	}
	return nil
}
