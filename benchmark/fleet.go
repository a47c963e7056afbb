package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/ivf"
	"drimann/internal/serve"
	"drimann/internal/topk"
)

// fleet is the durable sharded deployment fleet-mutate sets up.
type fleet struct {
	ix  *ivf.Index
	cl  *cluster.Cluster
	fst *cluster.FleetStore
	dir string
}

func fleetOptions() cluster.Options {
	return cluster.Options{
		Shards: fleetShards, Replicas: fleetReplicas,
		Assignment: cluster.AssignKMeans, Engine: engineOptions(),
	}
}

// deployFleet is what a user pays before the first query: index build,
// sharded deployment, and the durable store (initial checkpoints, fsynced)
// on the real filesystem.
func (r *run) deployFleet(fx fixture) (fleet, error) {
	var f fleet
	parent := r.tr.begin("setup", r.root, -1)
	defer r.tr.end(parent)
	buildSec, err := r.timed("ivf.Build", parent, func() (err error) {
		f.ix, err = ivf.Build(fx.base, r.z.buildConfig())
		return err
	})
	if err != nil {
		return f, err
	}
	newSec, err := r.timed("cluster.New", parent, func() (err error) {
		f.cl, err = cluster.New(f.ix, fx.profile, fleetOptions())
		return err
	})
	if err != nil {
		return f, err
	}
	if f.dir, err = os.MkdirTemp(r.tmpRoot, "fleet-"); err != nil {
		return f, err
	}
	createSec, err := r.timed("cluster.CreateFleetStore", parent, func() (err error) {
		f.fst, err = cluster.CreateFleetStore(f.cl, durable.Options{Dir: filepath.Join(f.dir, "store"), Policy: durable.SyncEveryBatch})
		return err
	})
	if err != nil {
		return f, err
	}
	r.set("ivf.build_s", buildSec)
	r.set("cluster.new_s", newSec)
	r.set("durable.create_s", createSec)
	r.set("setup_s", buildSec+newSec+createSec)
	return f, nil
}

// mutation is the writer's deterministic script: iteration i inserts the
// next insertBatch reserve vectors and deletes the deleteBatch lowest ids
// inserted deleteLag iterations earlier. The oracle replays the same script.
type mutation struct {
	insIDs []int32
	insVec dataset.U8Set
	delIDs []int32
}

func mutationAt(fx fixture, i int) (mutation, bool) {
	lo, hi := i*insertBatch, (i+1)*insertBatch
	if hi > fx.reserve.N {
		return mutation{}, false
	}
	d := fx.reserve.D
	m := mutation{insVec: dataset.U8Set{N: insertBatch, D: d, Data: fx.reserve.Data[lo*d : hi*d]}}
	for j := lo; j < hi; j++ {
		m.insIDs = append(m.insIDs, int32(fx.base.N+j))
	}
	if i >= deleteLag {
		for j := 0; j < deleteBatch; j++ {
			m.delIDs = append(m.delIDs, int32(fx.base.N+(i-deleteLag)*insertBatch+j))
		}
	}
	return m, true
}

// wellFormed checks an in-flight answer: k neighbors, in (distance, id)
// order, ids inside corpus ∪ reserve. (Its content depends on which
// mutations it raced with, so it cannot be compared with a fixed answer.)
func wellFormed(resp cluster.Response, idLimit int32) bool {
	if len(resp.IDs) != topK || len(resp.Items) != topK {
		return false
	}
	for i, it := range resp.Items {
		if it.ID != resp.IDs[i] || it.ID < 0 || it.ID >= idLimit {
			return false
		}
		if i > 0 && !topk.Less(resp.Items[i-1], it) {
			return false
		}
	}
	return true
}

type readSample struct {
	done, lat time.Duration // completion offset from the phase start; reader-observed latency
}

// mutateStats is what the read+write phase measured.
type mutateStats struct {
	reads      []readSample // completions at or after from, sorted by done
	readOnly   []readSample // completions in the read-only lead-in, after its own warm-up
	segs       []segment    // searchSegment reads each, inside [from, to)
	from, to   time.Duration
	ack        []time.Duration // writer-observed Insert/Delete latencies
	points     int             // acknowledged inserted+deleted points
	iterations int             // mutation script iterations applied
	issued     int             // reads the readers completed over the whole phase
	overhead   float64         // traced CPU per read / untraced (traced run only)
}

// mutatePhase runs fleetReaders closed-loop readers for the whole phase and,
// after a read-only lead-in that doubles as the warm-up, one writer for
// dur. On a traced run the first half of the writer's window runs without
// spans and the second half with them.
func (r *run) mutatePhase(srv *cluster.Server, fx fixture, dur time.Duration) (mutateStats, error) {
	nq := fx.measured.N
	idLimit := int32(fx.base.N + fx.reserve.N)
	st := mutateStats{from: r.capped(fleetReadOnly)}
	st.to = st.from + dur
	traceFrom := st.to // no spans
	if r.tr != nil {
		traceFrom = st.from + dur/2
	}
	phase := r.tr.begin("measure", r.root, -1)
	defer r.tr.end(phase)

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		all    []readSample
		failed atomic.Int64
		stop   atomic.Bool
	)
	seg := newSegmenter(searchSegment)
	start := seg.start
	for c := 0; c < fleetReaders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []readSample
			for i := 0; !stop.Load(); i++ {
				qi := (c + i*fleetReaders) % nq
				t := time.Since(start)
				id := -1
				if t >= traceFrom {
					id = r.tr.begin("cluster.Server.Search", phase, int64(c)<<32|int64(i))
				}
				resp, err := srv.Search(context.Background(), fx.measured.Vec(qi), 0)
				if id >= 0 {
					r.tr.end(id)
				}
				done := time.Since(start)
				seg.done(1)
				local = append(local, readSample{done: done, lat: done - t})
				if err != nil || !wellFormed(resp, idLimit) {
					if failed.Add(1) == 1 {
						fmt.Fprintf(r.log, "FAIL %s: in-flight read of query %d: err=%v ids=%v\n", r.workload, qi, err, resp.IDs)
					}
				}
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}(c)
	}

	// The writer runs on this goroutine.
	time.Sleep(time.Until(start.Add(st.from)))
	var werr error
	for i := 0; time.Since(start) < st.to; i++ {
		m, ok := mutationAt(fx, i)
		if !ok {
			st.to = time.Since(start) // reserve exhausted: the phase ends here
			break
		}
		traced := time.Since(start) >= traceFrom
		mutate := func(name string, points int, fn func() error) {
			id := -1
			if traced {
				id = r.tr.begin(name, phase, int64(i))
			}
			t := time.Now()
			err := fn()
			st.ack = append(st.ack, time.Since(t))
			if id >= 0 {
				r.tr.end(id)
			}
			r.ops(1, 0)
			if err != nil {
				r.ops(0, 1)
				werr = fmt.Errorf("%s at iteration %d: %w", name, i, err)
				return
			}
			st.points += points
		}
		mutate("cluster.Server.Insert", len(m.insIDs), func() error { return srv.Insert(m.insVec, m.insIDs) })
		if werr == nil && len(m.delIDs) > 0 {
			mutate("cluster.Server.Delete", len(m.delIDs), func() error { return srv.Delete(m.delIDs) })
		}
		if werr != nil {
			break
		}
		st.iterations++
		time.Sleep(writerPause)
	}
	stop.Store(true)
	wg.Wait()
	if werr != nil {
		return st, werr
	}
	r.ops(int64(len(all)), failed.Load())
	st.issued = len(all)

	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	readsIn := func(lo, hi time.Duration) []readSample {
		i := sort.Search(len(all), func(i int) bool { return all[i].done >= lo })
		j := sort.Search(len(all), func(i int) bool { return all[i].done >= hi })
		return all[i:j]
	}
	st.readOnly = readsIn(st.from/4, st.from)
	st.reads = readsIn(st.from, st.to)
	if len(st.reads) == 0 {
		return st, fmt.Errorf("no read completed in the timed phase")
	}
	st.segs = seg.segments(st.from, st.to)
	if r.tr != nil {
		// Both halves ran beside the writer; the second also carried spans.
		off, on := seg.segments(st.from, traceFrom), seg.segments(traceFrom, st.to)
		if len(off) > 0 && len(on) > 0 {
			st.segs = off
			st.overhead = quietCost(cpuMSPerOp(on)) / quietCost(cpuMSPerOp(off))
		}
	}
	if len(st.segs) == 0 {
		return st, fmt.Errorf("no segment of %d reads completed in the timed phase", searchSegment)
	}
	return st, nil
}

func lats(rs []readSample) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i, s := range rs {
		out[i] = s.lat
	}
	return out
}

// runFleetMutate: writes beside reads on a durable, sharded, replicated
// fleet — the same serve/core/ivf code used differently. Mutations park
// every batcher, grow append segments the DPU phase must scan, and fsync.
// Then the fleet is abandoned without a checkpoint, recovered from its
// store, and checked against an oracle.
func runFleetMutate(r *run) error {
	fx := r.makeFixture(r.z.n, r.z.reserve)
	f, err := r.deployFleet(fx)
	if err != nil {
		return err
	}
	defer f.fst.Close() // the run's scratch directory is removed with the run
	copt := fleetOptions()

	// Before the server starts: the deterministic pass on the pristine
	// fleet, and sharded ≡ single engine.
	ref, err := r.detPass(fx, "cluster.SearchBatch", r.root, f.cl.SearchBatch)
	if err != nil {
		return err
	}
	var single *core.Engine
	sec, err := r.timed("core.New", r.root, func() (err error) {
		single, err = core.New(f.ix, fx.profile, copt.Engine)
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.deploy_s", sec)
	want, err := single.SearchBatch(fx.measured)
	if err != nil {
		return err
	}
	r.sameResults("pristine Cluster.SearchBatch vs single core.Engine", ref, want)
	r.coreCounters(single, &want.Metrics)
	var img bytes.Buffer // the index image the oracle redeploys from
	if err := f.ix.Save(&img); err != nil {
		return err
	}
	if r.tr != nil {
		secs := make([]float64, 3)
		for i := range secs {
			if secs[i], err = r.timed("cluster.SearchBatch", r.root, func() error {
				_, err := f.cl.SearchBatch(fx.measured)
				return err
			}); err != nil {
				return err
			}
		}
		r.set("cluster.offline_us_per_query", median(secs)*1e6/float64(fx.measured.N))
		r.probeKernels(fx)
		if err := r.probeIVFLayers(fx, ivfDeploy{ix: f.ix, eng: single}, want); err != nil {
			return err
		}
		if err := r.probeDurable(fx); err != nil {
			return err
		}
	}

	var srv *cluster.Server
	startSec, err := r.timed("cluster.NewServerRouted", r.root, func() (err error) {
		srv, err = cluster.NewServerRouted(f.cl, serve.Options{MaxWait: serveMaxWait}, cluster.RouteOptions{})
		return err
	})
	if err != nil {
		return err
	}
	r.add("setup_s", startSec) // server start is part of what a user waits for

	route0 := f.cl.Stats().Route
	ms, err := r.mutatePhase(srv, fx, r.seconds)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	wall := (ms.to - ms.from).Seconds()
	r.hostMetrics(ms.segs, ms.segs)
	r.latencyMetrics(lats(ms.reads))
	r.set("mut_per_s", float64(ms.points)/wall)
	r.setSampled("cluster.mut_ack_p50_ms", percentileMS(ms.ack, 0.50), len(ms.ack))
	r.setSampled("cluster.mut_ack_p95_ms", percentileMS(ms.ack, 0.95), len(ms.ack))
	roWall := (ms.from - ms.from/4).Seconds()
	r.set("cluster.readonly_qps", float64(len(ms.readOnly))/roWall)
	r.setSampled("cluster.readonly_p95_ms", percentileMS(lats(ms.readOnly), 0.95), len(ms.readOnly))
	if ms.overhead > 0 {
		r.set("trace.overhead_ratio", ms.overhead)
	}

	// Ledgers: every admitted request was answered exactly once, at the
	// front door and on every replica.
	ss := srv.Stats()
	r.check(ss.Completed+ss.Canceled+ss.Rejected+ss.Failed == uint64(ms.issued),
		"front-door ledger: completed %d + canceled %d + rejected %d + failed %d != %d reads issued", ss.Completed, ss.Canceled, ss.Rejected, ss.Failed, ms.issued)
	r.check(ss.Agg.Enqueued == ss.Agg.Completed+ss.Agg.Canceled+ss.Agg.Failed,
		"replica ledgers: enqueued %d != completed %d + canceled %d + failed %d", ss.Agg.Enqueued, ss.Agg.Completed, ss.Agg.Canceled, ss.Agg.Failed)
	r.fleetLayerMetrics(ss, route0, wall)

	// Abandon the fleet: its own answers first, then only the store
	// directory survives. Every acknowledged mutation is already synced.
	abandoned, err := f.cl.SearchBatch(fx.measured)
	if err != nil {
		return err
	}
	var overlay, walBytes int64
	for s, sh := range f.cl.Shards() {
		overlay += sh.IVF().Index().MutationBytes()
		st := f.fst.Shard(s)
		if fi, err := os.Stat(filepath.Join(st.Dir(), st.Manifest().WAL)); err == nil {
			walBytes += fi.Size()
		}
	}
	r.set("ivf.overlay_mb", float64(overlay)/(1<<20))
	r.set("durable.wal_mb_replayed", float64(walBytes)/(1<<20))
	if ms.points > 0 {
		r.set("durable.wal_bytes_per_mutation", float64(walBytes)/float64(ms.points))
	}
	if err := f.fst.Close(); err != nil {
		return err
	}

	// Recover identical copies of the abandoned store; each must answer
	// exactly as the abandoned fleet did.
	var recovered *cluster.Cluster
	var recoverSecs []float64
	for c := 0; c < recoverCopies; c++ {
		dir := filepath.Join(f.dir, fmt.Sprintf("copy-%d", c))
		// Harness cost: RecoverCluster rotates the generation it recovers,
		// so each timed recovery gets its own copy of the abandoned store.
		if err := os.CopyFS(dir, os.DirFS(f.fst.Dir())); err != nil {
			return err
		}
		var rc *cluster.Cluster
		var rst *cluster.FleetStore
		sec, err := r.timed("cluster.RecoverCluster", r.root, func() (err error) {
			rc, rst, err = cluster.RecoverCluster(durable.Options{Dir: dir, Policy: durable.SyncEveryBatch}, fx.profile, copt)
			return err
		})
		r.ops(1, 0)
		if err != nil {
			r.ops(0, 1)
			return fmt.Errorf("recover copy %d: %w", c, err)
		}
		defer rst.Close()
		recoverSecs = append(recoverSecs, sec)
		got, err := rc.SearchBatch(fx.measured)
		if err != nil {
			return err
		}
		if c == 0 && len(got.IDs) > 0 {
			cq := r.corrupt(got.Query(0))
			got.IDs[0], got.Items[0] = cq.IDs, cq.Items
		}
		r.sameResults(fmt.Sprintf("recovered copy %d vs abandoned fleet", c), got, abandoned)
		recovered = rc
	}
	r.set("recover_s", median(recoverSecs))

	// The oracle: one core.Engine over the same index image with the same
	// mutation script applied offline. The live fleet, the recovered fleet
	// and the oracle hold the same logical corpus, so they must agree —
	// before compaction and after it.
	loaded, err := ivf.Load(bytes.NewReader(img.Bytes()))
	if err != nil {
		return err
	}
	oracle, err := core.New(loaded, fx.profile, copt.Engine)
	if err != nil {
		return err
	}
	for i := 0; i < ms.iterations; i++ {
		m, _ := mutationAt(fx, i)
		if err := oracle.Insert(m.insVec, m.insIDs); err != nil {
			return err
		}
		if len(m.delIDs) > 0 {
			if err := oracle.Delete(m.delIDs); err != nil {
				return err
			}
		}
	}
	owant, err := oracle.SearchBatch(fx.measured)
	if err != nil {
		return err
	}
	r.sameResults("abandoned fleet vs oracle engine", abandoned, owant)

	sec, err = r.timed("cluster.Compact", r.root, recovered.Compact)
	r.ops(1, 0)
	if err != nil {
		r.ops(0, 1)
		return err
	}
	r.set("cluster.compact_s", sec)
	if err := oracle.Compact(); err != nil {
		return err
	}
	got, err := recovered.SearchBatch(fx.measured)
	if err != nil {
		return err
	}
	if owant, err = oracle.SearchBatch(fx.measured); err != nil {
		return err
	}
	r.sameResults("compacted recovered fleet vs compacted oracle", got, owant)
	r.sameResults("recovered fleet after Compact vs before", got, abandoned)

	sec, err = r.timed("cluster.Checkpoint", r.root, recovered.Checkpoint)
	if err != nil {
		return err
	}
	r.set("cluster.checkpoint_s", sec)
	return nil
}

// fleetLayerMetrics reports the cluster and serve layers' counts over the
// timed phase: fan-out, front-door CL, shard balance, hedging.
func (r *run) fleetLayerMetrics(ss cluster.ServerStats, route0 cluster.RouteStats, wall float64) {
	route := ss.Route
	if dq := route.RoutedQueries - route0.RoutedQueries; dq > 0 {
		r.set("cluster.mean_fanout", float64(route.FanoutSum-route0.FanoutSum)/float64(dq))
	}
	r.set("cluster.max_fanout", float64(route.MaxFanout))
	r.set("cluster.front_cl_share", (route.FrontCLWallSeconds-route0.FrontCLWallSeconds)/wall)
	var maxLoad, sumLoad float64
	for _, sh := range ss.Shards {
		load := float64(sh.Total().Completed)
		maxLoad = max(maxLoad, load)
		sumLoad += load
	}
	if sumLoad > 0 {
		r.set("cluster.shard_load_max_over_mean", maxLoad*float64(len(ss.Shards))/sumLoad)
	}
	if ss.Completed > 0 {
		r.set("cluster.hedged_ratio", float64(ss.Hedged)/float64(ss.Completed))
	}
	if ss.Hedged > 0 {
		r.set("cluster.hedge_win_ratio", float64(ss.HedgeWins)/float64(ss.Hedged))
	}
	r.set("cluster.failovers", float64(ss.Failovers))
	r.set("cluster.breaker_ejections", float64(ss.BreakerEjections))
	r.set("serve.mean_batch", ss.Agg.MeanBatch)
	r.set("serve.batches", float64(ss.Agg.Batches))
	r.set("serve.avg_latency_ms", ss.Agg.AvgLatency.Seconds()*1e3)
	r.set("serve.canceled", float64(ss.Agg.Canceled))
	r.set("serve.failed", float64(ss.Agg.Failed))
	r.set("serve.rejected", float64(ss.Agg.Rejected))
}

// probeDurable prices the WAL on this sandbox's filesystem with a
// stand-alone store: record encoding, appends without fsync, the fsync
// itself (synced minus unsynced batch), and decoding the log back.
func (r *run) probeDurable(fx fixture) error {
	const records = 256
	dir, err := os.MkdirTemp(r.tmpRoot, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m, ok := mutationAt(fx, 0)
	if !ok {
		return fmt.Errorf("reserve smaller than one insert batch")
	}
	var rec []byte
	sec, err := r.timed("durable.EncodeInsert", r.root, func() (err error) {
		for i := 0; i < records; i++ {
			if rec, err = durable.EncodeInsert(m.insIDs, m.insVec.D, m.insVec.Data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("durable.encode_us_per_record", sec*1e6/records)

	perBatch := map[durable.SyncPolicy]float64{}
	var walPath string
	for _, policy := range []durable.SyncPolicy{durable.SyncNever, durable.SyncEveryBatch} {
		st, err := durable.Create(durable.Options{Dir: filepath.Join(dir, policy.String()), Policy: policy},
			func(io.Writer) error { return nil })
		if err != nil {
			return err
		}
		sec, err := r.timed("durable.Store.Append+BatchEnd", r.root, func() error {
			for i := 0; i < records; i++ {
				if err := st.Append(rec); err != nil {
					return err
				}
				if err := st.BatchEnd(); err != nil {
					return err
				}
			}
			return nil
		})
		walPath = filepath.Join(st.Dir(), st.Manifest().WAL)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		perBatch[policy] = sec / records
	}
	r.set("durable.append_us_per_record", perBatch[durable.SyncNever]*1e6)
	r.set("durable.sync_ms_per_batch", (perBatch[durable.SyncEveryBatch]-perBatch[durable.SyncNever])*1e3)

	data, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}
	var recs [][]byte
	sec = r.probe("durable.DecodeWAL", func() { recs, _, err = durable.DecodeWAL(data) })
	if err != nil {
		return err
	}
	r.check(len(recs) == records, "DecodeWAL returned %d records, wrote %d", len(recs), records)
	r.set("durable.decode_mb_per_s", float64(len(data))/(1<<20)/sec)
	return nil
}
