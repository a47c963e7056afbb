// The step loop: one search call's launches over every engine that answers
// it — one for Engine.SearchBatch, all replicas of all shards for a sharded
// front door (internal/cluster). The caller hands over each query's probe
// list; Steps cuts every scheduling batch into waves (leadProbes), launches
// them as the package doc describes, merges at the barriers, keeps the clock.

package core

import (
	"math"

	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/sched"
	"drimann/internal/topk"
)

// lane is one engine's side of a search call: its schedule storage, the tasks
// it postponed from launch to launch, and its share of the call's Metrics.
type lane struct {
	e       *Engine
	m       Metrics
	carried []sched.Task
	sb      sched.Batch
	scfg    sched.Config

	// table maps the engine's point ids to the call's (a shard's local→global
	// table); part holds a step's partial top-k by query, in the engine's ids.
	// A nil table: the ids are the call's own, part is the call's merge heaps
	// and a launch folds its results straight into them.
	table []int32
	part  []*topk.Heap[uint32]

	// One step: the requests in; out, the launch's seconds max(PIM, transfer)
	// and the seconds the engine's host spent merging its DPUs' partials.
	reqs                []sched.Request
	launchSec, mergeSec float64
}

// Steps runs one search call as a sequence of synchronous steps. Per
// scheduling batch the caller cuts every query's probes into requests (Cut)
// and launches a step (Step); Finish launches what is left and returns the
// answers. Query ids are positions in the call's query set.
type Steps struct {
	queries dataset.U8Set
	loc     *Locator  // the front door: its host merges what the lanes return
	shards  [][]*lane // by shard, then replica
	lanes   []*lane
	active  []*lane // the lanes of the step being launched

	// Per-query merge state: the K best results so far and, once K exist,
	// their worst distance — the bound later steps forward. The kernels of a
	// step only read bounds; the barrier after it rewrites them.
	best   []*topk.Heap[uint32]
	bounds []uint32
	buf    []topk.Item[uint32]

	// reqs[p][s] is what shard s scans in the next step of parity p. The next
	// step's list begins with from[s] second-wave requests of the batch before;
	// the batch being cut adds its first wave behind them.
	reqs    [2][][]sched.Request
	from    []int
	touched []int // Cut's: 1 + the last query to reach the shard

	t, batches    int
	late, pending bool // the next step has a second wave, postponed tasks

	// The clock rolls up per scheduling batch: host and pim run from the step
	// that brings a batch in until the one that brings in the next.
	host, pim       float64
	hostSec, simSec float64
}

// NewSteps starts a search call over queries on fleet, one row of replica
// engines per shard. tables[s] maps shard s's point ids to the call's; nil
// tables is one engine answering in its own ids. loc is the front door's
// locator: its host is charged for merging what the lanes return.
func NewSteps(queries dataset.U8Set, fleet [][]*Engine, tables [][]int32, loc *Locator) *Steps {
	st := &Steps{
		queries: queries, loc: loc,
		best:   make([]*topk.Heap[uint32], queries.N),
		bounds: make([]uint32, queries.N),
		reqs:   [2][][]sched.Request{make([][]sched.Request, len(fleet)), make([][]sched.Request, len(fleet))},
		from:   make([]int, len(fleet)), touched: make([]int, len(fleet)),
	}
	for i := range st.bounds {
		st.bounds[i] = math.MaxUint32
	}
	for s, engines := range fleet {
		for _, e := range engines {
			ln := e.newLane(queries.N, st.bounds)
			ln.part = st.best
			if tables != nil {
				ln.table, ln.part = tables[s], make([]*topk.Heap[uint32], queries.N)
			}
			st.lanes = append(st.lanes, ln)
		}
		st.shards = append(st.shards, st.lanes[len(st.lanes)-len(engines):])
	}
	return st
}

// newLane starts this engine's side of a call over n queries whose bounds the
// call keeps in bounds: the scheduler prices each task by its probe's distance
// from its query's bound (Share) and may postpone it only if there is one.
func (e *Engine) newLane(n int, bounds []uint32) *lane {
	// Query ids are only unique within a call: drop the gather tables cached
	// during a previous one.
	e.groups.resetQE(n)
	ln := &lane{e: e}
	ln.scfg = sched.Config{Th3: e.opts.Th3, Rebalance: e.opts.Rebalance, Cost: func(t sched.Task) (float64, bool) {
		b := bounds[t.Query]
		return e.lc.heat[t.Slice] * e.Share(t.Dist, b), b != math.MaxUint32
	}}
	return ln
}

// Cut adds query qi's probes, in CL order and with their CL distances, to the
// scheduling batch being cut, a probe of cluster c going to the shards
// owners(c) that hold a part of it.
// The first wave (leadProbes, a cluster's live points summed over its owners)
// joins the step about to launch, which may already hold the second wave of
// the batch before; the probes that wait for the bounds form the step after
// it. It returns how many shards the query reaches, and how many of them with
// a first-wave probe.
func (st *Steps) Cut(qi int, probes []int32, dists []uint32, owners func(c int32) []int32) (fanout, leadFanout int) {
	lead := leadProbes(probes, st.lanes[0].e.opts.K, func(c int32) (live int) {
		for _, s := range owners(c) {
			live += st.shards[s][0].e.LiveLen(c)
		}
		return live
	})
	for i, c := range probes {
		wave := st.reqs[st.t&1]
		if i >= lead {
			wave = st.reqs[(st.t+1)&1]
		}
		for _, s := range owners(c) {
			wave[s] = append(wave[s], sched.Request{Query: int32(qi), Cluster: c, Dist: dists[i]})
			if st.touched[s] != qi+1 {
				st.touched[s] = qi + 1
				fanout++
				if i < lead { // a query's leading probes come first
					leadFanout++
				}
			}
		}
	}
	return fanout, leadFanout
}

// Step launches the batch just cut — its first wave, beside the second wave
// the batch before it left — and reports whether the batch was split. One that
// gives the fleet's DPUs fewer than two tasks each is not: it rides this step
// whole and unbounded, too small to spread as well, on replica 0 of every
// shard it reaches. clSec is the host time of the batch's cluster locating, if
// the caller charges it per batch.
func (st *Steps) Step(clSec float64) (split bool) {
	st.batches++
	st.closeBatch(clSec)
	lead, rest := st.reqs[st.t&1], st.reqs[(st.t+1)&1]
	tasks := 0
	for s, ls := range st.shards {
		tasks += ls[0].e.taskCount(lead[s][st.from[s]:]) + ls[0].e.taskCount(rest[s])
		split = split || len(rest[s]) > 0
	}
	if split = split && tasks >= 2*len(st.lanes)*st.lanes[0].e.opts.NumDPUs; !split {
		for s := range lead {
			lead[s], rest[s] = append(lead[s], rest[s]...), rest[s][:0]
		}
	}
	st.launch(split, false)
	return split
}

// Finish launches the last batch's second wave, then one drain step after
// another while tasks stay postponed, and returns the answers with the call's
// Metrics: counters summed over the lanes, the clock as Steps kept it. callSec
// is host time charged once and overlapped with the whole call (a fleet's CL).
func (st *Steps) Finish(callSec float64) *Result {
	for st.late || st.pending {
		st.launch(false, true)
	}
	st.closeBatch(0)
	res := newResult(st.best)
	m := &res.Metrics
	for _, ln := range st.lanes {
		m.MergeParallel(&ln.m)
	}
	m.Queries, m.Batches = st.queries.N, st.batches
	m.HostSeconds, m.SimSeconds = callSec+st.hostSec, math.Max(callSec, st.simSec)
	if m.SimSeconds > 0 {
		m.QPS = float64(m.Queries) / m.SimSeconds
	}
	return res
}

// closeBatch books the batch whose clock was running and starts the next's,
// host seconds of CL already on it.
func (st *Steps) closeBatch(host float64) {
	st.hostSec += st.host
	st.simSec += math.Max(st.host, st.pim)
	st.host, st.pim = host, 0
}

// launch runs one step: every lane with requests or postponed tasks launches,
// side by side; at the barrier the front door folds what they return into the
// queries' heaps and bounds. A second wave is spread over all replicas of its
// shard; so is the batch just cut if it was split (an unsplit one is not in
// query order). The steps of Finish come last: the first of them has the last
// batch's second wave, the others are drains — only postponed tasks remain.
//
// Simulated time is barrier by barrier. A step takes as long as its slowest
// lane — launch, then that engine's host merging its DPUs' partials — and the
// front door's merge follows; the next step ships the bounds that produced, so
// all of it is on the PIM side's critical path. Nothing waits for the merges
// after a call's last step: like CL, they are host work beside the PIM side,
// as in SimSeconds = Σ max(host, pim+xfer).
func (st *Steps) launch(split, last bool) {
	drain := last && !st.late
	st.late = split
	reqs := st.reqs[st.t&1]
	st.active = st.active[:0]
	for s, ls := range st.shards {
		own := ls[:1]
		if split {
			own = ls
		}
		st.spread(ls, reqs[s][:st.from[s]])
		st.spread(own, reqs[s][st.from[s]:])
		for _, ln := range ls {
			if len(ln.reqs) > 0 || len(ln.carried) > 0 {
				st.active = append(st.active, ln)
			}
		}
	}
	// A lane schedules its requests, plus whatever its earlier launches
	// postponed, and runs them as one launch in which query q's scans prune
	// against bounds[q] (MaxUint32: nothing to prune against yet). In a drain
	// step the overheat threshold doubles, so postponing stops.
	parallelFor(len(st.active), len(st.active), func(_, i int) {
		ln := st.active[i]
		ln.e.groups.step = st.t
		if drain {
			ln.scfg.Th3 *= 2
		}
		sched.GreedyInto(&ln.sb, ln.reqs, ln.carried, ln.e.pl, ln.scfg)
		ln.reqs, ln.carried = ln.reqs[:0], append(ln.carried[:0], ln.sb.Postponed...)
		ln.m.Postponed += len(ln.sb.Postponed)
		ln.launchSec, ln.mergeSec = ln.e.runLaunch(&ln.sb, st.queries, ln.part, st.bounds, &ln.m)
	})

	k, items := st.lanes[0].e.opts.K, 0
	var launchSec, shardSec, shardMerge float64
	st.pending = false
	for _, ln := range st.active {
		for i, key := range ln.e.groups.keys { // the launch's groups, by query
			q := key.q
			if i > 0 && q == ln.e.groups.keys[i-1].q {
				continue
			}
			if h := ln.part[q]; ln.table != nil && h != nil && h.Len() > 0 {
				if st.best[q] == nil {
					st.best[q] = topk.NewHeap[uint32](k)
				}
				st.buf = h.SortedInto(st.buf)
				for _, it := range st.buf {
					st.best[q].Push(ln.table[it.ID], it.Dist)
				}
				items += len(st.buf)
				h.Reset()
			}
			if h := st.best[q]; h != nil {
				if th, full := h.Threshold(); full {
					st.bounds[q] = th
				}
			}
		}
		st.pending = st.pending || len(ln.carried) > 0
		launchSec = math.Max(launchSec, ln.launchSec)
		shardSec = math.Max(shardSec, ln.launchSec+ln.mergeSec)
		shardMerge = math.Max(shardMerge, ln.mergeSec)
	}
	frontSec := engine.HostMergeSeconds(items, k)
	st.host += shardMerge + frontSec
	if st.batches*st.lanes[0].e.opts.BatchSize < st.queries.N || st.late || st.pending { // another step follows
		st.pim += shardSec + frontSec
	} else {
		st.pim += launchSec
	}
	st.t++
	for s := range reqs {
		reqs[s], st.from[s] = reqs[s][:0], len(st.reqs[st.t&1][s])
	}
}

// spread hands one wave of a shard's step — reqs, in query order — to the
// shard's replicas: contiguous query ranges of near-equal load at the
// scheduler's own price (ProbeCycles), so a query's tasks of the wave stay on
// one engine. A step's two waves are spread one by one: every replica gets its
// share of each kind, and most of a query's second wave lands where its first
// left the gather table.
func (st *Steps) spread(lanes []*lane, reqs []sched.Request) {
	if len(lanes) == 1 {
		lanes[0].reqs = append(lanes[0].reqs, reqs...)
		return
	}
	e := lanes[0].e
	price := func(r sched.Request) float64 { return e.ProbeCycles(r.Cluster, r.Dist, st.bounds[r.Query]) }
	var total, acc float64
	for _, r := range reqs {
		total += price(r)
	}
	i := 0
	for r, ln := range lanes {
		from, share := i, total*float64(r+1)/float64(len(lanes))
		for i < len(reqs) && (r == len(lanes)-1 || acc < share || (i > from && reqs[i].Query == reqs[i-1].Query)) {
			acc += price(reqs[i])
			i++
		}
		ln.reqs = append(ln.reqs, reqs[from:i]...)
	}
}

// leadProbes cuts a query's probe list, in CL order, into waves: it returns
// how many leading probes form the first — the shortest prefix whose lists
// hold waveFill x k live points, live(c) counting cluster c's on every engine
// that holds a part of it.
func leadProbes(probes []int32, k int, live func(c int32) int) int {
	n, fill := 0, waveFill*k
	for i, c := range probes {
		if n >= fill {
			return i
		}
		n += live(c)
	}
	return len(probes)
}

// LiveLen is the number of live points cluster c holds on this engine: its
// list less the tombstoned, plus the append segment.
func (e *Engine) LiveLen(c int32) int {
	return e.ix.ListLen(int(c)) - len(e.ix.Tombstoned(int(c))) + e.ix.AppendLen(int(c))
}

// newResult reads every query's answer out of its merge heap, in ascending
// (distance, id) order; a query with no partials keeps nil Items.
func newResult(best []*topk.Heap[uint32]) *Result {
	res := &Result{IDs: make([][]int32, len(best)), Items: make([][]topk.Item[uint32], len(best))}
	for qi, h := range best {
		if h != nil {
			res.Items[qi] = h.Sorted()
		}
		res.IDs[qi] = make([]int32, len(res.Items[qi]))
		for j, it := range res.Items[qi] {
			res.IDs[qi][j] = it.ID
		}
	}
	return res
}
