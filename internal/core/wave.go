// The wave primitive: one launch of a scheduling batch under per-query bounds
// its caller supplies. Whoever holds a query's whole probe list cuts the waves
// (LeadProbes) and merges between them: Engine.searchBatch for one engine, a
// sharded front door (internal/cluster) for a fleet, where one bound per query
// is merged over every shard's partial results.

package core

import (
	"math"
	"slices"

	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/sched"
	"drimann/internal/topk"
)

// Scan is one search call's launch state on one engine: the schedule storage,
// the tasks postponed from launch to launch, and the call's Metrics so far.
// A Scan is used by one goroutine; Scans of different engines run side by side.
type Scan struct {
	e       *Engine
	queries dataset.U8Set
	m       Metrics
	carried []sched.Task
	sb      sched.Batch
	scfg    sched.Config
	seen    []int32 // distinct queries of the last launch
	// The per-DPU SQT16 counters accumulate across the engine's lifetime;
	// the call's share is the delta from these.
	sqtHot0, sqtCold0 uint64
}

// NewScan starts a search call over queries, whose positions are the query
// ids of every later request, bound and heap.
func (e *Engine) NewScan(queries dataset.U8Set) *Scan {
	// Query ids are only unique within a call: drop any per-query terms the
	// LUT scratches cached during a previous one.
	for _, sc := range e.lutScratch {
		sc.Invalidate()
	}
	sc := &Scan{e: e, queries: queries, scfg: sched.Config{Th3: e.opts.Th3, Rebalance: e.opts.Rebalance}}
	sc.sqtHot0, sc.sqtCold0 = e.sqt16Totals()
	return sc
}

// NextBatch begins a scheduling batch: its launches share their queries'
// gather tables, and the previous batch's are forgotten.
func (sc *Scan) NextBatch() {
	sc.e.groups.releaseQE(sc.queries.N)
	sc.m.Batches++
}

// Pending is the number of tasks earlier launches postponed: they ride the
// next one.
func (sc *Scan) Pending() int { return len(sc.carried) }

// Wave schedules reqs, plus whatever earlier launches postponed, and runs
// them as one launch in which query q's scans prune against bounds[q]
// (MaxUint32: nothing to prune against yet). bounds is only read, so the
// engines of a fleet may share it. The launch's partial top-k are folded into
// best[q], allocated on first use. The scheduler prices the tasks as bounded
// when a request's query has a finite bound, or when only postponed work runs.
// drain marks the launches at the end of a call, when only postponed tasks
// remain: the overheat threshold doubles with each, so postponing stops.
// It returns the distinct queries launched (valid until the next call), the
// launch's seconds max(PIM, transfer), and the seconds this engine's host
// spends merging the partials — which the caller orders against whatever
// follows: a launch that needs the merged bounds cannot start before them.
func (sc *Scan) Wave(reqs []sched.Request, bounds []uint32, best []*topk.Heap[uint32], drain bool) (queries []int32, launchSec, mergeSec float64) {
	e := sc.e
	heat := e.lc.heat[1]
	if len(reqs) > 0 && !slices.ContainsFunc(reqs, func(r sched.Request) bool { return bounds[r.Query] != math.MaxUint32 }) {
		heat = e.lc.heat[0]
	}
	sc.scfg.Cost = func(slice int) float64 { return heat[slice] }
	if drain {
		sc.scfg.Th3 *= 2
	}
	sched.GreedyInto(&sc.sb, reqs, sc.carried, e.pl, sc.scfg)
	sc.carried = append(sc.carried[:0], sc.sb.Postponed...)
	sc.m.Postponed += len(sc.sb.Postponed)

	launchSec, mergeItems := e.runLaunch(&sc.sb, sc.queries, best, bounds, &sc.m)
	sc.seen = sc.seen[:0]
	for _, k := range e.groups.keys {
		if n := len(sc.seen); n == 0 || sc.seen[n-1] != k.q {
			sc.seen = append(sc.seen, k.q)
		}
	}
	return sc.seen, launchSec, engine.HostMergeSeconds(e.opts.Host, mergeItems, e.opts.K)
}

// Metrics closes the call's counters and returns them. The simulated clock
// (SimSeconds, HostSeconds, QPS) is the caller's to fill: only it knows what
// its launches waited for.
func (sc *Scan) Metrics() *Metrics {
	hot, cold := sc.e.sqt16Totals()
	sc.m.SQT16Hot, sc.m.SQT16Cold = hot-sc.sqtHot0, cold-sc.sqtCold0
	return &sc.m
}

// LeadProbes cuts a query's probe list, in CL order, into waves: it returns
// how many leading probes form the first — the shortest prefix whose lists
// hold waveFill x k live points, live(c) counting cluster c's on every engine
// that holds a part of it.
func LeadProbes(probes []int32, k int, live func(c int32) int) int {
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

// NewResult reads every query's answer out of its merge heap, in ascending
// (distance, id) order; a query with no partials keeps nil Items.
func NewResult(best []*topk.Heap[uint32]) *Result {
	res := &Result{IDs: make([][]int32, len(best)), Items: make([][]topk.Item[uint32], len(best))}
	for qi, h := range best {
		var items []topk.Item[uint32]
		if h != nil {
			items = h.Sorted()
		}
		res.Items[qi] = items
		ids := make([]int32, len(items))
		for j, it := range items {
			ids[j] = it.ID
		}
		res.IDs[qi] = ids
	}
	return res
}
