package core

import (
	"math"
	"sync"
	"sync/atomic"

	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/sched"
	"drimann/internal/topk"
)

// groupBlockBudget bounds the shared residual+LUT arena of one launch
// block; large batches are processed in several blocks so memory stays flat
// while the per-block LUT builds still fan out across workers.
const groupBlockBudget = 48 << 20

// runLaunch executes one synchronous DPU launch — every kernel reading its
// query's entry of bounds — and returns its wall time max(PIM, transfer) and
// the seconds the engine's host spends merging the partial items; the merge
// folds them into best. A query's two waves, one step apart, share its gather
// table (groupStore.expire).
//
// The launch is staged for wall-clock speed without touching the simulated
// accounting: (1) every DPU's task list is sorted in parallel; (2) the
// launch's unique (query, cluster) groups are collected so each residual and
// LUT is built exactly once — in parallel across workers, block by block —
// instead of once per DPU touching the cluster; (3) DPU kernels run in
// parallel over the shared read-only LUTs, charging the per-DPU RC/LC/DC/TS
// costs exactly as a private build would; (4) results merge deterministically
// from reusable per-DPU heaps.
func (e *Engine) runLaunch(batch *sched.Batch, queries dataset.U8Set, best []*topk.Heap[uint32], bounds []uint32, m *Metrics) (launchSec, mergeSec float64) {
	e.sys.ResetCounters()
	e.sys.Launch()

	// Stage 1: deterministic task order per DPU; reset launch cursors.
	e.forEachDPU(batch, func(d int) {
		e.sortTasks(batch.PerDPU[d])
		sc := &e.scratch[d]
		sc.results = sc.results[:0]
		sc.nHeaps = 0
		sc.stats = dpuRunStats{}
		sc.tally.Reset()
		sc.taskPos = 0
		sc.curQ = -1
		sc.curHeap = nil
	})

	// Stage 2: unique groups + per-task group indices + query shipments.
	// Host -> DPU: each (query, DPU) pair ships the query vector and its
	// bound once.
	shipped := e.collectGroups(batch)
	e.sys.TransferToDPUs(uint64(shipped * (queries.D + 4)))

	// Stage 3: build shared residuals/LUTs one block at a time, then let
	// every DPU consume its tasks whose groups fall inside the block.
	g := &e.groups
	blockGroups := groupBlockBudget / (e.ix.M*e.ix.CB*4 + e.ix.Dim*2)
	if blockGroups < 1 {
		blockGroups = 1
	}
	for gLo, gHi := 0, 0; gLo < len(g.keys); gLo = gHi {
		gHi = min(gLo+blockGroups, len(g.keys))
		// A block does not run on from queries that carry a bound into queries
		// that do not: the gather tables of the former expire behind it and
		// make room for the latter's, which stay for their second wave.
		for i := gLo + 1; i < gHi; i++ {
			if bounds[g.keys[i].q] == math.MaxUint32 && bounds[g.keys[i-1].q] != math.MaxUint32 {
				gHi = i
			}
		}
		g.expire(g.keys[gLo].q, bounds)
		e.buildGroups(queries, gLo, gHi)
		e.forEachDPU(batch, func(d int) {
			e.runDPUBlock(d, batch.PerDPU[d], gLo, gHi, bounds)
		})
	}
	g.expire(math.MaxInt32, bounds)

	// Stage 4: deterministic host merge (DPU order, then query order — the
	// per-DPU result lists are already query-sorted).
	mergeItems := 0
	var fromDev uint64
	for d := 0; d < e.opts.NumDPUs; d++ {
		if len(batch.PerDPU[d]) == 0 {
			continue
		}
		sc := &e.scratch[d]
		for _, r := range sc.results {
			if r.h.Len() == 0 {
				continue
			}
			h := best[r.q]
			if h == nil {
				h = topk.NewHeap[uint32](e.opts.K)
				best[r.q] = h
			}
			sc.itemBuf = r.h.SortedInto(sc.itemBuf)
			for _, it := range sc.itemBuf {
				h.Push(it.ID, it.Dist)
			}
			mergeItems += len(sc.itemBuf)
			fromDev += uint64(len(sc.itemBuf) * 8)
		}
		m.LockAcquired += sc.stats.lockAcquired
		m.LockSkipped += sc.stats.lockSkipped
		m.LUTBuilds += sc.stats.lutBuilds
		m.LUTReuses += sc.stats.lutReuses
		m.LUTEntries += sc.stats.lutEntries
		m.PointsScanned += sc.stats.points
		m.PointsPruned += sc.stats.pruned
		m.CodesGathered += sc.stats.codes
		m.PricedCycles += batch.Heat[d]
		if e.rec != nil {
			*e.rec, sc.rec = append(*e.rec, sc.rec...), sc.rec[:0]
		}
	}
	e.sys.TransferFromDPUs(fromDev)

	pimSec, xferSec := m.AddLaunch(e.sys)
	return math.Max(pimSec, xferSec), engine.HostMergeSeconds(mergeItems, e.opts.K)
}

type dpuRunStats struct {
	lockAcquired, lockSkipped uint64
	lutBuilds, lutReuses      uint64
	lutEntries                uint64 // LUT entries the LC kernels built
	points, pruned            uint64 // points entering a first stage; dropped before TS
	codes                     uint64 // code elements DC gathered
}

// forEachDPU runs f for every DPU with scheduled tasks, fanned across the
// engine's workers. Each DPU's state is private, so invocation order cannot
// affect results.
func (e *Engine) forEachDPU(batch *sched.Batch, f func(d int)) {
	parallelFor(e.opts.NumDPUs, e.opts.Workers, func(_ int, d int) {
		if len(batch.PerDPU[d]) > 0 {
			f(d)
		}
	})
}

// parallelFor runs f(worker, i) for i in [0, n) across up to workers
// goroutines via an atomic work queue. worker identifies the executing
// goroutine for per-worker scratch (always 0 when serial).
func parallelFor(n, workers int, f func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
}
