// Query-time simulation: batches of queries round-robin across DPUs, each
// query traversing the full graph held in its DPU's MRAM. The charging is
// intentionally random-access-heavy — every adjacency fetch and every
// candidate vector fetch is its own fixed-size DMA with full setup latency
// (there is nothing contiguous to stream). An evaluation abandoned against
// the beam's worst entry still pays its vector's DMA, but DC charges only
// the dimensions it summed plus one compare per block, and TS only the
// evaluations that reach the pool. The launch accounting is the
// one internal/core runs (engine.Metrics.AddLaunch, engine.HostMergeSeconds),
// with SimSeconds += max(host, max(pim, xfer)) per batch.

package graph

import (
	"fmt"
	"math"
	"sync"

	"drimann/internal/dataset"
	"drimann/internal/engine"
	"drimann/internal/topk"
	"drimann/internal/upmem"
)

// SearchBatch searches every query and returns neighbors plus metrics
// (engine.Engine). Results are deterministic: the traversal itself is
// sequential per query, and queries are statically assigned to DPUs.
func (e *Engine) SearchBatch(queries dataset.U8Set) (*engine.Result, error) {
	if err := queries.Check(e.base.D); err != nil {
		return nil, fmt.Errorf("graph: queries: %w", err)
	}
	res := &engine.Result{
		IDs:   make([][]int32, queries.N),
		Items: make([][]topk.Item[uint32], queries.N),
	}
	m := &res.Metrics
	m.Queries = queries.N
	for lo := 0; lo < queries.N; lo += e.opts.BatchSize {
		hi := lo + e.opts.BatchSize
		if hi > queries.N {
			hi = queries.N
		}
		e.runLaunch(queries, lo, hi, res, m)
	}
	if m.SimSeconds > 0 {
		m.QPS = float64(queries.N) / m.SimSeconds
	}
	return res, nil
}

// runLaunch simulates one synchronous launch over queries[lo:hi): query qi
// runs on DPU (qi-lo) mod NumDPUs. DPUs simulate in parallel (bounded by
// Workers) over private scratch; tallies flush to the system sequentially,
// so metrics do not depend on goroutine interleaving.
func (e *Engine) runLaunch(queries dataset.U8Set, lo, hi int, res *engine.Result, m *engine.Metrics) {
	e.sys.ResetCounters()
	e.sys.Launch()
	nq := hi - lo
	// Host -> DPU: each query vector ships to exactly one DPU.
	e.sys.TransferToDPUs(uint64(nq * queries.D))

	nd := e.opts.NumDPUs
	workers := e.opts.Workers
	if workers > nd {
		workers = nd
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := w; d < nd; d += workers {
				e.runDPU(queries, lo, hi, d, res)
			}
		}(w)
	}
	wg.Wait()

	// Flush per-DPU tallies and gather result sizes in DPU order.
	mergeItems := 0
	var fromDev uint64
	var evals uint64
	for d := 0; d < nd; d++ {
		sc := &e.scratch[d]
		e.sys.DPUs[d].ApplyTally(&sc.tally)
		evals += sc.evals
		sc.evals = 0
		sc.tally.Reset()
		for qi := lo + d; qi < hi; qi += nd {
			k := len(res.Items[qi])
			mergeItems += k
			fromDev += uint64(k * 8) // (id, dist) per neighbor
		}
	}
	e.sys.TransferFromDPUs(fromDev)
	m.PointsScanned += evals

	pimSec, xferSec := m.AddLaunch(e.sys)
	hostSec := engine.HostMergeSeconds(mergeItems, e.opts.K)
	m.HostSeconds += hostSec
	m.SimSeconds += math.Max(hostSec, math.Max(pimSec, xferSec))
	m.Batches++
}

// runDPU traverses the graph for every query assigned to DPU d, charging
// the DPU's tally and writing final per-query results.
func (e *Engine) runDPU(queries dataset.U8Set, lo, hi, d int, res *engine.Result) {
	sc := &e.scratch[d]
	for qi := lo + d; qi < hi; qi += e.opts.NumDPUs {
		st := e.beamSearch(sc, queries.Vec(qi), e.medoid, e.opts.SearchBeam, e.opts.SearchBeam, nil)
		sc.evals += uint64(st.evals)
		e.charge(&sc.tally, st)

		k := e.opts.K
		if k > len(sc.pool) {
			k = len(sc.pool)
		}
		items := append([]topk.Item[uint32](nil), sc.pool[:k]...)
		ids := make([]int32, k)
		for j, it := range items {
			ids[j] = it.ID
		}
		res.IDs[qi] = ids
		res.Items[qi] = items
	}
}

// sqtAccessCycles is the charged cost of one squaring-table lookup, the
// value internal/core charges.
const sqtAccessCycles = 8

// charge adds one query traversal's simulated DPU work to t.
func (e *Engine) charge(t *upmem.Tally, st beamStats) {
	// RC: one unbuffered DMA per hop for the node's fixed-size adjacency
	// record (count + Degree slots), plus the visited-stamp check per
	// scanned neighbor.
	hops := uint64(st.hops)
	t.DMAs(upmem.PhaseRC, hops, hops*uint64((1+e.opts.Degree)*4))
	scanned := hops * uint64(e.opts.Degree)
	t.Charge(upmem.PhaseRC, upmem.OpLoad, scanned)
	t.Charge(upmem.PhaseRC, upmem.OpCmp, scanned)

	// DC, the traversal's dominant phase: one unbuffered DMA per evaluated
	// candidate for its full vector, an abandoned one included, plus the
	// arithmetic over the dimensions summed (subtract, square by SQT lookup,
	// accumulate) and one compare per block checked against the beam's worst.
	evals := uint64(st.evals)
	t.DMAs(upmem.PhaseDC, evals, evals*uint64(e.base.D))
	t.ChargeCycles(upmem.PhaseDC, uint64(st.dims)*(2+sqtAccessCycles))
	t.Charge(upmem.PhaseDC, upmem.OpCmp, uint64(st.checks))

	// TS: sorted-pool insertion per evaluation that reaches the pool
	// (binary probe of the beam plus the shift/store).
	t.ChargeCycles(upmem.PhaseTS, uint64(st.probes)*(uint64(engine.Log2Ceil(e.opts.SearchBeam))+2))
}
