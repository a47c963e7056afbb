// Package core is DRIM-ANN itself: the cluster-based ANNS engine that runs
// IVF-PQ search across a simulated UPMEM DRAM-PIM system (paper §3).
//
// The host performs cluster locating (CL) and final top-k merging; the DPUs
// perform residual calculation (RC), LUT construction (LC, multiplier-less
// via SQT), distance calculation (DC) and top-k sorting (TS). Queries are
// scheduled onto DPUs per batch by the greedy scheduler over a
// load-balance-optimized data layout. Every kernel is executed functionally
// (real answers) while charging cycle/DMA costs to the simulator, so both
// recall and the performance phenomena are reproduced.
//
// The engine itself runs as fast as the host allows, mirroring the overlap
// the paper models: SearchBatch is a three-stage pipeline (CL -> schedule ->
// DPU-sim/merge) in which batch i+1's cluster locating runs concurrently
// with batch i's kernel simulation; SearchBatchProbed, handed the whole
// call's probe lists, runs every batch on the calling goroutine. Within a
// launch, each unique (query, cluster) group's residual — and, on the
// over-budget fallback, its LUT — is built exactly once,
// shared read-only across the DPUs that scan the cluster, while per-DPU
// RC/LC costs are still charged as if each DPU ran the kernel privately.
// All per-launch state (heaps, arenas, task and schedule buffers) is
// pooled, so the steady-state hot path performs no allocation. The
// pipelined and serial paths produce bit-identical results and metrics.
//
// # Cost-tally execution model
//
// The DPU kernel simulation does O(points) arithmetic with near-zero
// accounting overhead. Instead of charging the upmem.DPU phase counters per
// simulated instruction, each DPU's kernel run accumulates its costs in a
// register-resident upmem.Tally and flushes it to the DPU exactly once per
// launch block (runDPUBlock). Per-candidate TS costs (shared-heap locks,
// heap-update compares and stores) are counted as accept/lock totals during
// the scan and converted to cycles in bulk; every conversion is a uint64
// sum or product identical to the per-op arithmetic, so the flushed phase
// counters are bit-identical to charging every operation as it happens. The
// per-op reference accountant that does so is a test kernel
// (reference_test.go, installed through Engine.kernel), and the accounting
// suite asserts exact metric equality between the two.
//
// # LUT-free distance calculation
//
// With the decomposed LUT builder available, the engine never materializes
// per-group LUTs at all: a LUT entry is evaluated where DC reads it, from the
// per-subspace form the builder holds,
//
//	lut[m][e] = p_m(q, c) + b_c[m][e] - 2 qe_q[m][e]
//
// where b_c (the static per-cluster term) is precomputed once at deployment,
// qe_q (the per-query gather table) once per query for its two waves, and
// p_m once per group — all int32-exact, so every partial sum over a subset of
// a point's subspaces is bit-identical to summing the same entries of a
// materialized LUT. How the host obtains the values is independent of what
// the simulated DPU is charged for: the charged kernels are the ones
// described next. When the builder's table would exceed its memory budget
// (Engine.lut nil), every group's full LUT is materialized once a launch with
// IntCodebooks.LUTInt (LUTIntMul without the SQT) and shared instead.
//
// # Reference-driven LUT construction
//
// The paper's LC kernel builds all M x CB LUT entries per (query, cluster)
// group although the slice DC then scans reads at most points x M of them.
// The simulated DPU instead runs a mark-then-build kernel, per group and
// DPU: each tasklet owns subspaces, streams the code column of every
// co-located slice of the cluster (append segment included) into a private
// CB-bit bitmap in WRAM, scans it, fetches the marked codebook rows with one
// DMA per contiguous run and builds only those entries. All of it is charged
// to LC — bitmap clear and scan, the mark pass over a second code stream, a
// DMA setup per run — and the build costs need x dsub elements instead of
// CB x Dim; a slice covering every entry pays the dense cost plus that
// overhead (there is no separate dense kernel). The engine charges from
// per-slice, per-subspace counts cached at deployment wherever every point of
// one slice is alive (lcdemand.go), and counts the bitmap it marks otherwise.
// The per-op reference of the tests executes the kernel literally on the
// fallback's LUTs, DC gathering from a poisoned LUT holding only the marked
// entries, so bit-identical answers prove the sparse LUT sufficient — and,
// its values coming from LUTInt, the decomposition exact.
//
// # Bound-forwarded staged scan
//
// LUT entries are squared distances, so they are non-negative and a point's
// sum over any subset of its subspaces is a lower bound of its distance. A
// query's k-th best distance so far — over any set of points already scanned
// for it — is an upper bound of its final k-th best. A point whose partial
// sum is strictly above that bound is therefore strictly worse than k points
// already found, and dropping it cannot change the answer; a point that ties
// the bound stays, so the (distance, id) order decides as it always did.
// Answers are bit-identical to an unpruned scan.
//
// The kernel walks a group's subspaces in stages of stageWidth, in descending
// residual magnitude Σ|r| (the subspaces whose entries are largest come
// first; D absolute values and an M-key sort, charged to RC). Per stage it
// marks the surviving points' codes of the stage's subspaces, builds the
// marked entries, gathers them into the points' partial sums, and compacts
// away every point above min(forwarded bound, this DPU's own heap bound for
// the query). Codes live in MRAM as one column per subspace within a slice:
// a stage streams the columns of its subspaces — once to mark (LC), once to
// gather (DC) — from every segment that still has a survivor, one DMA each;
// the tasklets share those few columns by marking private bitmap rows that
// are merged before the scan, so the stage's bitmap clear and scan cover a
// row per subspace or per tasklet, whichever is more; each survivor pays the
// prune compare-and-compact once per stage. Survivors of the last stage have
// their full distance and enter TS, which streams the id column of their
// segments. With an infinite bound nothing is pruned and the charge is the
// unstaged kernel's plus that per-stage bookkeeping; there is one kernel.
//
// The forwarded bound comes from cutting every scheduling batch into two
// waves. Wave 1 is each query's leading probes in CL order — the shortest
// prefix whose lists hold at least waveFill x K live points; its partial
// results are folded into a bound per query (the k-th best distance so far,
// infinite until k points exist). Wave 2 is the remaining probes, and ships
// each (query, DPU) pair its bound. A launch is as slow as its busiest DPU, so
// the waves are software-pipelined across batches (wave.go): step t of a call
// launches wave 2 of batch t-1 together with wave 1 of batch t — B batches
// take B + 1 launches, each a whole batch's worth of tasks for the scheduler to
// level, none a handful of unbounded tasks on mostly idle DPUs. Step t+1 ships
// the bounds the merge after step t produced, so that merge sits serially
// between the two launches' PIM times instead of overlapping them, while CL of
// the batches to come runs ahead on the host. A postponed task rides the next
// step with whatever bound its query has by then. The cut spends the latency
// of one unpruned task (the first wave's critical path) to save about half of
// every later one, so a batch that gives the DPUs fewer than two tasks each is
// not cut and rides its step whole: a lone query's probes each have a DPU to
// themselves, and a second launch would only add latency. A call of one batch
// is two launches, lead then rest.
//
// What shares a launch does not touch exactness: a forwarded bound is still
// the k-th distance over points already merged for its query, and the kernel
// still drops only what is strictly above it. Who holds the probe lists is
// the caller's business — searchBatch for its own batches; a sharded front
// door for a fleet, naming each cluster's owner shards. Steps cuts them,
// counting a list's live points on every owner, and merges every lane's
// partials into the one bound it forwards to all of them.
//
// A launch holds tasks with and without a bound, so the scheduler gets a price
// per task (lcdemand.go). Without a bound a task costs its slice's modelled
// no-prune cycles; with one, the share of them that survives, which falls with
// ρ = d(q, c) ÷ B(q), the probe's CL distance over the query's bound: the
// further a list lies beyond what the query already holds, the sooner its
// points cross the bound. Both are squared distances in the corpus's units and
// the host owns both before the launch — CL produced d (ProbeSet.Dists,
// sched.Request.Dist), the last barrier B — so the price is a look-up in a
// table over bins of ρ, which New measures: one scheduling batch of its
// profile on a throwaway replica, a recorder on the group scan, per bin
// simulated cycles over no-prune price. Replicas share the table, Compact
// measures it again, Insert and Delete re-price slices only, and a recovered
// engine — New over the same lists and profile — measures the same one;
// without a profile every bin is perfmodel's flat prior. Steps.spread levels a
// shard's replicas with the same price. Only tasks with a bound may be
// postponed (a first-wave task is its query's bound), and a price decides
// which copy of a slice scans and in which launch, never what is found.
//
// The layout is laid out against the same price. Deployment, Compact and
// recovery all go through layout.Optimize (Engine.optimize), which is handed
// the no-prune price as a function of slice length (the entries a slice reads
// in perfmodel's closed form) and picks the split threshold by pricing the
// hottest DPU of every candidate placement — so a split is charged the LUT
// entries each slice builds again, and an LC-bound deployment with MRAM for
// copies keeps its lists whole. ListCycles is the other thing measured at
// deployment: per list, the cycles its scans cost over the profile, which a
// sharded fleet levels its split on.
//
// # Mutation and durability
//
// Insert, Delete and Compact (mutate.go) keep the index mutable after
// deployment. The quantizers are frozen: a mutation never retrains centroids
// or codebooks, so a heavily mutated index drifts from what a retrain would
// build, and Compact returns results bit-identical to a fresh engine over the
// same logical corpus. MemoryFootprint includes the live append-segment and
// tombstone bytes, which return to zero at Compact. CreateStore and Recover
// (recover.go) attach a durable.Store: the engine logs exactly the mutations
// it applied, and a recovered engine serves bit-identical results and memory
// stats to the never-crashed one over the same acknowledged mutations.
//
// Results and metrics — every counter and cycle — do not depend on
// Options.Workers or on the pipeline; only wall-clock speed does.
package core

import (
	"fmt"
	"runtime"

	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/ivf"
	"drimann/internal/layout"
	"drimann/internal/sched"
	"drimann/internal/topk"
	"drimann/internal/upmem"
)

// Options configures an Engine. DefaultOptions enables every optimization
// the paper proposes; the ablation studies switch off the SQT (UseSQT), the
// WRAM buffer (UseWRAM) and the layout phases one at a time.
type Options struct {
	NumDPUs   int // default 64
	K         int // neighbors per query; default 10
	NProbe    int // located clusters per query; default 32
	BatchSize int // queries per scheduling batch; default 256

	// UseSQT selects the multiplier-less LC kernel (paper §3.1 / Fig 11a).
	UseSQT bool
	// UseWRAM enables the WRAM buffer optimization: hot data (SQT, LUT,
	// staging, metadata) resides in the scratchpad (paper §3.2 / Fig 12b).
	UseWRAM bool

	// Layout toggles (paper §3.2 / Fig 13, 14).
	EnableSplit    bool
	EnableDup      bool
	EnableBalance  bool
	SplitThreshold int // 0 = automatic th1 search
	CopyFootprint  int // extra bytes per DPU for duplicates; default 128 KiB

	// Scheduling (paper §3.3).
	Th3       float64 // overheat postponement threshold; default 1.3
	Rebalance bool

	// Memory overrides (0 = upmem defaults): failure-injection tests shrink
	// them, and ListCycles scales MRAM to a fleet's.
	WRAMBytes int
	MRAMBytes int

	Workers int // goroutine parallelism for the simulation itself
}

// DefaultOptions returns the full DRIM-ANN configuration.
func DefaultOptions() Options {
	return Options{
		NumDPUs:       64,
		K:             10,
		NProbe:        32,
		BatchSize:     256,
		UseSQT:        true,
		UseWRAM:       true,
		EnableSplit:   true,
		EnableDup:     true,
		EnableBalance: true,
		CopyFootprint: 128 << 10,
		Th3:           1.3,
		Rebalance:     true,
		Workers:       runtime.GOMAXPROCS(0),
	}
}

func (o *Options) defaults() {
	if o.NumDPUs <= 0 {
		o.NumDPUs = 64
	}
	if o.K <= 0 {
		o.K = 10
	}
	if o.NProbe <= 0 {
		o.NProbe = 32
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.CopyFootprint < 0 {
		o.CopyFootprint = 0
	}
	if o.Th3 < 0 {
		o.Th3 = 0
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Engine is a DRIM-ANN instance bound to one index and one PIM system.
type Engine struct {
	ix   *ivf.Index
	sys  *upmem.System
	pl   *layout.Placement
	opts Options

	codeBytes  int  // packed bytes per PQ code
	lutInWRAM  bool // LUT fits the scratchpad alongside mandatory buffers
	lutBytes   int
	metaPerDPU []int // slice-copy count per DPU (metadata footprint)

	// loc is the CL stage; shared read-only with replica engines and
	// borrowable by sharded front doors.
	loc *Locator

	// lut is the decomposed host-side LUT builder of the LUT-free DC path
	// (see the package doc); nil when the per-index precomputation exceeds
	// its memory budget, and the engine falls back to direct LUTInt builds.
	lut *ivf.LUTBuilder
	// kernel, when set, scans a group in place of scanGroup: the tests
	// install the per-op reference accountant here. Nil in production.
	kernel groupKernel
	// lc is the static per-slice LC demand and the scheduler's price
	// (lcdemand.go), shared with replica engines through the pointer.
	lc  *lcDemand
	rec *[]ScanSample // RecordScans

	// freq and lcfg are the heat profile and layout configuration New
	// resolved, retained so Compact can re-run the layout optimizer over the
	// post-fold cluster sizes with identical inputs.
	freq []float64
	lcfg layout.Config
	// store, attached by CreateStore or Recover, logs every applied
	// mutation (recover.go); nil logs nothing. Replicas never hold it.
	store *durable.Store

	// Per-launch reusable state: one kernel scratch per DPU plus the shared
	// (query, cluster) group store. Together they make the launch hot path
	// allocation-free after the first batch.
	scratch []dpuScratch
	groups  groupStore
}

// dpuScratch is the reusable per-DPU kernel state: the top-k heap pool, the
// (query, heap) result list, the per-task group indices, the staged-scan
// state of the group being scanned, and the launch cursor that lets kernels
// resume across group blocks.
type dpuScratch struct {
	heaps   []*topk.Heap[uint32] // pool, grown on demand, Reset between uses
	nHeaps  int                  // heaps handed out this launch
	results []dpuQueryResult     // ascending query order (tasks are sorted)
	groupIx []int32              // unique-group index per task
	itemBuf []topk.Item[uint32]  // SortedInto scratch for the host merge
	stats   dpuRunStats

	// tally batches this DPU's simulated costs; flushed to the upmem.DPU
	// once per launch block.
	tally upmem.Tally

	// The group being scanned: its segments, and the points still alive with
	// their partial distances, compacted together after every stage. alive[k]
	// indexes into the segment whose [lo, hi) range holds k.
	segs  []scanSegment
	alive []int32
	part  []uint32

	// marks is the stage's LC mark bitmap (chargeLC where cached counts do
	// not suffice, and the per-op reference); lut the reference's sparse LUT.
	marks []uint64
	lut   []uint32
	rec   []ScanSample // this DPU's scans, kept under Engine.RecordScans

	// Launch cursor: position in the sorted task list plus the current
	// query and its heap, preserved across group blocks.
	taskPos int
	curQ    int32
	curHeap *topk.Heap[uint32]
}

// scanSegment is one contiguous run of points a group scans — a slice's base
// points or a cluster's live append segment: ids, packed codes, the tombstone
// set filtering it (nil for append segments), and the range of the scratch's
// alive list its surviving points occupy.
type scanSegment struct {
	ids    []int32
	codes  []uint16
	tomb   map[int32]bool
	lo, hi int
}

type dpuQueryResult struct {
	q int32
	h *topk.Heap[uint32]
}

func (sc *dpuScratch) nextHeap(k int) *topk.Heap[uint32] {
	if sc.nHeaps == len(sc.heaps) {
		sc.heaps = append(sc.heaps, topk.NewHeap[uint32](k))
	}
	h := sc.heaps[sc.nHeaps]
	sc.nHeaps++
	h.Reset()
	return h
}

// New builds an engine: it sizes the PIM system, profiles cluster heat on
// the provided profile queries (or falls back to cluster sizes), optimizes
// the data layout, and checks that everything fits MRAM and WRAM.
func New(ix *ivf.Index, profile dataset.U8Set, opts Options) (*Engine, error) {
	return deploy(ix, profile, profile, opts)
}

// Placement exposes the optimized layout (for inspection and tests).
func (e *Engine) Placement() *layout.Placement { return e.pl }

// Index returns the underlying IVF-PQ index.
func (e *Engine) Index() *ivf.Index { return e.ix }

// K reports the configured neighbors-per-query.
func (e *Engine) K() int { return e.opts.K }

// Dim reports the vector dimensionality queries must match.
func (e *Engine) Dim() int { return e.ix.Dim }

// MaxBatch reports the engine's scheduling batch size — the natural upper
// bound for a serving-layer micro-batch (larger launches are split into
// several scheduling batches anyway).
func (e *Engine) MaxBatch() int { return e.opts.BatchSize }

// Locator exposes the engine's CL stage. It is stateless per call, so a
// sharded front door may run it concurrently with the engine's own batches.
func (e *Engine) Locator() *Locator { return e.loc }

// SearchBatch searches every query and returns neighbors plus metrics.
//
// Execution is a three-stage pipeline (paper §3: host CL overlaps the PIM
// kernels): stage 1 locates clusters for a whole query batch across the
// engine's workers; stage 2 cuts the probe lists into waves and schedules the
// tasks; stage 3 runs the DPU kernel simulation and host merge, one step per
// batch (Steps; see the package doc). Stage 1 of batch i+1 runs concurrently
// with stages 2-3 of batch i, so the host CL cost disappears from the
// wall-clock critical path exactly as the modeled SimSeconds = Σ max(host,
// pim+xfer) accounting assumes. Results and metrics are bit-identical to
// SearchBatchProbed(queries, e.Locator().Probes(queries), true), whose
// batches run one after another on the calling goroutine.
func (e *Engine) SearchBatch(queries dataset.U8Set) (*Result, error) {
	return e.searchBatch(queries, ProbeSet{}, false, true)
}

// searchBatch is the shared body behind SearchBatch and SearchBatchProbed.
// With probed set the CL stage is skipped: ps holds the whole call's probe
// lists, in the ascending-distance order and the form the plain path locates
// them in batch by batch, so schedules, results and metrics stay bit-identical
// when ps came from this engine's Locator.
// chargeCL controls whether each batch's host CL cost enters the metrics.
func (e *Engine) searchBatch(queries dataset.U8Set, ps ProbeSet, probed, chargeCL bool) (*Result, error) {
	if queries.D != e.ix.Dim {
		return nil, fmt.Errorf("core: query dim %d != index dim %d", queries.D, e.ix.Dim)
	}
	st := NewSteps(queries, [][]*Engine{{e}}, nil, e.loc)
	batch := e.opts.BatchSize

	// CL stage: the probe lists of the batch starting at query lo, located
	// here unless the caller resolved the whole call's.
	locate := func(lo int) ProbeSet {
		hi := min(lo+batch, queries.N)
		return e.loc.Probes(dataset.U8Set{N: hi - lo, D: queries.D, Data: queries.Data[lo*queries.D : hi*queries.D]})
	}
	// Pipelined mode: a producer goroutine runs CL one batch ahead, so CL of
	// batch i+1 overlaps the DPU simulation of batch i.
	next := locate
	if !probed && queries.N > batch {
		clOut := make(chan ProbeSet, 1)
		go func() {
			for lo := 0; lo < queries.N; lo += batch {
				clOut <- locate(lo)
			}
		}()
		next = func(int) ProbeSet { return <-clOut }
	}

	first := 0           // the query ps's first list belongs to
	shard0 := []int32{0} // the owner of every cluster
	for lo := 0; lo < queries.N; lo += batch {
		hi := min(lo+batch, queries.N)
		if !probed {
			ps, first = next(lo), lo
		}
		for qi := lo; qi < hi; qi++ {
			st.Cut(qi, ps.Of(qi-first), ps.DistsOf(qi-first), func(int32) []int32 { return shard0 })
		}
		clSec := 0.0
		if chargeCL {
			clSec = e.loc.CLSeconds(hi - lo)
		}
		st.Step(clSec)
	}
	return st.Finish(0), nil
}

// taskCount is the number of slice-level tasks the scheduler expands reqs into.
func (e *Engine) taskCount(reqs []sched.Request) int {
	n := 0
	for _, r := range reqs {
		n += len(e.pl.ByCluster[r.Cluster])
	}
	return n
}
