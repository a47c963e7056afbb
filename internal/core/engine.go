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
package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/ivf"
	"drimann/internal/layout"
	"drimann/internal/sched"
	"drimann/internal/topk"
	"drimann/internal/upmem"
	"drimann/internal/vecmath"
)

// Options configures an Engine. DefaultOptions enables every optimization
// the paper proposes; the ablation studies switch off the SQT (UseSQT), the
// WRAM buffer (UseWRAM) and the layout phases one at a time.
type Options struct {
	NumDPUs   int // default 64
	Tasklets  int // default 16
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

	// Hardware overrides (0 = upmem defaults); used by failure-injection
	// tests and platform scaling studies.
	WRAMBytes int
	MRAMBytes int
	MulCycles uint64

	// Host models the CPU running CL and merging (Xeon Silver 4216-like).
	Host upmem.Platform

	Workers int // goroutine parallelism for the simulation itself
}

// DefaultOptions returns the full DRIM-ANN configuration.
func DefaultOptions() Options {
	return Options{
		NumDPUs:       64,
		Tasklets:      16,
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
		Host: upmem.Platform{
			Name: "host (Xeon Silver 4216)", Threads: 32, FreqGHz: 2.1, VectorWidth: 8,
			PeakGOPs: 538, MemBWGBs: 90, MemCapGB: 256,
		},
		Workers: runtime.GOMAXPROCS(0),
	}
}

func (o *Options) defaults() {
	if o.NumDPUs <= 0 {
		o.NumDPUs = 64
	}
	if o.Tasklets <= 0 {
		o.Tasklets = 16
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
	if o.Host.Threads == 0 {
		o.Host = DefaultOptions().Host
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

// groupKey identifies one unique (query, cluster) pair of a launch.
type groupKey struct {
	q int32
	c int32
}

// groupStore is the per-launch shared LC state: every unique (query,
// cluster) group's residual — plus its decomposition terms, or its LUT on the
// over-budget fallback — is built exactly once, fanned across
// workers, then read by each DPU that scans a slice of the cluster. Arenas
// are sized for one group block at a time to bound memory.
type groupStore struct {
	keys []groupKey // sorted unique groups of the launch
	res  []int16    // block arena: residuals, blockGroups x Dim
	lut  []uint32   // block arena (fallback): LUTs, blockGroups x M*CB
	runs []int32    // query-run boundaries within the current block
	// order is each group's subspaces in descending residual magnitude — the
	// order the staged scan visits them in; blockGroups x M.
	order []uint16
	build []bool // per query run of the block: its gather table is to be built

	// LUT-free arenas (see the package doc): M per-subspace terms per
	// group, and one qe gather table per query: qeSlot[q] is query q's slot in
	// qe (-1 without a table), qeOwner[s] the query holding slot s (-1: free),
	// qeBorn[s] the step that built its table; step is the one being launched.
	// A table stays until the launch is past its query — groups run in query
	// order — and one step beyond that while the query has no bound: its
	// second wave reuses it (expire).
	p       []int32 // block-relative per-group SubTerms, blockGroups x M
	qe      []int32 // slots x M*CB
	qeSlot  []int32
	qeOwner []int32
	qeBorn  []int
	step    int
}

// resetQE forgets every query's gather table: a new call of n queries begins.
func (g *groupStore) resetQE(n int) {
	g.qeSlot = make([]int32, n)
	for i := range g.qeSlot {
		g.qeSlot[i] = -1
	}
	for s := range g.qeOwner {
		g.qeOwner[s] = -1
	}
}

// expire frees the gather tables of the queries below q — the launch is past
// them — that carry a bound or whose table an earlier step built: they have
// had their second wave, or were never to have one here.
func (g *groupStore) expire(q int32, bounds []uint32) {
	for s, owner := range g.qeOwner {
		if owner >= 0 && owner < q && (bounds[owner] != math.MaxUint32 || g.qeBorn[s] < g.step) {
			g.qeSlot[owner], g.qeOwner[s] = -1, -1
		}
	}
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

// deploy is New with the sample the share table is measured on (cal; none:
// the flat table) named apart from the heat profile.
func deploy(ix *ivf.Index, profile, cal dataset.U8Set, opts Options) (*Engine, error) {
	opts.defaults()
	cfg := upmem.DefaultConfig(opts.NumDPUs)
	cfg.Tasklets = opts.Tasklets
	if opts.WRAMBytes > 0 {
		cfg.WRAMBytes = opts.WRAMBytes
	}
	if opts.MRAMBytes > 0 {
		cfg.MRAMBytes = opts.MRAMBytes
	}
	if opts.MulCycles > 0 {
		cfg.Cost.MulCycles = opts.MulCycles
	}
	sys, err := upmem.NewSystem(cfg)
	if err != nil {
		return nil, err
	}

	if ix.HasMutations() {
		return nil, fmt.Errorf("core: index has uncompacted mutations; Compact it before deploying")
	}
	loc := NewLocator(ix, opts)
	e := &Engine{ix: ix, sys: sys, opts: opts, codeBytes: codeBytesFor(ix.CB, ix.M), loc: loc}

	// Offline heat profile: probe frequency over the profile workload.
	sizes := make([]int, ix.NList)
	for c := range sizes {
		sizes[c] = ix.ListLen(c)
	}
	freq := make([]float64, ix.NList)
	if profile.N > 0 {
		// The engine's own locator: the probes live queries will hit, located
		// across workers.
		for _, c := range loc.Probes(profile).Clusters {
			freq[c]++
		}
	} else {
		for c, s := range sizes {
			freq[c] = float64(s)
		}
	}

	// Reserve per-DPU MRAM for index-wide data before the layout divides the
	// remainder: integer codebooks plus the full centroid table (for
	// simplicity every DPU keeps all centroids, as the directory is small).
	fixed := fixedMRAM(ix)
	dataBudget := cfg.MRAMBytes - fixed - opts.CopyFootprint
	if dataBudget <= 0 {
		return nil, fmt.Errorf("core: MRAM too small: %d fixed bytes vs %d bank", fixed, cfg.MRAMBytes)
	}

	lcfg := layout.Config{
		NumDPUs:        opts.NumDPUs,
		BytesPerPoint:  e.codeBytes + 4,
		MRAMDataBudget: dataBudget,
		CopyFootprint:  opts.CopyFootprint,
		WRAMMetaBudget: cfg.WRAMBytes / 4,
		HeatWeight:     0.5,
		SplitThreshold: opts.SplitThreshold,
		EnableSplit:    opts.EnableSplit,
		EnableDup:      opts.EnableDup,
		EnableBalance:  opts.EnableBalance,
	}
	e.freq, e.lcfg = freq, lcfg
	pl, err := e.optimize(sizes)
	if err != nil {
		return nil, fmt.Errorf("core: layout: %w", err)
	}
	if err := pl.Validate(sizes); err != nil {
		return nil, fmt.Errorf("core: layout invariants: %w", err)
	}
	e.pl = pl

	if err := e.accountMemory(); err != nil {
		return nil, err
	}

	// Host-side execution state: the decomposed LUT builder, and the per-DPU
	// kernel scratch reused across launches.
	e.lut = ix.NewLUTBuilder(opts.Workers)
	e.lc = &lcDemand{cal: cal}
	e.scratch = make([]dpuScratch, opts.NumDPUs)
	e.rebuildDemand()
	return e, nil
}

func codeBytesFor(cb, m int) int {
	if cb <= 256 {
		return m
	}
	return 2 * m
}

// fixedMRAM is the index-wide data every DPU holds: the integer codebooks and
// the full centroid table.
func fixedMRAM(ix *ivf.Index) int { return ix.M*ix.CB*(ix.Dim/ix.M)*2 + ix.NList*ix.Dim }

// PointCapacity is how many points of ix's lists an engine deployed with opts
// has MRAM for — per DPU, the bank less the index-wide data and the copy
// footprint, over the bytes a point takes. A sharded deployment keeps every
// shard's share under it (cluster.New).
func PointCapacity(ix *ivf.Index, opts Options) int {
	opts.defaults()
	if opts.MRAMBytes <= 0 {
		opts.MRAMBytes = upmem.DefaultConfig(1).MRAMBytes
	}
	return opts.NumDPUs * max(opts.MRAMBytes-fixedMRAM(ix)-opts.CopyFootprint, 0) / (codeBytesFor(ix.CB, ix.M) + 4)
}

// accountMemory reserves the engine's per-DPU MRAM (index-wide fixed data
// plus every placed slice) and WRAM (staging, SQT, metadata, and the LUT
// when it fits), recording metaPerDPU and lutInWRAM. New and NewReplica both
// run it — each against its own fresh upmem.System, since the simulated
// hardware is per replica even where the host-side data is shared.
func (e *Engine) accountMemory() error {
	ix, sys, opts := e.ix, e.sys, e.opts
	fixed := fixedMRAM(ix)

	// Account MRAM per DPU.
	e.metaPerDPU = make([]int, opts.NumDPUs)
	for _, d := range sys.DPUs {
		if err := d.AllocMRAM(fixed); err != nil {
			return fmt.Errorf("core: fixed MRAM: %w", err)
		}
	}
	for _, s := range e.pl.Slices {
		bytes := s.Count * (e.codeBytes + 4)
		for _, d := range s.DPUs {
			if err := sys.DPUs[d].AllocMRAM(bytes); err != nil {
				return fmt.Errorf("core: slice data: %w", err)
			}
			e.metaPerDPU[d]++
		}
	}

	// Account WRAM per DPU: staging buffers and the LC mark bitmaps (CB bits
	// per subspace, in 32-bit words) are always needed; with the buffer
	// optimization also the SQT, slice metadata, and (if it fits) the
	// distance LUT.
	e.lutBytes = ix.M * ix.CB * 4
	stagingBytes := 4096 + ix.M*e.markWords32()*4
	const sqtBytes = 511 * 4
	e.lutInWRAM = false
	if opts.UseWRAM {
		e.lutInWRAM = true
		for i, d := range sys.DPUs {
			if err := d.AllocWRAM(stagingBytes + sqtBytes + e.metaPerDPU[i]*16); err != nil {
				return fmt.Errorf("core: WRAM: %w", err)
			}
			if d.WRAMFree() < e.lutBytes {
				e.lutInWRAM = false
			}
		}
		if e.lutInWRAM {
			for _, d := range sys.DPUs {
				if err := d.AllocWRAM(e.lutBytes); err != nil {
					return fmt.Errorf("core: WRAM LUT: %w", err)
				}
			}
		}
	} else {
		for _, d := range sys.DPUs {
			if err := d.AllocWRAM(stagingBytes); err != nil {
				return fmt.Errorf("core: WRAM staging: %w", err)
			}
		}
	}
	return nil
}

// Placement exposes the optimized layout (for inspection and tests).
func (e *Engine) Placement() *layout.Placement { return e.pl }

// System exposes the simulated PIM system.
func (e *Engine) System() *upmem.System { return e.sys }

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
	return math.Max(pimSec, xferSec), e.loc.MergeSeconds(mergeItems, e.opts.K)
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

// sortTasks orders one DPU's tasks by (query, cluster, slice start) — the
// deterministic kernel order that makes queries contiguous and groups
// adjacent.
func (e *Engine) sortTasks(tasks []sched.Task) {
	slices.SortFunc(tasks, func(a, b sched.Task) int {
		if c := cmp.Compare(a.Query, b.Query); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Cluster, b.Cluster); c != 0 {
			return c
		}
		return cmp.Compare(e.pl.Slices[a.Slice].Start, e.pl.Slices[b.Slice].Start)
	})
}

// collectGroups gathers the launch's unique (query, cluster) groups into
// e.groups.keys (sorted), assigns every task its group index, and returns
// the number of (query, DPU) pairs whose query vector must ship to a DPU.
// Task lists must already be sorted; the per-DPU group sequences are then
// ascending, so index assignment is a linear merge against the key list.
func (e *Engine) collectGroups(batch *sched.Batch) int {
	g := &e.groups
	g.keys = g.keys[:0]
	shipped := 0
	for d := range batch.PerDPU {
		prevQ, prevC := int32(-1), int32(-1)
		for _, t := range batch.PerDPU[d] {
			if t.Query != prevQ {
				shipped++
			}
			if t.Query != prevQ || t.Cluster != prevC {
				g.keys = append(g.keys, groupKey{q: t.Query, c: t.Cluster})
				prevQ, prevC = t.Query, t.Cluster
			}
		}
	}
	slices.SortFunc(g.keys, func(a, b groupKey) int {
		if c := cmp.Compare(a.q, b.q); c != 0 {
			return c
		}
		return cmp.Compare(a.c, b.c)
	})
	uniq := g.keys[:0]
	for _, k := range g.keys {
		if len(uniq) == 0 || k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	g.keys = uniq

	// Per-DPU index assignment is independent (each DPU writes only its own
	// scratch and reads the shared key list), so fan it out. A DPU's group
	// sequence is ascending, so each transition binary-searches only the
	// key tail past the previous hit — O(groups_d * log(groups)) per DPU
	// rather than a linear rescan of the full key list.
	e.forEachDPU(batch, func(d int) {
		tasks := batch.PerDPU[d]
		sc := &e.scratch[d]
		if cap(sc.groupIx) < len(tasks) {
			sc.groupIx = make([]int32, len(tasks))
		}
		sc.groupIx = sc.groupIx[:len(tasks)]
		ki := 0
		prev := groupKey{q: -1, c: -1}
		for i, t := range tasks {
			k := groupKey{q: t.Query, c: t.Cluster}
			if k != prev {
				tail := g.keys[ki:]
				ki += sort.Search(len(tail), func(j int) bool {
					kj := tail[j]
					if kj.q != k.q {
						return kj.q >= k.q
					}
					return kj.c >= k.c
				})
				prev = k
			}
			sc.groupIx[i] = int32(ki)
		}
	})
	return shipped
}

// buildGroups fills the shared arenas for every group in keys[gLo:gHi),
// building each exactly once: the staged scan's subspace order, and with the
// decomposed builder the per-subspace SubTerms and (per query run) the qe
// gather table; on the over-budget fallback the residual and the full LUT.
// The residual is skipped where nothing reads it (the builder's path). Work is
// fanned across workers per query run so per-query terms amortize over all
// clusters the query probes.
func (e *Engine) buildGroups(queries dataset.U8Set, gLo, gHi int) {
	g := &e.groups
	ix := e.ix
	dim, lutLen := ix.Dim, ix.M*ix.CB
	n := gHi - gLo
	if n <= 0 {
		return
	}
	if e.lut == nil && cap(g.res) < n*dim {
		g.res = make([]int16, n*dim)
	}
	if e.lut == nil && cap(g.lut) < n*lutLen {
		g.lut = make([]uint32, n*lutLen)
	}
	if cap(g.order) < n*ix.M {
		g.order = make([]uint16, n*ix.M)
	}

	// Query runs within the block: keys are (query, cluster)-sorted, so one
	// run is one query's clusters.
	g.runs = g.runs[:0]
	for i := gLo; i < gHi; i++ {
		if i == gLo || g.keys[i].q != g.keys[i-1].q {
			g.runs = append(g.runs, int32(i))
		}
	}
	g.runs = append(g.runs, int32(gHi))
	// Gather tables: a slot for every query of the block that has none yet;
	// built below, like everything else, by the worker that gets the run.
	if e.lut != nil {
		g.build = g.build[:0]
		for _, lo := range g.runs[:len(g.runs)-1] {
			q := g.keys[lo].q
			g.build = append(g.build, g.qeSlot[q] < 0)
			if g.qeSlot[q] < 0 {
				free := slices.Index(g.qeOwner, -1)
				if free < 0 {
					free, g.qeOwner, g.qeBorn = len(g.qeOwner), append(g.qeOwner, -1), append(g.qeBorn, 0)
				}
				g.qeSlot[q], g.qeOwner[free], g.qeBorn[free] = int32(free), q, g.step
			}
		}
		if want := len(g.qeOwner) * lutLen; want > cap(g.qe) { // to the slot, not by append's factor
			g.qe = append(make([]int32, 0, want), g.qe...)
		}
		g.qe = g.qe[:len(g.qeOwner)*lutLen]
		if cap(g.p) < n*ix.M {
			g.p = make([]int32, n*ix.M)
		}
	}

	parallelFor(len(g.runs)-1, e.opts.Workers, func(_, ri int) {
		lo, hi := int(g.runs[ri]), int(g.runs[ri+1])
		query := queries.Vec(int(g.keys[lo].q))
		if e.lut != nil && g.build[ri] {
			e.lut.BuildQE(query, g.qe[int(g.qeSlot[g.keys[lo].q])*lutLen:][:lutLen])
		}
		for i := lo; i < hi; i++ {
			k, bi := g.keys[i], i-gLo
			subspaceOrder(g.order[bi*ix.M:(bi+1)*ix.M], query, ix.CentroidU8(int(k.c)))
			if e.lut != nil {
				e.lut.SubTerms(query, int(k.c), g.p[bi*ix.M:(bi+1)*ix.M])
				continue
			}
			res := g.res[bi*dim : (bi+1)*dim]
			vecmath.SubI16(res, query, ix.CentroidU8(int(k.c)))
			if e.opts.UseSQT {
				ix.IntCB.LUTInt(res, g.lut[bi*lutLen:(bi+1)*lutLen], ix.SQT)
			} else {
				ix.IntCB.LUTIntMul(res, g.lut[bi*lutLen:(bi+1)*lutLen])
			}
		}
	})
}

// subspaceOrder fills order (length M) with the subspaces of the residual
// query - centroid in descending magnitude Σ_j |q_j - c_j|, ties in ascending
// subspace order: large residuals meet large LUT entries, so a point's
// partial distance crosses a bound soonest this way round. (Ordering by the
// squared energy instead builds 1% fewer LUT entries on the benchmark fixture
// and costs the DPU D squarings a group, three times that saving.)
func subspaceOrder(order []uint16, query, centroid []uint8) {
	var buf [64]int32
	mag := buf[:] // magnitudes, sorted alongside order
	if len(order) > len(buf) {
		mag = make([]int32, len(order))
	}
	dsub := len(query) / len(order)
	for m := range order {
		var sum int32
		csub := centroid[m*dsub : (m+1)*dsub]
		for j, q := range query[m*dsub : (m+1)*dsub] {
			d := int32(q) - int32(csub[j])
			sum += (d ^ d>>31) - d>>31 // |d|, without a branch on the sign
		}
		i := m
		for ; i > 0 && mag[i-1] < sum; i-- {
			order[i], mag[i] = order[i-1], mag[i-1]
		}
		order[i], mag[i] = uint16(m), sum
	}
}
