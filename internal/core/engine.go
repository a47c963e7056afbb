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
// with batch i's kernel simulation (Options.NoPipeline restores the serial
// reference path). Within a launch, each unique (query, cluster) group's
// residual — and, on the fallback paths, its LUT — is built exactly once,
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
// counters are bit-identical to the per-op path. The per-op reference
// accountant is retained behind Options.PerOpAccounting, and the
// determinism suite asserts exact metric equality between the two.
//
// # LUT-free distance calculation
//
// With the decomposed LUT builder available, the engine never materializes
// per-group LUTs at all: DC evaluates, per point, the algebraic identity
//
//	Σ_m lut[m][code_m] = PTerm(q, c) + bsum[point] - 2 Σ_m qe_q[m][code_m]
//
// where bsum (the static per-point term) is precomputed once at deployment,
// qe_q (the per-query gather table) once per query per launch, and PTerm
// once per group — all int32-exact, so distances are bit-identical to
// summing a materialized LUT (vecmath.ADCResidualBatch). How the host
// obtains the values is independent of what the simulated DPU is charged
// for: the charged kernels are the ones described next. Fallback paths (LUT
// builder over budget, or the per-op reference accountant) materialize
// shared per-group LUTs as before.
//
// # Reference-driven LUT construction
//
// The paper's LC kernel builds all M x CB LUT entries per (query, cluster)
// group although the slice DC then scans reads at most points x M of them.
// The simulated DPU instead runs a mark-then-build kernel, per group and
// DPU: each tasklet owns subspaces, streams the code column of every
// co-located slice of the cluster (append segment included) into a private
// CB-bit bitmap in WRAM, scans it, fetches the marked codebook rows with one
// DMA per contiguous run and builds only those entries; DC is unchanged.
// All of it is charged to LC — bitmap clear and scan, the mark pass over a
// second code stream, a DMA setup per run — and the build costs need x dsub
// elements instead of CB x Dim; a slice covering every entry pays the dense
// cost plus that overhead (there is no separate dense kernel). The per-op
// reference executes the kernel literally, DC gathering from a poisoned LUT
// holding only the marked entries, so bit-identical answers prove the sparse
// LUT sufficient; the batched-tally path charges from per-slice counts
// cached at deployment (lcdemand.go).
//
// # SQT16 geometry invariant
//
// All per-DPU sqt.SQT16 tables are built with identical geometry (hot-window
// size, operand domain), so the hot/cold classification of a diff stream is
// the same on every DPU. The batched-tally path therefore replays a group's
// marked rows against one shared table (stats-free ColdCountRow) and credits
// the DPU's own table arithmetically (AddStats), leaving counters
// bit-identical to the private replay of the per-op reference.
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
	"drimann/internal/engine"
	"drimann/internal/ivf"
	"drimann/internal/layout"
	"drimann/internal/sched"
	"drimann/internal/sqt"
	"drimann/internal/topk"
	"drimann/internal/upmem"
	"drimann/internal/vecmath"
)

// Options configures an Engine. DefaultOptions enables every optimization
// the paper proposes; the ablation studies switch them off one at a time.
type Options struct {
	NumDPUs   int // default 64
	Tasklets  int // default 16
	K         int // neighbors per query; default 10
	NProbe    int // located clusters per query; default 32
	BatchSize int // queries per scheduling batch; default 256

	// UseSQT selects the multiplier-less LC kernel (paper §3.1 / Fig 11a).
	UseSQT bool
	// SQT16 simulates the 16-bit quantization mode (paper §3.1): the full
	// squaring table exceeds WRAM, so a hot window of small magnitudes stays
	// in the scratchpad and cold lookups pay an MRAM access. Residual
	// magnitudes concentrate near zero, so the hot window absorbs most
	// lookups; the engine measures the actual hit rate. Requires UseSQT.
	SQT16 bool
	// SQT16HotEntries sizes the WRAM-resident window; default 8192 (32 KB).
	SQT16HotEntries int
	// UseWRAM enables the WRAM buffer optimization: hot data (SQT, LUT,
	// staging, metadata) resides in the scratchpad (paper §3.2 / Fig 12b).
	UseWRAM bool
	// UseLockPruning forwards the current top-k bound to DC so tasklets skip
	// the shared-heap lock for most points (paper §6).
	UseLockPruning bool
	// UseBitonicTS replaces the shared priority queue with a per-slice
	// bitonic sorting network (the TS alternative in the paper's Figure 1):
	// lock-free and data-independent, but O(n log^2 n) compare-exchanges.
	// Results are identical; only the cost profile changes.
	UseBitonicTS bool

	// Layout toggles (paper §3.2 / Fig 13, 14).
	EnableSplit    bool
	EnableDup      bool
	EnableBalance  bool
	SplitThreshold int // 0 = automatic th1 search
	CopyFootprint  int // extra bytes per DPU for duplicates; default 128 KiB

	// Scheduling (paper §3.3).
	Th3       float64 // overheat postponement threshold; default 1.3
	Rebalance bool

	// TreeCLBranch > 0 replaces the flat host-side centroid scan with a
	// two-level k-means tree locator of that branching factor — the paper's
	// §6 extension point for tree/graph cluster organizations. 0 keeps the
	// flat IVF scan.
	TreeCLBranch int
	// TreeCLBeam is the number of upper nodes descended (0 = sqrt(branch)+1).
	TreeCLBeam int

	// LockCycles is the cost of one shared-heap lock acquisition.
	LockCycles uint64 // default 24
	// SQTAccessCycles is the per-lookup overhead of the squaring table
	// beyond the load itself (address generation, load-use stalls, WRAM
	// port pressure at 4-byte granularity) — the reason the paper's LC
	// speedup is ~1.93x rather than the naive 32x.
	SQTAccessCycles uint64 // default 8

	// Hardware overrides (0 = upmem defaults); used by failure-injection
	// tests and platform scaling studies.
	WRAMBytes int
	MRAMBytes int
	ClockHz   float64
	MulCycles uint64

	// Host models the CPU running CL and merging (Xeon Silver 4216-like).
	Host upmem.Platform

	Workers int // goroutine parallelism for the simulation itself

	// NoPipeline disables the cross-batch execution pipeline: with it set,
	// batch i+1's host-side cluster locating waits for batch i's DPU
	// simulation instead of overlapping with it. Results and metrics are
	// identical either way (the pipeline only changes wall-clock behavior,
	// never the simulated SimSeconds = Σ max(host, pim+xfer) accounting);
	// the flag exists for the serial reference path and determinism tests.
	NoPipeline bool

	// PerOpAccounting selects the retained per-operation reference
	// accountant: every simulated instruction and DMA is charged to the
	// upmem.DPU counters at the point it happens, per-group LUTs are
	// materialized, and the SQT16 replay runs privately per DPU. The default
	// batched cost-tally path produces bit-identical results and exactly
	// equal metrics while doing near-zero accounting work per point; this
	// flag exists so tests can verify that equivalence (and as a
	// maximally-literal reading of the paper's kernels for auditing).
	PerOpAccounting bool
}

// DefaultOptions returns the full DRIM-ANN configuration.
func DefaultOptions() Options {
	return Options{
		NumDPUs:         64,
		Tasklets:        16,
		K:               10,
		NProbe:          32,
		BatchSize:       256,
		UseSQT:          true,
		UseWRAM:         true,
		UseLockPruning:  true,
		EnableSplit:     true,
		EnableDup:       true,
		EnableBalance:   true,
		CopyFootprint:   128 << 10,
		Th3:             1.3,
		Rebalance:       true,
		LockCycles:      24,
		SQTAccessCycles: 8,
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
	if o.LockCycles == 0 {
		o.LockCycles = 24
	}
	if o.SQTAccessCycles == 0 {
		o.SQTAccessCycles = 8
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

	// loc is the CL stage (flat scan or TreeCL descent); shared read-only
	// with replica engines and borrowable by sharded front doors.
	loc *Locator
	// sqt16 holds one tiered table per DPU (kernels run concurrently and
	// the tables track per-DPU hit statistics); nil without Options.SQT16.
	sqt16 []*sqt.SQT16

	// lut is the decomposed host-side LUT builder (nil when the per-index
	// precomputation exceeds its memory budget; the engine then falls back
	// to direct LUTInt builds). lutScratch holds one per-worker scratch.
	lut        *ivf.LUTBuilder
	lutScratch []*ivf.LUTScratch

	// algebraic selects the LUT-free DC path (see the package doc): true
	// when the decomposed builder is available and the per-op reference
	// accountant (which materializes LUTs) is off.
	algebraic bool
	// bsum[c][i] is the static per-point decomposition term of point i of
	// cluster c (ivf.LUTBuilder.ClusterADCSums), built once at deployment.
	bsum [][]int32
	// asums[c][i] is bsum's twin for cluster c's live append segment,
	// maintained incrementally by Insert/Delete and cleared by Compact.
	// Like bsum it is shared across replicas: the outer array is allocated
	// once and only its elements are rewritten.
	asums [][]int32
	// lc is the static per-slice LC demand (lcdemand.go), shared like bsum.
	lc *lcDemand

	// freq and lcfg are the heat profile and layout configuration New
	// resolved, retained so Compact can re-run the layout optimizer over the
	// post-fold cluster sizes with identical inputs.
	freq []float64
	lcfg layout.Config

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
// cluster) group's residual — plus, depending on the execution mode, its
// LUT (materialized paths) or its decomposition terms (algebraic path) — is
// built exactly once, fanned across
// workers, then read by each DPU that scans a slice of the cluster. Arenas
// are sized for one group block at a time to bound memory.
type groupStore struct {
	keys []groupKey // sorted unique groups of the launch
	res  []int16    // block arena: residuals, blockGroups x Dim
	lut  []uint32   // block arena (materialized modes): LUTs, blockGroups x M*CB
	runs []int32    // query-run boundaries within the current block

	// Algebraic-mode arenas (see the package doc): one qe gather table per
	// query run, one scalar PTerm and run index per group.
	qe    []int32 // runs x M*CB
	p     []int32 // block-relative per-group PTerm
	runOf []int32 // block-relative per-group run index into qe
}

// dpuScratch is the reusable per-DPU kernel state: the top-k heap pool, the
// (query, heap) result list, the per-task group indices, and the launch
// cursor that lets kernels resume across group blocks.
type dpuScratch struct {
	heaps   []*topk.Heap[uint32] // pool, grown on demand, Reset between uses
	nHeaps  int                  // heaps handed out this launch
	results []dpuQueryResult     // ascending query order (tasks are sorted)
	groupIx []int32              // unique-group index per task
	itemBuf []topk.Item[uint32]  // SortedInto scratch for the host merge
	stats   dpuRunStats

	// tally batches this DPU's simulated costs; flushed to the upmem.DPU
	// once per launch block. distBuf holds one slice's DC distances between
	// the gather pass and the TS accept pass.
	tally   upmem.Tally
	distBuf []uint32

	// marks is the group's LC mark bitmap (per-op reference, and chargeLC
	// where cached counts do not suffice); lut the reference's sparse LUT.
	marks []uint64
	lut   []uint32

	// Launch cursor: position in the sorted task list plus the current
	// (query, cluster) group, preserved across group blocks.
	taskPos    int
	curQ, curC int32
	curHeap    *topk.Heap[uint32]
}

// scanSegment is one contiguous run of points a task scans: ids, packed
// codes, the algebraic path's static per-point terms, and the tombstone set
// filtering it (nil for append segments).
type scanSegment struct {
	ids   []int32
	codes []uint16
	sums  []int32
	tomb  map[int32]bool
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
	opts.defaults()
	cfg := upmem.DefaultConfig(opts.NumDPUs)
	cfg.Tasklets = opts.Tasklets
	if opts.WRAMBytes > 0 {
		cfg.WRAMBytes = opts.WRAMBytes
	}
	if opts.MRAMBytes > 0 {
		cfg.MRAMBytes = opts.MRAMBytes
	}
	if opts.ClockHz > 0 {
		cfg.Cost.ClockHz = opts.ClockHz
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
	e := &Engine{ix: ix, sys: sys, opts: opts, codeBytes: codeBytesFor(ix.CB, ix.M)}
	loc, err := NewLocator(ix, opts)
	if err != nil {
		return nil, err
	}
	e.loc = loc
	if opts.SQT16 {
		if !opts.UseSQT {
			return nil, fmt.Errorf("core: SQT16 requires UseSQT")
		}
		e.sqt16 = newSQT16Tables(opts)
	}

	// Offline heat profile: probe frequency over the profile workload.
	sizes := make([]int, ix.NList)
	for c := range sizes {
		sizes[c] = ix.ListLen(c)
	}
	freq := make([]float64, ix.NList)
	if profile.N > 0 {
		// The engine's own locator: the probes live queries will hit (TreeCL
		// included), located across workers.
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
	codebookBytes := ix.M * ix.CB * (ix.Dim / ix.M) * 2
	centroidBytes := ix.NList * ix.Dim
	fixed := codebookBytes + centroidBytes
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
	pl, err := layout.Optimize(sizes, freq, lcfg)
	if err != nil {
		return nil, fmt.Errorf("core: layout: %w", err)
	}
	if err := pl.Validate(sizes); err != nil {
		return nil, fmt.Errorf("core: layout invariants: %w", err)
	}
	e.pl = pl
	e.freq = freq
	e.lcfg = lcfg

	if err := e.accountMemory(); err != nil {
		return nil, err
	}

	// Host-side execution state: the decomposed LUT builder with one scratch
	// per worker, and the per-DPU kernel scratch reused across launches.
	e.lut = ix.NewLUTBuilder(opts.Workers)
	e.lutScratch = newLUTScratches(e.lut, opts.Workers)
	// The LUT-free DC path needs the static per-point decomposition term of
	// every cluster; build it once here (O(N*M) gathers over the whole
	// corpus). The per-op reference accountant materializes LUTs instead.
	e.algebraic = e.lut != nil && !opts.PerOpAccounting
	if e.algebraic {
		e.bsum = make([][]int32, ix.NList)
		e.asums = make([][]int32, ix.NList)
		parallelFor(ix.NList, opts.Workers, func(_, c int) {
			codes := ix.Codes[c]
			sums := make([]int32, len(codes)/ix.M)
			e.lut.ClusterADCSums(c, codes, sums)
			e.bsum[c] = sums
		})
	}
	e.lc = &lcDemand{}
	e.rebuildDemand()
	e.scratch = make([]dpuScratch, opts.NumDPUs)
	return e, nil
}

func codeBytesFor(cb, m int) int {
	if cb <= 256 {
		return m
	}
	return 2 * m
}

// newSQT16Tables builds one tiered 16-bit squaring table per DPU — all with
// identical geometry, the precondition of the SQT16 geometry invariant.
// Replica engines get their own tables (they carry per-DPU hit statistics).
func newSQT16Tables(opts Options) []*sqt.SQT16 {
	hot := opts.SQT16HotEntries
	if hot <= 0 {
		hot = 8192
	}
	t := make([]*sqt.SQT16, opts.NumDPUs)
	for i := range t {
		t[i] = sqt.NewSQT16(hot, sqt.MaxDiff8)
	}
	return t
}

// newLUTScratches allocates one LUT-builder scratch per worker (nil when the
// builder itself is unavailable).
func newLUTScratches(lut *ivf.LUTBuilder, workers int) []*ivf.LUTScratch {
	if lut == nil {
		return nil
	}
	scratches := make([]*ivf.LUTScratch, workers)
	for i := range scratches {
		scratches[i] = lut.NewScratch()
	}
	return scratches
}

// accountMemory reserves the engine's per-DPU MRAM (index-wide fixed data
// plus every placed slice) and WRAM (staging, SQT, metadata, and the LUT
// when it fits), recording metaPerDPU and lutInWRAM. New and NewReplica both
// run it — each against its own fresh upmem.System, since the simulated
// hardware is per replica even where the host-side data is shared.
func (e *Engine) accountMemory() error {
	ix, sys, opts := e.ix, e.sys, e.opts
	codebookBytes := ix.M * ix.CB * (ix.Dim / ix.M) * 2
	centroidBytes := ix.NList * ix.Dim
	fixed := codebookBytes + centroidBytes

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
	stagingBytes := 4096 + e.markWords32()*4
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

// SQT16HitRate reports the aggregate hot-window hit rate of the tiered
// 16-bit squaring tables, or 1 when the mode is off (the paper's claim:
// residual magnitudes concentrate, so the WRAM tier absorbs most lookups).
func (e *Engine) SQT16HitRate() float64 {
	hot, cold := e.sqt16Totals()
	if hot+cold == 0 {
		return 1
	}
	return float64(hot) / float64(hot+cold)
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

// bitonicSwaps is the compare-exchange count of a bitonic sorting network
// over n candidates: size/2 per column, log(size)*(log(size)+1)/2 columns.
func bitonicSwaps(n int) uint64 {
	if n < 2 {
		return 0
	}
	logSize := uint64(engine.Log2Ceil(n))
	return (uint64(1) << logSize) / 2 * logSize * (logSize + 1) / 2
}

// clBatch is one produced CL stage result: the slice-level requests of the
// query range [lo, hi).
type clBatch struct {
	lo, hi int
	reqs   []sched.Request
}

// SearchBatch searches every query and returns neighbors plus metrics.
//
// Execution is a three-stage pipeline (paper §3: host CL overlaps the PIM
// kernels): stage 1 locates clusters for a whole query batch across the
// engine's workers; stage 2 schedules the resulting tasks; stage 3 runs the
// DPU kernel simulation and host merge. Unless Options.NoPipeline is set,
// stage 1 of batch i+1 runs concurrently with stages 2-3 of batch i, so the
// host CL cost disappears from the wall-clock critical path exactly as the
// modeled SimSeconds = Σ max(host, pim+xfer) accounting assumes. Results and
// metrics are bit-identical between the pipelined and serial paths.
func (e *Engine) SearchBatch(queries dataset.U8Set) (*Result, error) {
	return e.searchBatch(queries, ProbeSet{}, false, true)
}

// searchBatch is the shared body behind SearchBatch and SearchBatchProbed.
// With probed set, the CL stage is replaced by expanding the pre-resolved
// probe lists of ps — in list order, which preserves the ascending-distance
// request order the scheduler sees on the plain path, so schedules, results
// and metrics stay bit-identical when ps came from this engine's Locator.
// chargeCL controls whether each batch's host CL cost enters the metrics.
func (e *Engine) searchBatch(queries dataset.U8Set, ps ProbeSet, probed, chargeCL bool) (*Result, error) {
	if queries.D != e.ix.Dim {
		return nil, fmt.Errorf("core: query dim %d != index dim %d", queries.D, e.ix.Dim)
	}
	res := &Result{
		IDs:   make([][]int32, queries.N),
		Items: make([][]topk.Item[uint32], queries.N),
	}
	m := &res.Metrics
	m.Queries = queries.N
	// The per-DPU SQT16 counters accumulate across the engine's lifetime;
	// this call's share is the delta.
	sqtHot0, sqtCold0 := e.sqt16Totals()

	// Query ids are only unique within this call: drop any per-query terms
	// the LUT scratches cached during a previous SearchBatch.
	for _, sc := range e.lutScratch {
		sc.Invalidate()
	}

	partials := make([][]topk.Item[uint32], queries.N)
	nBatches := (queries.N + e.opts.BatchSize - 1) / e.opts.BatchSize

	// CL stage: probe storage for one batch plus the request-expansion
	// closure, owned by whichever goroutine runs the stage. The probed path
	// needs no probe buffers — it only reads ps.
	var probes []topk.Item[uint32]
	var counts []int
	if !probed {
		probes = make([]topk.Item[uint32], e.opts.BatchSize*e.opts.NProbe)
		counts = make([]int, e.opts.BatchSize)
	}
	runCL := func(lo, hi int, reqs []sched.Request) []sched.Request {
		reqs = reqs[:0]
		if probed {
			for qi := lo; qi < hi; qi++ {
				for _, c := range ps.Of(qi) {
					reqs = append(reqs, sched.Request{Query: int32(qi), Cluster: c})
				}
			}
			return reqs
		}
		e.loc.LocateBatch(queries, lo, hi, probes, counts)
		for qi := lo; qi < hi; qi++ {
			base := (qi - lo) * e.opts.NProbe
			for _, p := range probes[base : base+counts[qi-lo]] {
				reqs = append(reqs, sched.Request{Query: int32(qi), Cluster: p.ID})
			}
		}
		return reqs
	}

	// Pipelined mode: a producer goroutine runs CL one batch ahead, cycling
	// two request buffers through a free list so steady state allocates
	// nothing and CL of batch i+1 overlaps the DPU simulation of batch i.
	var clOut chan clBatch
	var clFree chan []sched.Request
	if !e.opts.NoPipeline && nBatches > 1 {
		clOut = make(chan clBatch, 1)
		clFree = make(chan []sched.Request, 2)
		clFree <- nil
		clFree <- nil
		go func() {
			for lo := 0; lo < queries.N; lo += e.opts.BatchSize {
				hi := lo + e.opts.BatchSize
				if hi > queries.N {
					hi = queries.N
				}
				clOut <- clBatch{lo: lo, hi: hi, reqs: runCL(lo, hi, <-clFree)}
			}
			close(clOut)
		}()
	}

	var carried []sched.Task
	var sb sched.Batch // schedule storage reused across launches
	var serialReqs []sched.Request
	scfg := sched.Config{
		Cost:      func(points int) float64 { return e.lc.heat[points] },
		Th3:       e.opts.Th3,
		Rebalance: e.opts.Rebalance,
	}

	for bi := 0; bi < nBatches; bi++ {
		lo := bi * e.opts.BatchSize
		hi := lo + e.opts.BatchSize
		if hi > queries.N {
			hi = queries.N
		}
		var reqs, clBuf []sched.Request
		if clOut != nil {
			cb := <-clOut
			reqs, clBuf = cb.reqs, cb.reqs
		} else {
			serialReqs = runCL(lo, hi, serialReqs)
			reqs = serialReqs
		}
		hostSec := 0.0
		if chargeCL {
			hostSec = e.loc.CLSeconds(hi - lo)
		}

		lastBatch := hi >= queries.N
		var pimPlusXfer float64
		for {
			sched.GreedyInto(&sb, reqs, carried, e.pl, scfg)
			reqs = nil
			carried = append(carried[:0], sb.Postponed...)
			m.Postponed += len(sb.Postponed)

			launchSec, mergeItems := e.runLaunch(&sb, queries, partials, m)
			pimPlusXfer += launchSec
			hostSec += engine.HostMergeSeconds(e.opts.Host, mergeItems, e.opts.K)

			if !lastBatch || len(carried) == 0 {
				break
			}
			// Final batch: drain postponed tasks with extra launches, but
			// stop postponing once only carried work remains.
			if scfg.Th3 > 0 {
				scfg.Th3 = scfg.Th3 * 2
			}
		}
		if clFree != nil {
			clFree <- clBuf
		}
		m.HostSeconds += hostSec
		m.SimSeconds += math.Max(hostSec, pimPlusXfer)
		m.Batches++
	}

	// Final per-query merge (already counted in host merge time above): the
	// K best of the query's partial lists, selected through a K-heap — the
	// lists hold tasks x K items, and sorting them all was a sixth of the
	// search's host time. A query with no partials keeps nil Items.
	sel := topk.NewHeap[uint32](e.opts.K)
	for qi := range partials {
		var items []topk.Item[uint32]
		if len(partials[qi]) > 0 {
			sel.Reset()
			for _, it := range partials[qi] {
				sel.Push(it.ID, it.Dist)
			}
			items = sel.Sorted()
		}
		res.Items[qi] = items
		ids := make([]int32, len(items))
		for j, it := range items {
			ids[j] = it.ID
		}
		res.IDs[qi] = ids
	}
	if m.SimSeconds > 0 {
		m.QPS = float64(queries.N) / m.SimSeconds
	}
	sqtHot1, sqtCold1 := e.sqt16Totals()
	m.SQT16Hot = sqtHot1 - sqtHot0
	m.SQT16Cold = sqtCold1 - sqtCold0
	return res, nil
}

// sqt16Totals sums the hot/cold lookup counters over every DPU's tiered
// table (both zero when the 16-bit mode is off).
func (e *Engine) sqt16Totals() (hot, cold uint64) {
	for _, t := range e.sqt16 {
		s := t.Stats()
		hot += s.Hot
		cold += s.Cold
	}
	return hot, cold
}

// groupBlockBudget bounds the shared residual+LUT arena of one launch
// block; large batches are processed in several blocks so memory stays flat
// while the per-block LUT builds still fan out across workers.
const groupBlockBudget = 48 << 20

// runLaunch executes one synchronous DPU launch and returns its wall time
// max(PIM, transfer) and the number of partial items merged on the host.
//
// The launch is staged for wall-clock speed without touching the simulated
// accounting: (1) every DPU's task list is sorted in parallel; (2) the
// launch's unique (query, cluster) groups are collected so each residual and
// LUT is built exactly once — in parallel across workers, block by block —
// instead of once per DPU touching the cluster; (3) DPU kernels run in
// parallel over the shared read-only LUTs, charging the per-DPU RC/LC/DC/TS
// costs exactly as a private build would; (4) results merge deterministically
// from reusable per-DPU heaps.
func (e *Engine) runLaunch(batch *sched.Batch, queries dataset.U8Set, partials [][]topk.Item[uint32], m *Metrics) (float64, int) {
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
		sc.curQ, sc.curC = -1, -1
		sc.curHeap = nil
	})

	// Stage 2: unique groups + per-task group indices + query shipments.
	// Host -> DPU: each (query, DPU) pair ships the query vector once.
	shipped := e.collectGroups(batch)
	e.sys.TransferToDPUs(uint64(shipped * queries.D))

	// Stage 3: build shared residuals/LUTs one block at a time, then let
	// every DPU consume its tasks whose groups fall inside the block.
	g := &e.groups
	blockGroups := groupBlockBudget / (e.ix.M*e.ix.CB*4 + e.ix.Dim*2)
	if blockGroups < 1 {
		blockGroups = 1
	}
	for gLo := 0; gLo < len(g.keys); gLo += blockGroups {
		gHi := gLo + blockGroups
		if gHi > len(g.keys) {
			gHi = len(g.keys)
		}
		e.buildGroups(queries, gLo, gHi)
		e.forEachDPU(batch, func(d int) {
			e.runDPUBlock(d, batch.PerDPU[d], gLo, gHi)
		})
	}

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
			sc.itemBuf = r.h.SortedInto(sc.itemBuf)
			partials[r.q] = append(partials[r.q], sc.itemBuf...)
			mergeItems += len(sc.itemBuf)
			fromDev += uint64(len(sc.itemBuf) * 8)
		}
		m.LockAcquired += sc.stats.lockAcquired
		m.LockSkipped += sc.stats.lockSkipped
		m.LUTBuilds += sc.stats.lutBuilds
		m.LUTReuses += sc.stats.lutReuses
		m.LUTEntries += sc.stats.lutEntries
		m.PointsScanned += sc.stats.points
	}
	e.sys.TransferFromDPUs(fromDev)

	pimSec, xferSec := m.AddLaunch(e.sys)
	return math.Max(pimSec, xferSec), mergeItems
}

type dpuRunStats struct {
	lockAcquired, lockSkipped uint64
	lutBuilds, lutReuses      uint64
	lutEntries                uint64 // LUT entries the LC kernels built
	points                    uint64
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
// building each exactly once. On the algebraic path this is the residual,
// the PTerm scalar and (per query run) the qe gather table; on the
// materialized paths (per-op reference, or LUT builder over budget) it is
// the residual and the full LUT. The residual is skipped where nothing reads
// it (algebraic path without the SQT16 replay). Work is fanned across
// workers per query run so per-query terms amortize over all clusters the
// query probes; per-worker scratches keep the stage allocation-free.
func (e *Engine) buildGroups(queries dataset.U8Set, gLo, gHi int) {
	g := &e.groups
	ix := e.ix
	dim, lutLen := ix.Dim, ix.M*ix.CB
	n := gHi - gLo
	if n <= 0 {
		return
	}
	needRes := !e.algebraic || e.sqt16 != nil
	if needRes && cap(g.res) < n*dim {
		g.res = make([]int16, n*dim)
	}
	if !e.algebraic && cap(g.lut) < n*lutLen {
		g.lut = make([]uint32, n*lutLen)
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
	if e.algebraic {
		if cap(g.qe) < (len(g.runs)-1)*lutLen {
			g.qe = make([]int32, (len(g.runs)-1)*lutLen)
		}
		if cap(g.p) < n {
			g.p = make([]int32, n)
			g.runOf = make([]int32, n)
		}
		g.p = g.p[:n]
		g.runOf = g.runOf[:n]
	}

	parallelFor(len(g.runs)-1, e.opts.Workers, func(w, ri int) {
		var sc *ivf.LUTScratch
		if e.lut != nil && !e.algebraic {
			sc = e.lutScratch[w]
		}
		lo, hi := int(g.runs[ri]), int(g.runs[ri+1])
		query := queries.Vec(int(g.keys[lo].q))
		var qq int32
		if e.algebraic {
			e.lut.BuildQE(query, g.qe[ri*lutLen:(ri+1)*lutLen])
			qq = vecmath.DotU8I32(query, query) // amortized over the run's clusters
		}
		for i := lo; i < hi; i++ {
			k := g.keys[i]
			var res []int16
			if needRes {
				res = g.res[(i-gLo)*dim : (i-gLo+1)*dim]
				vecmath.SubI16(res, query, ix.CentroidU8(int(k.c)))
			}
			if e.algebraic {
				g.p[i-gLo] = e.lut.PTermQQ(qq, query, int(k.c))
				g.runOf[i-gLo] = int32(ri)
			} else {
				lut := g.lut[(i-gLo)*lutLen : (i-gLo+1)*lutLen]
				switch {
				case e.lut != nil:
					e.lut.Build(k.q, query, int(k.c), lut, sc)
				case e.opts.UseSQT:
					ix.IntCB.LUTInt(res, lut, ix.SQT)
				default:
					ix.IntCB.LUTIntMul(res, lut)
				}
			}
		}
	})
}

// sameGroup returns the leading tasks of a DPU's sorted task list that share
// the first one's (query, cluster): the co-located slices one LC build serves.
func sameGroup(tasks []sched.Task) []sched.Task {
	n := 1
	for n < len(tasks) && tasks[n].Query == tasks[0].Query && tasks[n].Cluster == tasks[0].Cluster {
		n++
	}
	return tasks[:n]
}

// runDPUBlock advances one DPU's kernel execution through every task whose
// group lies in [gLo, gHi): per group it charges the RC and LC kernels, then
// functionally scans the slice (DC + TS). The cursor in the DPU scratch
// carries the run across blocks of the same launch.
//
// On the batched-tally hot path DC distances are computed by an unrolled
// batch gather kernel (LUT-free on the algebraic path), the TS accept pass
// tests a register-cached bound, and every simulated cost accumulates in the
// scratch tally, flushed to the DPU once per block. Options.PerOpAccounting
// swaps in the retained per-op reference kernels (the ...Ref functions) on
// the same task walk: every instruction and DMA is charged to the DPU at the
// point it happens, the LC kernel runs literally and DC scans the sparse LUT
// it left point by point. The tally path must reproduce the reference's
// results and metrics exactly.
func (e *Engine) runDPUBlock(d int, tasks []sched.Task, gLo, gHi int) {
	sc := &e.scratch[d]
	dpu := e.sys.DPUs[d]
	ix := e.ix
	g := &e.groups
	lutLen := ix.M * ix.CB
	ta := &sc.tally
	perOp := e.opts.PerOpAccounting
	for sc.taskPos < len(tasks) {
		gi := int(sc.groupIx[sc.taskPos])
		if gi >= gHi {
			break
		}
		t := tasks[sc.taskPos]
		sc.taskPos++
		if t.Query != sc.curQ {
			sc.curHeap = sc.nextHeap(e.opts.K)
			sc.results = append(sc.results, dpuQueryResult{q: t.Query, h: sc.curHeap})
		}
		if t.Query != sc.curQ || t.Cluster != sc.curC {
			sc.curQ, sc.curC = t.Query, t.Cluster
			group := sameGroup(tasks[sc.taskPos-1:])
			if perOp {
				e.chargeRCRef(dpu)
				e.chargeLCRef(dpu, sc, group, gi-gLo)
			} else {
				e.chargeRC(ta)
				e.chargeLC(ta, dpu, sc, group, gi-gLo)
			}
			sc.stats.lutBuilds++
		} else {
			sc.stats.lutReuses++
		}
		// Up to two segments per task: the slice's base points and, on the
		// slice that starts the cluster (slicing always begins at 0, so
		// exactly one task per (query, cluster) carries it), the live append
		// segment. Base-list tombstones filter in the TS accept pass while
		// the physically-scanned points still charge DC/TS.
		s := &e.pl.Slices[t.Slice]
		c := int(t.Cluster)
		segs := [2]scanSegment{{
			ids:   ix.Lists[c][s.Start : s.Start+s.Count],
			codes: ix.Codes[c][s.Start*ix.M : (s.Start+s.Count)*ix.M],
			tomb:  ix.Tombstoned(c),
		}}
		if e.algebraic {
			segs[0].sums = e.bsum[c][s.Start : s.Start+s.Count]
		}
		if s.Start == 0 && ix.AppendLen(c) > 0 {
			segs[1] = scanSegment{ids: ix.AppendIDs(c), codes: ix.AppendCodes(c)}
			if e.algebraic {
				segs[1].sums = e.asums[c]
			}
		}
		for _, sg := range segs {
			n := len(sg.ids)
			switch {
			case n == 0:
			case perOp:
				e.kernelDCTSRef(dpu, sc.lut, sg.ids, sg.codes, sg.tomb, sc.curHeap, &sc.stats)
			default:
				e.chargeMark(ta, n)
				if cap(sc.distBuf) < n {
					sc.distBuf = make([]uint32, n)
				}
				dist := sc.distBuf[:n]
				if e.algebraic {
					qe := g.qe[int(g.runOf[gi-gLo])*lutLen:][:lutLen]
					vecmath.ADCResidualBatch(dist, qe, sg.codes, sg.sums, g.p[gi-gLo], ix.M, ix.CB)
				} else {
					vecmath.ADCBatchU32(dist, g.lut[(gi-gLo)*lutLen:(gi-gLo+1)*lutLen], sg.codes, ix.M, ix.CB)
				}
				e.kernelTS(ta, dist, sg.ids, sg.tomb, sc)
			}
		}
	}
	dpu.ApplyTally(ta)
	ta.Reset()
}

// chargeRC accounts the residual-calculation kernel (paper Equations 4-5):
// D subtractions plus centroid DMA from MRAM. The residual value itself is
// computed once per group in buildGroups; every DPU running the group is
// still charged as if it ran the kernel privately, as the hardware would.
func (e *Engine) chargeRC(ta *upmem.Tally) {
	cost := &e.sys.Cfg.Cost
	n := uint64(e.ix.Dim)
	ta.Charge(cost, upmem.PhaseRC, upmem.OpLoad, 2*n)
	ta.Charge(cost, upmem.PhaseRC, upmem.OpAdd, n)
	ta.Charge(cost, upmem.PhaseRC, upmem.OpStore, n)
	ta.DMA(upmem.PhaseRC, n) // centroid bytes (uint8)
}

// chargeRCRef is the per-op reference twin of chargeRC.
func (e *Engine) chargeRCRef(dpu *upmem.DPU) {
	n := uint64(e.ix.Dim)
	dpu.Charge(upmem.PhaseRC, upmem.OpLoad, 2*n)
	dpu.Charge(upmem.PhaseRC, upmem.OpAdd, n)
	dpu.Charge(upmem.PhaseRC, upmem.OpStore, n)
	dpu.DMA(upmem.PhaseRC, n) // centroid bytes (uint8)
}

// markCyclesPerCode is the LC mark pass per scanned code element: load the
// code, derive word index, bit index and mask, then load, or and store the
// bitmap word (2 loads, 4 ALU ops, 1 store).
const markCyclesPerCode = 7

// markWords32 is the size of the DPU's WRAM mark bitmaps in its native
// 32-bit words.
func (e *Engine) markWords32() int { return e.ix.M * ((e.ix.CB + 31) / 32) }

// chargeMark accounts the LC mark pass over one scanned segment of n points:
// the segment's codes stream from MRAM a second time (DC streams them again
// with the ids) and every code element sets its bit in the WRAM bitmap.
func (e *Engine) chargeMark(ta *upmem.Tally, n int) {
	ta.ChargeCycles(upmem.PhaseLC, uint64(n*e.ix.M)*markCyclesPerCode)
	ta.DMA(upmem.PhaseLC, uint64(n*e.codeBytes))
}

// lcCosts prices the scan-and-build half of the LC kernel (Equations 6-7
// over the referenced entries) once its data-dependent counts are known:
// the instruction cycles, and the unbuffered MRAM access batches (zero where
// a mode has none). The bitmaps are cleared, then scanned word by word; each
// marked entry is extracted, tested for run continuation, built from dsub
// elements — with UseSQT a square is |a-b| plus one table load, without it a
// multiply — and stored. SQT16 cold lookups hit the MRAM tier, as does the
// whole SQT without the WRAM buffer and the LUT when it does not fit WRAM.
func (e *Engine) lcCosts(entries, cold uint64) (cycles uint64, mram [3]uint64) {
	c := &e.sys.Cfg.Cost
	elems := entries * uint64(e.ix.Dim/e.ix.M)
	perElem := 2*c.AddCycles + c.LoadCycles // subtract, accumulate, codebook element load
	if e.opts.UseSQT {
		perElem += c.AddCycles + c.LoadCycles + e.opts.SQTAccessCycles // abs, table lookup
		mram[0] = cold
		if !e.opts.UseWRAM {
			mram[1] = elems - cold
		}
	} else {
		perElem += c.MulCycles
	}
	if !e.lutInWRAM {
		mram[2] = entries
	}
	cycles = uint64(e.markWords32())*(c.StoreCycles+c.LoadCycles+c.CmpCycles) +
		entries*(c.AddCycles+c.CmpCycles+c.StoreCycles) + elems*perElem
	return cycles, mram
}

// replayCold replays the SQT16 diff stream of the marked rows only through
// count (a table's CountColdRow or ColdCountRow) and totals the cold lookups.
func (e *Engine) replayCold(count func(res, entry []int16) uint64, res []int16, bm []uint64) (cold uint64) {
	ix := e.ix
	dsub := ix.Dim / ix.M
	markedRuns(bm, ix.M, ix.CB, func(m, lo, hi int) {
		for c := lo; c < hi; c++ {
			cold += count(res[m*dsub:(m+1)*dsub], ix.IntCB.Entry(m, c))
		}
	})
	return cold
}

// chargeLC accounts the mark-then-build LC kernel (see the package doc) for
// one group on one DPU, except its mark pass (chargeMark, per scanned
// segment). group is the DPU's co-located tasks of the group, bi its block
// index. The entry and run counts come from the slice's cached demand; only
// a group spanning several slices (their union is not cached) and the SQT16
// replay (which needs the marked rows themselves, and runs against a shared
// table per the geometry invariant) mark the scratch bitmap here.
func (e *Engine) chargeLC(ta *upmem.Tally, dpu *upmem.DPU, sc *dpuScratch, group []sched.Task, bi int) {
	ix := e.ix
	ref := e.lc.bySlice[group[0].Slice]
	var cold uint64
	if len(group) > 1 || e.sqt16 != nil {
		if sc.marks == nil {
			sc.marks = e.newMarks()
		}
		clear(sc.marks)
		for _, t := range group {
			e.markSlice(sc.marks, &e.pl.Slices[t.Slice])
		}
		ref = countMarks(sc.marks, markWordsPer(ix.CB))
		if e.sqt16 != nil {
			cold = e.replayCold(e.sqt16[0].ColdCountRow, e.groups.res[bi*ix.Dim:(bi+1)*ix.Dim], sc.marks)
		}
	}
	entries := uint64(ref.need)
	elems := entries * uint64(ix.Dim/ix.M)
	if e.sqt16 != nil {
		e.sqt16[dpu.ID].AddStats(elems-cold, cold)
	}
	sc.stats.lutEntries += entries
	cycles, mram := e.lcCosts(entries, cold)
	ta.ChargeCycles(upmem.PhaseLC, cycles)
	for _, n := range mram {
		ta.RandomAccess(upmem.PhaseLC, n)
	}
	ta.DMAs(upmem.PhaseLC, uint64(ref.runs), 2*elems) // marked codebook rows (int16), one DMA per run
}

// chargeLCRef is the per-op reference twin of chargeMark + chargeLC: it runs
// the kernel literally. Every co-located slice's real codes are marked
// segment by segment; the bitmap scan walks the marked runs, issuing one
// codebook DMA per run and copying only marked entries from the group's
// full LUT (the functional values) into the DPU's LUT, which is poisoned
// first — DC gathers from that LUT, so an entry the kernel failed to build
// corrupts the answers. In SQT16 mode the marked rows' diff stream replays
// privately against this DPU's tiered table.
func (e *Engine) chargeLCRef(dpu *upmem.DPU, sc *dpuScratch, group []sched.Task, bi int) {
	ix := e.ix
	lutLen := ix.M * ix.CB
	full := e.groups.lut[bi*lutLen : (bi+1)*lutLen]
	if sc.marks == nil {
		sc.marks, sc.lut = e.newMarks(), make([]uint32, lutLen)
	}
	clear(sc.marks)
	mark := func(codes []uint16) {
		if n := len(codes) / ix.M; n > 0 {
			dpu.ChargeCycles(upmem.PhaseLC, uint64(n*ix.M)*markCyclesPerCode)
			dpu.DMA(upmem.PhaseLC, uint64(n*e.codeBytes)) // second code stream
			markCodes(sc.marks, codes, ix.M, markWordsPer(ix.CB))
		}
	}
	for _, t := range group {
		s := &e.pl.Slices[t.Slice]
		mark(ix.Codes[t.Cluster][s.Start*ix.M : (s.Start+s.Count)*ix.M])
		if s.Start == 0 {
			mark(ix.AppendCodes(int(t.Cluster)))
		}
	}
	for i := range sc.lut {
		sc.lut[i] = math.MaxUint32
	}
	var entries, cold uint64
	rowBytes := uint64(ix.Dim / ix.M * 2)
	markedRuns(sc.marks, ix.M, ix.CB, func(m, lo, hi int) {
		dpu.DMA(upmem.PhaseLC, uint64(hi-lo)*rowBytes) // marked codebook rows (int16)
		copy(sc.lut[m*ix.CB+lo:m*ix.CB+hi], full[m*ix.CB+lo:m*ix.CB+hi])
		entries += uint64(hi - lo)
	})
	if e.sqt16 != nil {
		cold = e.replayCold(e.sqt16[dpu.ID].CountColdRow, e.groups.res[bi*ix.Dim:(bi+1)*ix.Dim], sc.marks)
	}
	sc.stats.lutEntries += entries
	cycles, mram := e.lcCosts(entries, cold)
	dpu.ChargeCycles(upmem.PhaseLC, cycles)
	for _, n := range mram {
		dpu.RandomAccess(upmem.PhaseLC, n)
	}
}

// kernelTS runs the top-k accept pass (TS, Equations 10-11) over one
// slice's DC distances against a register-cached bound (topk.Bound — the
// predicate is exactly Heap.WouldAccept, re-captured after each Push), then
// charges the slice's DC and TS costs in bulk: locks and heap updates are
// counted during the scan and converted to cycles once, which is exact
// because every per-op charge is a uint64 product.
func (e *Engine) kernelTS(ta *upmem.Tally, dist []uint32, ids []int32, tomb map[int32]bool, sc *dpuScratch) {
	h := sc.curHeap
	bound := h.Bound()
	var accepts uint64
	if tomb == nil {
		for i, dv := range dist {
			if bound.Accepts(ids[i], dv) {
				h.Push(ids[i], dv)
				bound = h.Bound()
				accepts++
			}
		}
	} else {
		// Tombstoned base-list points are scanned (and charged) but never
		// accepted into the heap.
		for i, dv := range dist {
			if tomb[ids[i]] {
				continue
			}
			if bound.Accepts(ids[i], dv) {
				h.Push(ids[i], dv)
				bound = h.Bound()
				accepts++
			}
		}
	}

	cost := &e.sys.Cfg.Cost
	n := uint64(len(dist))
	logK := uint64(engine.Log2Ceil(e.opts.K))
	st := &sc.stats
	st.points += n
	switch {
	case e.opts.UseBitonicTS:
		// No shared queue, no per-accept heap updates.
		swaps := bitonicSwaps(len(dist))
		ta.Charge(cost, upmem.PhaseTS, upmem.OpCmp, swaps)
		ta.Charge(cost, upmem.PhaseTS, upmem.OpStore, swaps/2)
	case e.opts.UseLockPruning:
		st.lockAcquired += accepts
		st.lockSkipped += n - accepts
		ta.ChargeCycles(upmem.PhaseTS, accepts*e.opts.LockCycles)
		ta.Charge(cost, upmem.PhaseTS, upmem.OpCmp, accepts*logK)
		ta.Charge(cost, upmem.PhaseTS, upmem.OpStore, accepts*logK)
	default:
		st.lockAcquired += n
		ta.ChargeCycles(upmem.PhaseTS, n*e.opts.LockCycles)
		ta.Charge(cost, upmem.PhaseTS, upmem.OpCmp, accepts*logK)
		ta.Charge(cost, upmem.PhaseTS, upmem.OpStore, accepts*logK)
	}

	um := uint64(e.ix.M)
	ta.Charge(cost, upmem.PhaseDC, upmem.OpLoad, n*um) // code element loads
	ta.Charge(cost, upmem.PhaseDC, upmem.OpLoad, n*um) // LUT gathers
	ta.Charge(cost, upmem.PhaseDC, upmem.OpAdd, n*(um-1))
	ta.Charge(cost, upmem.PhaseTS, upmem.OpCmp, n) // bound comparison per point
	ta.DMA(upmem.PhaseDC, n*uint64(e.codeBytes+4)) // codes + ids stream
	if !e.opts.UseWRAM || !e.lutInWRAM {
		ta.RandomAccess(upmem.PhaseDC, n*um) // LUT gathers hit MRAM
	}
}

// kernelDCTSRef is the per-op reference twin of the batch-DC + kernelTS
// pair: per point M LUT gathers and M-1 adds (DC, Equations 8-9), then the
// top-k update (TS, Equations 10-11) with the shared-heap lock and optional
// lock pruning, each cost charged as it is simulated.
func (e *Engine) kernelDCTSRef(dpu *upmem.DPU, lut []uint32, ids []int32, codes []uint16, tomb map[int32]bool, h *topk.Heap[uint32], st *dpuRunStats) {
	ix := e.ix
	n := len(ids)
	m := ix.M
	logK := uint64(engine.Log2Ceil(e.opts.K))

	for i := 0; i < n; i++ {
		dist := vecmath.ADCU32(lut, codes[i*m:(i+1)*m], ix.CB)
		accept := (tomb == nil || !tomb[ids[i]]) && h.WouldAccept(ids[i], dist)
		switch {
		case e.opts.UseBitonicTS:
			// Lock-free network: no shared queue, costs charged in bulk
			// below.
		case e.opts.UseLockPruning:
			if accept {
				st.lockAcquired++
				dpu.ChargeCycles(upmem.PhaseTS, e.opts.LockCycles)
			} else {
				st.lockSkipped++
			}
		default:
			st.lockAcquired++
			dpu.ChargeCycles(upmem.PhaseTS, e.opts.LockCycles)
		}
		if accept {
			h.Push(ids[i], dist)
			if !e.opts.UseBitonicTS {
				dpu.Charge(upmem.PhaseTS, upmem.OpCmp, logK)
				dpu.Charge(upmem.PhaseTS, upmem.OpStore, logK)
			}
		}
	}
	st.points += uint64(n)
	if e.opts.UseBitonicTS {
		swaps := bitonicSwaps(n)
		dpu.Charge(upmem.PhaseTS, upmem.OpCmp, swaps)
		dpu.Charge(upmem.PhaseTS, upmem.OpStore, swaps/2)
	}

	un := uint64(n)
	um := uint64(m)
	dpu.Charge(upmem.PhaseDC, upmem.OpLoad, un*um) // code element loads
	dpu.Charge(upmem.PhaseDC, upmem.OpLoad, un*um) // LUT gathers
	dpu.Charge(upmem.PhaseDC, upmem.OpAdd, un*(um-1))
	dpu.Charge(upmem.PhaseTS, upmem.OpCmp, un)       // bound comparison per point
	dpu.DMA(upmem.PhaseDC, un*uint64(e.codeBytes+4)) // codes + ids stream
	if !e.opts.UseWRAM || !e.lutInWRAM {
		dpu.RandomAccess(upmem.PhaseDC, un*um) // LUT gathers hit MRAM
	}
}
