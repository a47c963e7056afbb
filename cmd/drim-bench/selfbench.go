package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/pq"
	"drimann/internal/topk"
)

// benchEntry is one -bench measurement in the BENCH_core.json trajectory.
// The file is an append-only JSON array of these entries, one per (run,
// GOMAXPROCS) pair, so successive PRs can track the simulator's own
// wall-clock speed and multi-core scaling. Schema:
type benchEntry struct {
	// Note is free-form context for the entry (what changed in this PR).
	Note string `json:"note,omitempty"`
	// Backend tags which engine produced the entry: "" (legacy and
	// default) is the IVF-PQ engine, "graph" the beam-search graph
	// backend. Cross-PR comparisons only match entries with the same
	// backend tag, so IVF history keeps comparing against IVF.
	Backend string `json:"backend,omitempty"`
	// Mode distinguishes entry kinds: "" (legacy/default) is the offline
	// -bench measurement, "serve" the -serve closed-loop load-generator
	// measurement over the online serving layer, "cluster" the -shards
	// scatter-gather measurement over the sharded fleet, "mutate" the
	// -mutate live-appends-vs-compacted measurement. Cross-PR comparisons
	// only match entries of the same mode.
	Mode string `json:"mode,omitempty"`
	// Timestamp is the measurement time (RFC 3339, UTC).
	Timestamp string `json:"timestamp"`
	// GoMaxProcs is the GOMAXPROCS the measurement ran under; -bench sweeps
	// (1, NumCPU) by default so single-core and multi-core scaling are both
	// recorded (override with -benchprocs).
	GoMaxProcs int `json:"go_max_procs"`
	// N/D/Queries identify the fixture; Runs is the repetition count (the
	// best time of Runs is recorded); DPUs the simulated system size.
	N       int `json:"n"`
	D       int `json:"d"`
	Queries int `json:"queries"`
	Runs    int `json:"runs"`
	DPUs    int `json:"dpus"`

	// SerialSec is the serial reference path (Workers=1, NoPipeline);
	// PipelinedSec the default engine. Both are wall-clock seconds for the
	// full query set.
	SerialSec    float64 `json:"serial_seconds"`
	PipelinedSec float64 `json:"pipelined_seconds"`

	// SpeedupVsSerial = serial_seconds / pipelined_seconds: the engine's
	// pipelined path against its own serial mode in the same build (≈1 on a
	// single hardware thread, where pipelining cannot help).
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
	// SpeedupVsPrev = previous pipelined_seconds / this pipelined_seconds,
	// against the most recent earlier entry with the same fixture shape and
	// GOMAXPROCS — the cross-PR improvement on this phase. Omitted when no
	// comparable entry exists.
	SpeedupVsPrev float64 `json:"speedup_vs_prev_entry,omitempty"`

	// WallQPS is pipelined wall-clock throughput; SimQPS the modeled
	// PIM-system throughput (unaffected by host speed).
	WallQPS float64 `json:"wall_qps"`
	SimQPS  float64 `json:"sim_qps"`

	// LocateSec/LocateQPS measure the batched CL stage alone. Not omitempty:
	// the fields predate the serve mode and historical entries carry them
	// explicitly, so marshaling must keep old records byte-stable.
	LocateSec float64 `json:"locate_seconds"`
	LocateQPS float64 `json:"locate_qps"`

	// Serve-mode fields (mode == "serve"): the closed-loop load-generator
	// configuration and its outcome. Clients is the concurrent caller
	// count; TargetQPS the aggregate pacing target (0 = unthrottled);
	// MaxWaitMS / MaxBatch the batcher policy; DurSec the measurement
	// window. AchievedQPS counts completed requests over the window;
	// P50/P95/P99MS are client-observed Search latencies; MeanBatch the
	// completed-weighted mean launch size. For serve entries,
	// SpeedupVsPrev is this AchievedQPS over the previous comparable
	// entry's (>1 = faster serving).
	Clients     int     `json:"clients,omitempty"`
	TargetQPS   float64 `json:"target_qps,omitempty"`
	MaxWaitMS   float64 `json:"max_wait_ms,omitempty"`
	MaxBatch    int     `json:"max_batch,omitempty"`
	DurSec      float64 `json:"duration_seconds,omitempty"`
	AchievedQPS float64 `json:"achieved_qps,omitempty"`
	P50MS       float64 `json:"p50_ms,omitempty"`
	P95MS       float64 `json:"p95_ms,omitempty"`
	P99MS       float64 `json:"p99_ms,omitempty"`
	MeanBatch   float64 `json:"mean_batch,omitempty"`

	// Cluster-mode fields (mode == "cluster"): Shards is the fleet size
	// (DPUs above is per shard), Assignment the partitioning policy. For
	// cluster entries PipelinedSec/WallQPS measure the scatter-gather
	// Cluster.SearchBatch wall clock, SerialSec/SpeedupVsSerial the
	// single-engine (unsharded) reference over the same index in the same
	// build, and SimQPS the fleet's modeled throughput (max-over-shards
	// latency accounting). SpeedupVsPrev only compares against earlier
	// cluster entries with the same fixture shape, shard count and
	// assignment.
	Shards     int    `json:"shards,omitempty"`
	Assignment string `json:"assignment,omitempty"`

	// Routing fields (mode == "cluster"): Selective marks entries measured
	// on the routed path (coarse locate runs once at the front door and only
	// shards owning probed clusters are contacted) — every entry written
	// today; hash-assignment entries from before ISSUE 15 were measured on a
	// broadcast path (every shard ran CL itself), lack the field, and are
	// never compared with routed ones. MeanFanout/MaxFanout summarize the
	// per-batch shards-contacted distribution; FrontCLShare is the
	// front-door CL stage's share of the scatter-gather wall clock.
	Selective    bool    `json:"selective_scatter,omitempty"`
	MeanFanout   float64 `json:"mean_fanout,omitempty"`
	MaxFanout    int     `json:"max_fanout,omitempty"`
	FrontCLShare float64 `json:"front_cl_share,omitempty"`

	// Replica-mode fields (mode == "replica"): the -replicas tail-masking
	// benchmark. Replicas is the copies per shard; StragglerDelayMS /
	// StragglerEvery describe the injected straggler (every
	// straggler_every-th call to one replica of each shard stalls by
	// straggler_delay_ms) — both zero when -straggler is off. The same
	// closed-loop load (Clients above) runs twice over the same degraded
	// fleet, hedging off then on; the Unhedged*/Hedged* percentiles are the
	// client-observed Search latencies of the two runs, and the QPS pair
	// their throughputs. For replica entries SpeedupVsPrev compares hedged
	// p99 tails across PRs (previous hedged_p99_ms over this one, >1 =
	// better tail); the headline hedged-vs-unhedged ratio within the run is
	// unhedged_p99_ms / hedged_p99_ms.
	Replicas         int     `json:"replicas,omitempty"`
	StragglerDelayMS float64 `json:"straggler_delay_ms,omitempty"`
	StragglerEvery   int     `json:"straggler_every,omitempty"`
	UnhedgedP50MS    float64 `json:"unhedged_p50_ms,omitempty"`
	UnhedgedP99MS    float64 `json:"unhedged_p99_ms,omitempty"`
	UnhedgedP999MS   float64 `json:"unhedged_p999_ms,omitempty"`
	HedgedP50MS      float64 `json:"hedged_p50_ms,omitempty"`
	HedgedP99MS      float64 `json:"hedged_p99_ms,omitempty"`
	HedgedP999MS     float64 `json:"hedged_p999_ms,omitempty"`
	UnhedgedQPS      float64 `json:"unhedged_qps,omitempty"`
	HedgedQPS        float64 `json:"hedged_qps,omitempty"`

	// Mutate-mode fields (mode == "mutate"): the -mutate live-mutability
	// benchmark. AppendFrac is the fraction of the base count appended live
	// (one entry per fraction; AppendCount the resulting point count,
	// OverlayBytes the overlay's memory cost at measurement time).
	// OverlaySec/OverlayQPS measure the offline batch over the index with
	// that overlay in place — fresh points served out of append segments —
	// and CompactedSec/CompactedQPS the same build's packed baseline before
	// any append, shared by every fraction of the run; within a run,
	// overlay_qps / compacted_qps prices the overlay scan. For mutate
	// entries SpeedupVsPrev is this OverlayQPS over the previous comparable
	// entry's (same fixture and fraction; >1 = faster mutable serving).
	AppendFrac   float64 `json:"append_frac,omitempty"`
	AppendCount  int     `json:"append_count,omitempty"`
	OverlayBytes int64   `json:"overlay_bytes,omitempty"`
	OverlaySec   float64 `json:"overlay_seconds,omitempty"`
	OverlayQPS   float64 `json:"overlay_qps,omitempty"`
	CompactedSec float64 `json:"compacted_seconds,omitempty"`
	CompactedQPS float64 `json:"compacted_qps,omitempty"`

	// Recovery-mode fields (mode == "recovery"): the -recovery durability
	// benchmark. MutCount is the number of mutated points (inserts plus
	// deletes) applied and WAL-logged before the kill; WALBytes the log's
	// size at the kill point. SyncedMutQPS and UnsyncedMutQPS are
	// acknowledged mutations/s over the identical workload under
	// fsync-every-batch vs fsync-off — their ratio prices the sync.
	// RecoverSec is the wall clock of Recover (redeploy the checkpoint,
	// replay the WAL tail), after which the recovered engine's results are
	// verified bit-identical to the killed engine's; for recovery entries
	// WallQPS/SimQPS measure the recovered engine's offline batch and
	// SpeedupVsPrev is the previous comparable entry's recover_seconds
	// over this one (>1 = faster recovery).
	MutCount       int     `json:"mut_count,omitempty"`
	WALBytes       int64   `json:"wal_bytes,omitempty"`
	SyncedMutQPS   float64 `json:"synced_mut_qps,omitempty"`
	UnsyncedMutQPS float64 `json:"unsynced_mut_qps,omitempty"`
	RecoverSec     float64 `json:"recover_seconds,omitempty"`

	// Head-to-head fields (mode == "headtohead"): one entry per (backend,
	// curve point) of the -headtohead recall-vs-QPS sweep, all queries
	// driven through the online serving path. CurveParam names the knob
	// being swept (IVF: "nprobe"; graph: "beam"), CurveValue its setting,
	// Recall10 the recall@10 against exact ground truth; SimQPS above is
	// the modeled PIM throughput at that point and WallQPS the wall-clock
	// throughput through the server. BuildSec is the one-time index/graph
	// construction cost of the backend (repeated on every entry of the
	// sweep for self-containedness). SpeedupVsPrev compares SimQPS against
	// the previous comparable entry (same backend, param and value).
	CurveParam string  `json:"curve_param,omitempty"`
	CurveValue int     `json:"curve_value,omitempty"`
	Recall10   float64 `json:"recall_at_10,omitempty"`
	BuildSec   float64 `json:"build_seconds,omitempty"`
}

// validateChoice rejects a flag value outside its closed set of valid
// options, naming them — enum flags must fail loudly, not fall back.
func validateChoice(flagName, value string, valid []string) error {
	for _, v := range valid {
		if value == v {
			return nil
		}
	}
	return fmt.Errorf("unknown %s %q (valid: %s)", flagName, value, strings.Join(valid, ", "))
}

// parseProcsList parses the -benchprocs flag: a comma-separated GOMAXPROCS
// sweep, where "max" (or 0) means NumCPU. Duplicates collapse.
func parseProcsList(spec string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		p := 0
		if f != "max" {
			v, err := strconv.Atoi(f)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad -benchprocs element %q", f)
			}
			p = v
		}
		if p == 0 {
			p = runtime.NumCPU()
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-benchprocs is empty")
	}
	return out, nil
}

// runSelfBench measures the simulator's own wall-clock speed — the pipelined
// engine vs the serial reference path plus, on the IVF backend, the batched
// CL stage alone — once per GOMAXPROCS value in the sweep, and appends one
// entry per value to the trajectory file at outPath. backend selects the
// engine under test ("ivf" or "graph"); graph entries carry a backend tag
// and only ever compare against graph entries.
func runSelfBench(n, queries, dpus int, seed int64, runs int, procsSpec, backend, note, outPath string) error {
	if n <= 0 {
		n = 100000
	}
	if queries <= 0 {
		queries = 1000
	}
	if dpus <= 0 {
		dpus = core.DefaultOptions().NumDPUs
	}
	if seed == 0 {
		seed = 1
	}
	if runs <= 0 {
		runs = 1
	}
	procs, err := parseProcsList(procsSpec)
	if err != nil {
		return err
	}
	if backend == "graph" {
		return runGraphSelfBench(n, queries, dpus, seed, runs, procs, note, outPath)
	}

	fmt.Printf("drim-bench self-benchmark: N=%d queries=%d DPUs=%d procs=%v runs=%d\n",
		n, queries, dpus, procs, runs)
	s := dataset.SIFT(n, queries, seed)
	// Training is capped so setup stays in seconds; search-time cost is
	// unaffected by the training budget.
	t0 := time.Now()
	ix, err := ivf.Build(s.Base, ivf.BuildConfig{
		NList:       1024,
		PQ:          pq.Config{M: 16, CB: 256},
		KMeansIters: 4,
		TrainSample: 8000,
		Seed:        seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  index built in %.1fs\n", time.Since(t0).Seconds())

	var trajectory []benchEntry
	raw, err := os.ReadFile(outPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &trajectory); err != nil {
			return fmt.Errorf("existing %s is not a trajectory file: %w", outPath, err)
		}
	case !os.IsNotExist(err):
		// Never truncate history because the read failed for some other
		// reason (permissions, IO): surface it instead.
		return fmt.Errorf("reading %s: %w", outPath, err)
	}
	// Cross-PR comparisons only look at entries that existed before this
	// invocation, so a sweep never compares against itself.
	prior := trajectory

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // restore on exit
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		fmt.Printf("  GOMAXPROCS=%d\n", p)

		pipeOpts := core.DefaultOptions()
		pipeOpts.NumDPUs = dpus
		pipeOpts.Workers = p
		serialOpts := pipeOpts
		serialOpts.Workers = 1
		serialOpts.NoPipeline = true
		serial, err := core.New(ix, dataset.U8Set{}, serialOpts)
		if err != nil {
			return err
		}
		pipelined, err := core.New(ix, dataset.U8Set{}, pipeOpts)
		if err != nil {
			return err
		}

		timeSearch := func(e *core.Engine) (float64, float64, error) {
			best := -1.0
			var simQPS float64
			for r := 0; r < runs; r++ {
				t := time.Now()
				res, err := e.SearchBatch(s.Queries)
				if err != nil {
					return 0, 0, err
				}
				if sec := time.Since(t).Seconds(); best < 0 || sec < best {
					best = sec
				}
				simQPS = res.Metrics.QPS
			}
			return best, simQPS, nil
		}

		serialSec, _, err := timeSearch(serial)
		if err != nil {
			return err
		}
		fmt.Printf("    serial    (Workers=1, no pipeline): %.3fs  (%.0f queries/s)\n",
			serialSec, float64(queries)/serialSec)
		pipeSec, simQPS, err := timeSearch(pipelined)
		if err != nil {
			return err
		}
		fmt.Printf("    pipelined (default options):        %.3fs  (%.0f queries/s)  vs serial %.2fx\n",
			pipeSec, float64(queries)/pipeSec, serialSec/pipeSec)

		nprobe := core.DefaultOptions().NProbe
		out := make([]topk.Item[uint32], queries*nprobe)
		counts := make([]int, queries)
		locateSec := -1.0
		for r := 0; r < runs; r++ {
			t := time.Now()
			ix.LocateBatch(s.Queries, 0, queries, nprobe, 0, out, counts)
			if sec := time.Since(t).Seconds(); locateSec < 0 || sec < locateSec {
				locateSec = sec
			}
		}
		fmt.Printf("    LocateBatch: %.3fs  (%.0f queries/s)\n", locateSec, float64(queries)/locateSec)

		entry := benchEntry{
			Note:       note,
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			GoMaxProcs: p,
			N:          n, D: s.Base.D, Queries: queries, Runs: runs,
			DPUs:            dpus,
			SerialSec:       serialSec,
			PipelinedSec:    pipeSec,
			SpeedupVsSerial: serialSec / pipeSec,
			WallQPS:         float64(queries) / pipeSec,
			SimQPS:          simQPS,
			LocateSec:       locateSec,
			LocateQPS:       float64(queries) / locateSec,
		}
		if prev := lastComparable(prior, entry); prev != nil && pipeSec > 0 {
			entry.SpeedupVsPrev = prev.PipelinedSec / pipeSec
			fmt.Printf("    vs previous entry (%s): %.2fx\n", prev.Timestamp, entry.SpeedupVsPrev)
		}
		trajectory = append(trajectory, entry)
	}

	raw, err = json.MarshalIndent(trajectory, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  recorded %d entr%s in %s (total %d)\n",
		len(procs), map[bool]string{true: "y", false: "ies"}[len(procs) == 1], outPath, len(trajectory))
	return nil
}

// lastComparable returns the most recent prior entry of the same mode and
// backend measuring the same fixture shape at the same GOMAXPROCS — and,
// per mode, the same configuration: serve entries must match the
// load-generator setup, cluster entries the shard count and assignment
// policy, head-to-head entries the swept knob and its value. Entries of
// different modes or backends never compare (an offline -bench second
// count and a cluster scatter-gather second count are different phenomena
// even on the same fixture, and a graph traversal is never comparable to
// an IVF scan), so speedup_vs_prev_entry always tracks like against like.
func lastComparable(prior []benchEntry, e benchEntry) *benchEntry {
	for i := len(prior) - 1; i >= 0; i-- {
		p := &prior[i]
		if p.Mode != e.Mode || p.Backend != e.Backend || p.GoMaxProcs != e.GoMaxProcs ||
			p.N != e.N || p.D != e.D || p.Queries != e.Queries || p.DPUs != e.DPUs {
			continue
		}
		switch e.Mode {
		case "headtohead":
			if p.CurveParam == e.CurveParam && p.CurveValue == e.CurveValue && p.SimQPS > 0 {
				return p
			}
			continue
		case "serve":
			if p.Clients == e.Clients && p.TargetQPS == e.TargetQPS &&
				p.MaxWaitMS == e.MaxWaitMS && p.MaxBatch == e.MaxBatch && p.AchievedQPS > 0 {
				return p
			}
		case "cluster":
			if p.Shards == e.Shards && p.Assignment == e.Assignment &&
				p.Selective == e.Selective && p.PipelinedSec > 0 {
				return p
			}
		case "replica":
			if p.Shards == e.Shards && p.Replicas == e.Replicas &&
				p.Assignment == e.Assignment && p.Clients == e.Clients &&
				p.StragglerDelayMS == e.StragglerDelayMS &&
				p.StragglerEvery == e.StragglerEvery && p.HedgedP99MS > 0 {
				return p
			}
		case "mutate":
			if p.AppendFrac == e.AppendFrac && p.OverlayQPS > 0 {
				return p
			}
		case "recovery":
			if p.MutCount == e.MutCount && p.RecoverSec > 0 {
				return p
			}
		default:
			if p.PipelinedSec > 0 {
				return p
			}
		}
	}
	return nil
}
