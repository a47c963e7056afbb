package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/pq"
)

// runClusterBench is the -shards mode: the scatter-gather fleet against the
// single-engine reference on the same index. It builds the SIFT-shaped
// fixture of -bench once, deploys it both unsharded (the reference) and
// across `shards` engines (each with `dpus` DPUs), verifies the merged
// top-k is identical to the reference, and appends one mode:"cluster"
// entry to the trajectory file at outPath.
func runClusterBench(n, queries, dpus int, seed int64, shards int, assignment string,
	runs int, note, outPath string) error {
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
	if assignment == "" {
		assignment = string(cluster.AssignHash)
	}

	fmt.Printf("drim-bench cluster benchmark: N=%d queries=%d shards=%d (x%d DPUs) assign=%s runs=%d\n",
		n, queries, shards, dpus, assignment, runs)
	s := dataset.SIFT(n, queries, seed)
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

	// Both deployments get the query workload as the offline heat profile —
	// the single engine's layout optimizer and the cluster's heat-weighted
	// kmeans shard assignment use it the same way the paper's offline
	// profiling stage does.
	opts := core.DefaultOptions()
	opts.NumDPUs = dpus
	single, err := core.New(ix, s.Queries, opts)
	if err != nil {
		return err
	}
	cl, err := cluster.New(ix, s.Queries, cluster.Options{
		Shards: shards, Assignment: cluster.Assignment(assignment), Engine: opts,
	})
	if err != nil {
		return err
	}

	singleSec := -1.0
	var ref *core.Result
	for r := 0; r < runs; r++ {
		t := time.Now()
		res, err := single.SearchBatch(s.Queries)
		if err != nil {
			return err
		}
		if sec := time.Since(t).Seconds(); singleSec < 0 || sec < singleSec {
			singleSec = sec
		}
		ref = res
	}
	fmt.Printf("  single engine (unsharded):   %.3fs  (%.0f queries/s)\n",
		singleSec, float64(queries)/singleSec)

	clusterSec := -1.0
	clusterTotal := 0.0
	var merged *core.Result
	for r := 0; r < runs; r++ {
		t := time.Now()
		res, err := cl.SearchBatch(s.Queries)
		if err != nil {
			return err
		}
		sec := time.Since(t).Seconds()
		clusterTotal += sec
		if clusterSec < 0 || sec < clusterSec {
			clusterSec = sec
		}
		merged = res
	}
	// The equivalence contract, checked on the real fixture: merged
	// scatter-gather IDs must be identical to the unsharded reference.
	for qi := range ref.IDs {
		if len(ref.IDs[qi]) != len(merged.IDs[qi]) {
			return fmt.Errorf("cluster result diverges from single engine at query %d", qi)
		}
		for j := range ref.IDs[qi] {
			if ref.IDs[qi][j] != merged.IDs[qi][j] {
				return fmt.Errorf("cluster result diverges from single engine at query %d", qi)
			}
		}
	}
	fmt.Printf("  cluster (%d shards, merged): %.3fs  (%.0f queries/s)  results identical ✓\n",
		shards, clusterSec, float64(queries)/clusterSec)
	fmt.Printf("  simulated fleet QPS %.0f (max-over-shards latency), single-system %.0f\n",
		merged.Metrics.QPS, ref.Metrics.QPS)

	// Routing stats: the cluster accumulates them across all runs, so the
	// mean fan-out and the front-door CL share of wall time are averages
	// over every measured batch.
	st := cl.Stats()
	frontCLShare := 0.0
	if clusterTotal > 0 {
		frontCLShare = st.Route.FrontCLWallSeconds / clusterTotal
	}
	fmt.Printf("  routed scatter: mean fan-out %.2f / max %d of %d shards, front-door CL %.1f%% of wall\n",
		st.Route.MeanFanout(), st.Route.MaxFanout, shards, 100*frontCLShare)

	var trajectory []benchEntry
	raw, err := os.ReadFile(outPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &trajectory); err != nil {
			return fmt.Errorf("existing %s is not a trajectory file: %w", outPath, err)
		}
	case !os.IsNotExist(err):
		return fmt.Errorf("reading %s: %w", outPath, err)
	}

	entry := benchEntry{
		Note:       note,
		Mode:       "cluster",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		N:          n, D: s.Base.D, Queries: queries, Runs: runs,
		DPUs:            dpus,
		Shards:          shards,
		Assignment:      assignment,
		SerialSec:       singleSec,
		PipelinedSec:    clusterSec,
		SpeedupVsSerial: singleSec / clusterSec,
		WallQPS:         float64(queries) / clusterSec,
		SimQPS:          merged.Metrics.QPS,
		Selective:       true,
		MeanFanout:      st.Route.MeanFanout(),
		MaxFanout:       st.Route.MaxFanout,
		FrontCLShare:    frontCLShare,
	}
	if prev := lastComparable(trajectory, entry); prev != nil && clusterSec > 0 {
		entry.SpeedupVsPrev = prev.PipelinedSec / clusterSec
		fmt.Printf("  vs previous cluster entry (%s): %.2fx\n", prev.Timestamp, entry.SpeedupVsPrev)
	}
	trajectory = append(trajectory, entry)

	raw, err = json.MarshalIndent(trajectory, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  recorded cluster entry in %s (total %d)\n", outPath, len(trajectory))
	return nil
}
