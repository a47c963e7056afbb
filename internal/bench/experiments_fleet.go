package bench

import (
	"fmt"

	"drimann/internal/cluster"
	"drimann/internal/core"
)

// FleetScaling tabulates the fleet-wide staged scan against fleet size: one
// index behind S shards of the scale's DPU count each, times R replicas. The
// front door cuts the waves and every shard prunes against one merged bound,
// so the cycles a query costs should not grow with S; every replica scans, so
// throughput should grow with R. The layout is the default one — a shard's
// optimizer prices a split at the LUT entries every slice builds again, so a
// smaller share of the lists no longer makes it split finer — and nothing is
// postponed: what a postponed first wave does to a bound is the engine's
// subject and would swamp this one.
func FleetScaling(r *Runner) (*Table, error) {
	t := &Table{
		ID: "FS", Title: "Fleet scaling: sim QPS and scan work vs shards x replicas",
		Columns: []string{"shards", "replicas", "sim QPS", "cycles/query", "vs S=1", "fan-out", "wave-1 fan-out", "pruned", "launches"},
	}
	s := r.Dataset("SIFT")
	ix, err := r.Index("SIFT", r.Scale.NLists[len(r.Scale.NLists)-1], subvectorsFor(s.Base.D), r.Scale.CB)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.NumDPUs, opts.K, opts.NProbe = r.Scale.NumDPUs, r.Scale.K, r.Scale.NProbes[len(r.Scale.NProbes)-1]
	opts.Th3 = 0
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		for _, replicas := range []int{1, 2} {
			cl, err := cluster.New(ix, s.Queries, cluster.Options{
				Shards: shards, Replicas: replicas, Assignment: cluster.AssignKMeans, Engine: opts,
			})
			if err != nil {
				return nil, err
			}
			res, err := cl.SearchBatch(s.Queries)
			if err != nil {
				return nil, err
			}
			var cycles uint64
			for _, c := range res.Metrics.PhaseComputeCycles {
				cycles += c
			}
			perQuery := float64(cycles) / float64(s.Queries.N)
			if base == 0 {
				base = perQuery
			}
			rt := cl.Stats().Route
			t.AddRow(fmt.Sprint(shards), fmt.Sprint(replicas), f0(res.Metrics.QPS), f0(perQuery), f3(perQuery/base),
				f2(rt.MeanFanout()), f2(float64(rt.LeadFanoutSum)/float64(rt.RoutedQueries)), f3(res.Metrics.PruneRate()),
				fmt.Sprint(res.Metrics.Launches))
		}
	}
	t.Notes = append(t.Notes, "the default layout: every shard's optimizer keeps its lists whole or splits them by its own priced placement, so cycles a query stay within 3% of S=1 (where a shard splits: every slice builds its own LUT entries) and QPS grows with S and with R")
	t.Notes = append(t.Notes, "launches sum over every engine of the fleet: batches + 1 an engine that every round reaches, since a batch's second wave shares its launch with the next batch's first. "+
		"The small scale cannot see it — its 96 queries are one scheduling batch, two launches an engine as before the waves rolled — and nothing is postponed here, so the postponement rule shows nowhere; "+
		"the default scale's 512 queries are two batches: three launches an engine, not four")
	return t, nil
}
