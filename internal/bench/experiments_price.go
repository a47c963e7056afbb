package bench

import (
	"fmt"
	"math"
	"slices"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/perfmodel"
)

// priceBucket adds up the group scans of one row of the PA table: what the
// simulator charged them, their no-prune price, and what they cost at the
// engine's share table (priced) and at one flat share for every bounded scan,
// perfmodel's prior (flat).
type priceBucket struct {
	scans                       int
	cycles, price, priced, flat float64
}

// scanLog is one engine under the recorder.
type scanLog struct {
	e     *core.Engine
	scans []core.ScanSample
}

// recordScans starts a recorder on every engine.
func recordScans(engines []*core.Engine) []*scanLog {
	logs := make([]*scanLog, len(engines))
	for i, e := range engines {
		logs[i] = &scanLog{e: e}
		e.RecordScans(&logs[i].scans)
	}
	return logs
}

// scanBuckets stops the recorders and sorts what they kept into the bins of
// core's share table (ρ in eighths up to 3, the last taking everything
// beyond) — bounded scans only — and into octiles of CL rank within ps, the
// probe lists of the queries searched.
func scanBuckets(logs []*scanLog, ps core.ProbeSet, m, nprobe int) (byBin, byRank []priceBucket, err error) {
	byBin, byRank = make([]priceBucket, core.ShareBins), make([]priceBucket, 8)
	for _, l := range logs {
		l.e.RecordScans(nil)
		for _, sm := range l.scans {
			rank := slices.Index(ps.DistsOf(int(sm.Query)), sm.Dist)
			if rank < 0 {
				return nil, nil, fmt.Errorf("bench: a scan of query %d at CL distance %d that its probe list does not hold", sm.Query, sm.Dist)
			}
			flat, buckets := 1.0, []*priceBucket{&byRank[rank*8/nprobe]}
			if sm.Bound != math.MaxUint32 {
				flat, buckets = perfmodel.BoundedShare(m), append(buckets, &byBin[core.ShareBin(sm.Dist, sm.Bound)])
			}
			for _, b := range buckets {
				b.scans, b.cycles, b.price = b.scans+1, b.cycles+sm.Cycles, b.price+sm.Price
				b.priced, b.flat = b.priced+sm.Price*l.e.Share(sm.Dist, sm.Bound), b.flat+sm.Price*flat
			}
		}
	}
	return byBin, byRank, nil
}

// worstBin is the actual/priced ratio furthest from 1 among the buckets that
// hold at least a hundredth of the scans.
func worstBin(buckets []priceBucket) (worst float64) {
	total := 0
	for _, b := range buckets {
		total += b.scans
	}
	worst = 1
	for _, b := range buckets {
		if r := b.cycles / b.priced; 100*b.scans >= total && b.scans > 0 && math.Abs(math.Log(r)) > math.Abs(math.Log(worst)) {
			worst = r
		}
	}
	return worst
}

// PriceAccuracy tabulates how well the scheduler's task price (core's share
// table) predicts what the simulator charges, for one engine and for a fleet
// of 4 shards x 2 replicas deployed with the first half of the scale's queries
// as their profile and searched with the second: per ρ bin — a bounded probe's
// CL distance over its query's bound — the share of their no-prune price the
// bounded scans cost against the share the table charged, and per octile of
// CL rank, every scan counted, actual over priced cycles; beside each, actual
// over what one flat share for every bounded scan would have priced.
func PriceAccuracy(r *Runner) (*Table, error) {
	t := &Table{
		ID: "PA", Title: "Price accuracy: the scheduler's task price against simulated cycles, by ρ and by CL rank",
		Columns: []string{"deployment", "by", "bucket", "scans", "measured share", "priced share", "actual/priced", "actual/flat"},
	}
	s := r.Dataset("SIFT")
	m := subvectorsFor(s.Base.D)
	ix, err := r.Index("SIFT", r.Scale.NLists[len(r.Scale.NLists)-1], m, r.Scale.CB)
	if err != nil {
		return nil, err
	}
	half := s.Queries.N / 2
	profile := dataset.U8Set{N: half, D: s.Queries.D, Data: s.Queries.Data[:half*s.Queries.D]}
	measured := dataset.U8Set{N: s.Queries.N - half, D: s.Queries.D, Data: s.Queries.Data[half*s.Queries.D:]}
	opts := core.DefaultOptions()
	opts.NumDPUs, opts.K, opts.NProbe = r.Scale.NumDPUs, r.Scale.K, r.Scale.NProbes[len(r.Scale.NProbes)-1]

	single, err := core.New(ix, profile, opts)
	if err != nil {
		return nil, err
	}
	fleet, err := cluster.New(ix, profile, cluster.Options{Shards: 4, Replicas: 2, Assignment: cluster.AssignKMeans, Engine: opts})
	if err != nil {
		return nil, err
	}
	var fleetEngines []*core.Engine
	for _, sh := range fleet.Shards() {
		fleetEngines = append(fleetEngines, sh.Engines...)
	}
	for _, d := range []struct {
		name    string
		search  func(dataset.U8Set) (*core.Result, error)
		engines []*core.Engine
	}{
		{"engine", single.SearchBatch, []*core.Engine{single}},
		{"fleet-4x2", fleet.SearchBatch, fleetEngines},
	} {
		logs := recordScans(d.engines)
		res, err := d.search(measured)
		if err != nil {
			return nil, err
		}
		byBin, byRank, err := scanBuckets(logs, single.Locator().Probes(measured), m, opts.NProbe) // every shard's locator finds these probes
		if err != nil {
			return nil, err
		}
		for _, by := range []struct {
			name    string
			buckets []priceBucket
		}{{"rho", byBin}, {"rank", byRank}} {
			for i, b := range by.buckets {
				if b.scans == 0 {
					continue
				}
				bucket := fmt.Sprintf("octile %d", i+1)
				if by.name == "rho" {
					bucket = fmt.Sprintf("%.3f+", float64(i)/core.ShareBinsPerUnit)
				}
				t.AddRow(d.name, by.name, bucket, fmt.Sprint(b.scans), f3(b.cycles/b.price), f3(b.priced/b.price), f3(b.cycles/b.priced), f3(b.cycles/b.flat))
			}
		}
		mt := &res.Metrics
		t.Notes = append(t.Notes, fmt.Sprintf("%s: imbalance %.3f, sim QPS %.0f, price/simulated cycles %.3f; actual/priced furthest from 1 in a rho bin holding a hundredth of the bounded scans: %.3f",
			d.name, mt.AvgImbalance(), mt.QPS, mt.PriceRatio(), worstBin(byBin)))
	}
	t.Notes = append(t.Notes, "a scan is one (query, cluster) group on one DPU; rho rows hold the bounded ones, rank rows all of them (a query's leading probes scan without a bound, at their whole no-prune price); "+
		"shares are of the no-prune price; every shard measures its own table, on its own points, and prices with it; actual/flat prices every bounded scan at perfmodel.BoundedShare, what an engine deployed without a profile charges "+
		"(what the measured table buys in imbalance on one layout: core's TestMeasuredShareLevelsLaunches)")
	return t, nil
}
