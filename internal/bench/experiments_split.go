package bench

import (
	"fmt"
	"slices"
	"time"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/pq"
)

// sizeTimesProbes is the per-list weight the shard split levelled before it
// measured one: list size x (1 + profile probes).
func sizeTimesProbes(ix *ivf.Index, profile dataset.U8Set, nprobe int) []float64 {
	w := make([]float64, ix.NList)
	for c := range w {
		w[c] = float64(ix.ListLen(c))
	}
	for qi := 0; qi < profile.N; qi++ {
		for _, p := range ix.LocateInt(profile.Vec(qi), nprobe) {
			w[p.ID] += float64(ix.ListLen(int(p.ID)))
		}
	}
	return w
}

// laneSpread searches the queries on the fleet under a scan recorder per
// engine and returns the result with max ÷ mean, over shards, of the simulated
// cycles the shard's engines spent scanning.
func laneSpread(cl *cluster.Cluster, queries dataset.U8Set) (*core.Result, float64, error) {
	var logs [][]*scanLog
	for _, sh := range cl.Shards() {
		logs = append(logs, recordScans(sh.Engines))
	}
	res, err := cl.SearchBatch(queries)
	var worst, sum float64
	for _, shard := range logs {
		var cycles float64
		for _, l := range shard {
			l.e.RecordScans(nil)
			for _, sm := range l.scans {
				cycles += sm.Cycles
			}
		}
		worst, sum = max(worst, cycles), sum+cycles
	}
	return res, worst * float64(len(logs)) / max(sum, 1), err
}

// ShardSplit compares the two weights the AssignKMeans shard split can level
// — list size x (1 + profile probes), and the simulated cycles a throwaway
// engine spent on each list while answering the profile (cluster.New's) — on
// four corpora, a quarter of the size under -small: the benchmark's
// fleet-mutate deployment (its corpus with the evenly spread insert reserve
// taken out, its index and profile: 62 points a list, 4 shards x 2 replicas of
// 64 DPUs, nprobe 32) and three shaped like examples/loadbalance (Zipf 1.7
// cluster sizes, hot-spot queries, 3 shards of 32 DPUs, nprobe 16). Each is
// deployed with the first half of its queries as the profile and searched
// offline with the second; the lanes' spread is also read on the profile
// itself, which separates a weight that does not track a lane's cycles from a
// profile that does not predict the next queries.
func ShardSplit(r *Runner) (*Table, error) {
	t := &Table{
		ID: "SS", Title: "Shard split: levelling size x (1 + probes) against measured cycles a list",
		Columns: []string{"corpus", "split weight", "sim QPS", "lanes max/mean", "on the profile", "cycles/query", "mean fan-out", "points max/mean", "cluster.New s"},
	}
	div := 1
	if r.Scale.N < DefaultScale().N {
		div = 4
	}
	zipf := dataset.SynthConfig{Name: "skewed", N: 50000 / div, D: 128, NumQueries: 768, NumClusters: 300 / div,
		ZipfS: 1.7, QuerySkew: 0.92, Hotspots: 5, Noise: 9}
	for _, c := range []struct {
		name                                           string
		synth                                          dataset.SynthConfig
		seed                                           int64
		reserve, nlist, shards, replicas, dpus, nprobe int
	}{
		{"benchmark fleet", dataset.SynthConfig{Name: "SIFT", N: 72960 / div, D: 128, NumQueries: 4000 / div}, 1, 40960 / div, 512 / div, 4, 2, 64, 32},
		{"zipf-1.7 seed 3", zipf, 3, 0, 256 / div, 3, 1, 32, 16},
		{"zipf-1.7 seed 4", zipf, 4, 0, 256 / div, 3, 1, 32, 16},
		{"zipf-1.7 seed 5", zipf, 5, 0, 256 / div, 3, 1, 32, 16},
	} {
		c.synth.Seed = c.seed
		s := dataset.Generate(c.synth)
		base := dataset.U8Set{D: s.Base.D}
		for p, total := 0, s.Base.N; p < total; p++ {
			if (p+1)*c.reserve/total == p*c.reserve/total {
				base.Data, base.N = append(base.Data, s.Base.Vec(p)...), base.N+1
			}
		}
		ix, err := ivf.Build(base, ivf.BuildConfig{NList: c.nlist, PQ: pq.Config{M: 16, CB: 256}, KMeansIters: 4, TrainSample: 8000, Seed: c.seed})
		if err != nil {
			return nil, fmt.Errorf("bench: SS %s: %w", c.name, err)
		}
		half := s.Queries.N / 2
		profile := dataset.U8Set{N: half, D: s.Queries.D, Data: s.Queries.Data[:half*s.Queries.D]}
		measured := dataset.U8Set{N: s.Queries.N - half, D: s.Queries.D, Data: s.Queries.Data[half*s.Queries.D:]}
		copt := cluster.Options{Shards: c.shards, Replicas: c.replicas, Assignment: cluster.AssignKMeans, Engine: core.DefaultOptions()}
		copt.Engine.NumDPUs, copt.Engine.NProbe, copt.Engine.K = c.dpus, c.nprobe, 10
		var want *core.Result
		for _, w := range []struct {
			name   string
			weight []float64
		}{{"size x (1 + probes)", sizeTimesProbes(ix, profile, c.nprobe)}, {"measured cycles", nil}} {
			start := time.Now()
			cl, err := cluster.NewWeighted(ix, profile, copt, w.weight)
			if err != nil {
				return nil, fmt.Errorf("bench: SS %s: %w", c.name, err)
			}
			newSec := time.Since(start).Seconds()
			res, spread, err := laneSpread(cl, measured)
			if err != nil {
				return nil, err
			}
			if want == nil {
				want = res
			}
			for qi := range res.IDs {
				if !slices.Equal(res.IDs[qi], want.IDs[qi]) {
					return nil, fmt.Errorf("bench: SS %s: query %d answered differently under the %s split", c.name, qi, w.name)
				}
			}
			var cycles uint64
			for _, pc := range res.Metrics.PhaseComputeCycles {
				cycles += pc
			}
			route := cl.Stats().Route
			var most, points int
			for _, sh := range cl.Shards() {
				most, points = max(most, sh.Points), points+sh.Points
			}
			_, inSample, err := laneSpread(cl, profile)
			if err != nil {
				return nil, err
			}
			t.AddRow(c.name, w.name, f0(res.Metrics.QPS), f3(spread), f3(inSample), f0(float64(cycles)/float64(measured.N)),
				f2(route.MeanFanout()), f3(float64(most*c.shards)/float64(points)), f2(newSec))
		}
	}
	t.Notes = append(t.Notes,
		"a lane is a shard: the simulated cycles of every group scan on its engines, replicas summed; the fleet finishes a round with its slowest lane, so sim QPS follows max/mean unless the split also moved fan-out or cycles a query",
		"on the profile: the same spread with the profile searched again — near the split's cap (1.0625) when the weight tracks a lane's cycles; what the held-out column adds is how well half the queries predict the other half",
		"points max/mean: the fullest shard's points over the mean. Neither weight levels memory (the hot region's shard holds few points, the cold ones many); the split only keeps a shard within what its engine's MRAM holds",
		"both splits use the same cap (1/16 over the mean weight), seeding and Lloyd iterations; cluster.New s under the measured weight includes deploying the measuring engine and answering the profile on it")
	return t, nil
}
