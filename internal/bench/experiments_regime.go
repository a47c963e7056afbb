package bench

import (
	"fmt"
	"math/bits"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/pq"
	"drimann/internal/upmem"
)

// regimeSizes are the points-per-list values the regime map visits.
var regimeSizes = []int{32, 64, 128, 256, 512, 1024, 2048, 4096}

// regimePoint is one row of the regime map: the engine run twice over one
// index, with K = 10 (bounds form and prune) and with K = the corpus size
// (no bound ever forms: the unpruned kernel, stage overhead included).
type regimePoint struct {
	PerList, NList, NProbe int
	Bounded, Unbounded     core.Metrics
	// WorstBin is the bounded run's actual/priced cycles in the ρ bin where it
	// is furthest from 1, of those holding a hundredth of the bounded scans.
	WorstBin float64
}

// scanCycles is the instruction cycles of the scan proper: RC, LC and DC. TS
// is left out because the unbounded reference accepts every point into its
// keep-everything heaps, which the bounded run has no counterpart of.
func scanCycles(m *core.Metrics) float64 {
	pc := m.PhaseComputeCycles
	return float64(pc[upmem.PhaseRC] + pc[upmem.PhaseLC] + pc[upmem.PhaseDC])
}

// buildShare is the part of scanCycles spent building LUT entries — LC less
// its mark pass, which like DC's gathers is work per code read (7 cycles a
// code against 3, so LC as a phase never falls below DC however long the
// lists; what changes hands is this share).
func buildShare(m *core.Metrics) float64 {
	const markCyclesPerCode = 7
	return (float64(m.PhaseComputeCycles[upmem.PhaseLC]) - markCyclesPerCode*float64(m.CodesGathered)) / scanCycles(m)
}

// regimeSweep runs the regime map: one corpus of fixed size, indexed at
// every points-per-list value of regimeSizes with nprobe co-scaled so that
// a query always scans a quarter of the corpus. The corpus is the power of
// two at or above the scale's N; M = 8 over 32 dimensions with CB = 256 puts
// the dense-LUT limit (CB x dsub x 13 build cycles against 10 per point and
// subspace) near 1300 points a list, inside the sweep. Every index deploys
// with a held-out profile, so each measures its own share table.
func (r *Runner) regimeSweep() ([]regimePoint, error) {
	const dim, m, cb, fraction, measuredQ, profileQ = 32, 8, 256, 4, 32, 128
	n := 2 << bits.Len(uint(r.Scale.N-1))
	s := dataset.Generate(dataset.SynthConfig{
		Name: "regime", N: n, D: dim, NumQueries: measuredQ + profileQ,
		NumClusters: n / regimeSizes[len(regimeSizes)-1], Noise: 9, Seed: r.Scale.Seed,
	})
	measured := dataset.U8Set{N: measuredQ, D: dim, Data: s.Queries.Data[:measuredQ*dim]}
	profile := dataset.U8Set{N: profileQ, D: dim, Data: s.Queries.Data[measuredQ*dim:]}
	var out []regimePoint
	for _, perList := range regimeSizes {
		pt := regimePoint{PerList: perList, NList: n / perList, NProbe: n / perList / fraction}
		ix, err := ivf.Build(s.Base, ivf.BuildConfig{
			NList: pt.NList, PQ: pq.Config{M: m, CB: cb, Iters: 4},
			KMeansIters: 4, TrainSample: 4096, Seed: r.Scale.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: regime index at %d points a list: %w", perList, err)
		}
		for _, run := range []struct {
			k   int
			dst *core.Metrics
		}{{r.Scale.K, &pt.Bounded}, {n, &pt.Unbounded}} {
			opts := core.DefaultOptions()
			opts.NumDPUs = 16
			opts.K = run.k
			opts.NProbe = pt.NProbe
			opts.EnableSplit, opts.EnableDup = false, false
			eng, err := core.New(ix, profile, opts)
			if err != nil {
				return nil, err
			}
			logs := recordScans([]*core.Engine{eng})
			res, err := eng.SearchBatch(measured)
			if err != nil {
				return nil, err
			}
			*run.dst = res.Metrics
			byBin, _, err := scanBuckets(logs, eng.Locator().Probes(measured), m, opts.NProbe)
			if err != nil {
				return nil, err
			}
			if run.k == r.Scale.K {
				pt.WorstBin = worstBin(byBin)
			}
		}
		if pt.Unbounded.PointsPruned != 0 || pt.Unbounded.PointsScanned != pt.Bounded.PointsScanned {
			return nil, fmt.Errorf("bench: regime reference at %d points a list pruned %d points and scanned %d against %d",
				perList, pt.Unbounded.PointsPruned, pt.Unbounded.PointsScanned, pt.Bounded.PointsScanned)
		}
		out = append(out, pt)
	}
	return out, nil
}

// RegimeMap tabulates the regime sweep (ROADMAP: which side of the LC/DC
// crossover a kernel's gain lives on): per points-per-list value, how the
// scan's cycles divide between building LUT entries and per-code work
// without and with bounds, and what the bounds save.
func RegimeMap(r *Runner) (*Table, error) {
	t := &Table{
		ID: "RM", Title: "Regime map: LUT build vs per-code work, and the bound's saving, vs points per list",
		Columns: []string{"points/list", "nlist", "nprobe", "LC/DC cycles", "build share", "build share bounded",
			"bounded/unbounded cycles", "codes gathered", "entries built", "pruned", "price/cycles", "worst bin"},
	}
	pts, err := r.regimeSweep()
	if err != nil {
		return nil, err
	}
	var cross [2]int
	for _, pt := range pts {
		free, bnd := &pt.Unbounded, &pt.Bounded
		for i, m := range []*core.Metrics{free, bnd} {
			if cross[i] == 0 && buildShare(m) < 0.5 {
				cross[i] = pt.PerList
			}
		}
		pc := free.PhaseComputeCycles
		t.AddRow(fmt.Sprint(pt.PerList), fmt.Sprint(pt.NList), fmt.Sprint(pt.NProbe),
			f2(float64(pc[upmem.PhaseLC])/float64(pc[upmem.PhaseDC])), f3(buildShare(free)), f3(buildShare(bnd)),
			f3(scanCycles(bnd)/scanCycles(free)),
			f3(float64(bnd.CodesGathered)/float64(free.CodesGathered)),
			f3(float64(bnd.LUTEntries)/float64(free.LUTEntries)),
			f3(bnd.PruneRate()), f3(bnd.PriceRatio()), f3(pt.WorstBin))
	}
	where := func(perList int) string {
		if perList == 0 {
			return "beyond the sweep"
		}
		return fmt.Sprintf("at %d points a list", perList)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("crossover — the LUT build falls below half of the scan's cycles — %s without bounds, %s with them", where(cross[0]), where(cross[1])),
		"unbounded = K set to the corpus size, so no bound ever forms: the same kernel, nothing pruned. Cycles are RC+LC+DC instruction cycles; build share is LC less its mark pass over them; codes and entries are relative to the unbounded run's",
		"price/cycles is the scheduler's summed task price over the bounded run's simulated instruction cycles, under the share table the index measured on its own held-out profile; worst bin is actual/priced in the ρ bin furthest from 1 among those holding a hundredth of the bounded scans",
		"a query scans a quarter of the corpus at every row (nlist and nprobe co-scaled) and lists are placed whole (no split, no duplicates), so the rows differ only in how the scanned points are cut into lists")
	return t, nil
}
