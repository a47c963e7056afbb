package perfmodel_test

import (
	"math"
	"testing"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/perfmodel"
	"drimann/internal/testutil"
	"drimann/internal/upmem"
)

// TestLCClosedFormMatchesSimulator cross-checks Equation 6 (over the
// referenced LUT entries) against the instruction cycles the simulator
// charges to LC on a small fixture.
//
// The two are put on the same footing: the multiply kernel, whose simulated
// element costs 3 + MulCycles cycles, against Dist with mulCost = MulCycles+1
// (Dist counts 2 + mulCost per element); whole clusters per DPU (no split,
// no duplicates), so one LC build serves one probed cluster as the model
// assumes; C taken as the mean points scanned per probe, since queries
// favour big clusters; and K above anything a query scans, so that no bound
// ever forms and the staged scan prunes nothing — the kernel the closed form
// as written describes (TestStagedClosedFormMatchesSimulator covers bounds).
// Two statements follow, with their tolerances:
//
//   - Per built entry the two agree closely. Scaling the closed form from its
//     own occupancy to the occupancy the simulator measured leaves only what
//     the model omits — the per-point mark pass, the bitmap clear and scan,
//     an extract and a run test per entry: simulated cycles are within
//     [1.00, 1.08] of it.
//   - End to end the simulator lands below the model, because the model
//     sizes the LUT for uniform codes at the mean cluster size while real PQ
//     codes are skewed and cluster sizes vary, both of which lower the
//     distinct-entry count (occupancy is concave): about 0.77 on this
//     fixture; the stated tolerance is [0.65, 1.05].
func TestLCClosedFormMatchesSimulator(t *testing.T) {
	const nlist, nprobe = 96, 8
	ix, s := testutil.Fixture(t, testutil.FixtureSpec{
		N: 6000, D: 64, Queries: 64, NumClusters: 32, Seed: 17, Noise: 12,
		NList: nlist, M: 8, CB: 256, BuildSeed: 5,
	})
	o := core.DefaultOptions()
	o.NumDPUs = 16
	o.NProbe = nprobe
	o.UseSQT = false
	o.EnableSplit, o.EnableDup = false, false
	o.K = s.Base.N
	e, err := core.New(ix, dataset.U8Set{}, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	m := &res.Metrics
	if m.LUTReuses != 0 || m.LUTBuilds != uint64(s.Queries.N*nprobe) {
		t.Fatalf("fixture must run one LC build per probe: %d builds, %d reuses", m.LUTBuilds, m.LUTReuses)
	}
	if m.PointsPruned != 0 || m.CodesGathered != m.PointsScanned*uint64(ix.M) {
		t.Fatalf("K = corpus size must prune nothing: %d of %d points pruned, %d codes gathered", m.PointsPruned, m.PointsScanned, m.CodesGathered)
	}

	p := perfmodel.Params{
		N: int64(s.Base.N), Q: s.Queries.N, D: ix.Dim,
		K: o.K, P: nprobe, C: int(math.Round(float64(m.PointsScanned) / float64(m.LUTBuilds))),
		M: ix.M, CB: ix.CB,
	}
	costs, err := perfmodel.Costs(p, upmem.MulCycles+1)
	if err != nil {
		t.Fatal(err)
	}
	model := costs[upmem.PhaseLC].Compute
	sim := float64(m.PhaseComputeCycles[upmem.PhaseLC])
	ratio := sim / model
	t.Logf("C=%d: closed form %.0f ops, simulator %.0f cycles, ratio %.3f; LUT occupancy model %.3f, simulated %.3f",
		p.C, model, sim, ratio, perfmodel.LUTOccupancy(p.CB, p.C)/float64(p.CB), m.LUTOccupancy(ix.M, ix.CB))
	if ratio < 0.65 || ratio > 1.05 {
		t.Fatalf("simulated LC compute is %.3f of the closed form, outside [0.65, 1.05]", ratio)
	}
	simOcc := m.LUTOccupancy(ix.M, ix.CB) * float64(p.CB)
	if perEntry := sim / (model * simOcc / perfmodel.LUTOccupancy(p.CB, p.C)); perEntry < 1.00 || perEntry > 1.08 {
		t.Fatalf("at the simulated occupancy the simulator charges %.3f of the closed form, outside [1.00, 1.08]", perEntry)
	}

	// The dense form (CB in place of the occupancy) is what the simulator no
	// longer charges: it must overshoot by about 1/occupancy.
	dense := model * float64(p.CB) / perfmodel.LUTOccupancy(p.CB, p.C)
	if sim > 0.6*dense {
		t.Fatalf("simulator charges %.0f cycles, not clearly below the dense form's %.0f", sim, dense)
	}
}

// TestStagedClosedFormMatchesSimulator cross-checks Equations 6-9 with a
// survival profile against the engine's bound-forwarded staged scan at K = 10
// on the same fixture. The profile is fitted to the one thing the corpus
// decides — the share of codes the run gathered (FitSurvival) — so DC's count
// agrees by construction; what is checked is what the model derives from the
// profile:
//
//   - LUT entries built: the model sizes each stage's LUT for the mean
//     survival over all scans with uniform codes, the simulator counts the
//     distinct codes of the points that really survived. Both biases point
//     the same way (occupancy is concave; real codes are skewed), so the
//     simulator builds less: 0.72 of the model on this fixture, tolerance
//     [0.55, 1.05].
//   - LC instruction cycles, which add the mark pass and per-stage
//     bookkeeping to the build: 0.77, tolerance [0.65, 1.10].
//
// And the profile the model assumes before anything is measured
// (EngineSurvival, the benchmark fixture's curve) is a fair prior here: its
// gathered share is within 0.10 of the measured one (0.58 against 0.60). That
// is a statement about this corpus; the regime sweep in internal/bench shows
// how far bounds can move it.
func TestStagedClosedFormMatchesSimulator(t *testing.T) {
	const nlist, nprobe = 96, 8
	ix, s := testutil.Fixture(t, testutil.FixtureSpec{
		N: 6000, D: 64, Queries: 64, NumClusters: 32, Seed: 17, Noise: 12,
		NList: nlist, M: 8, CB: 256, BuildSeed: 5,
	})
	o := core.DefaultOptions()
	o.NumDPUs = 16
	o.NProbe = nprobe
	o.UseSQT = false
	o.EnableSplit, o.EnableDup = false, false
	e, err := core.New(ix, dataset.U8Set{}, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SearchBatch(s.Queries)
	if err != nil {
		t.Fatal(err)
	}
	m := &res.Metrics
	if m.PointsPruned == 0 {
		t.Fatal("fixture must prune")
	}
	gathered := float64(m.CodesGathered) / float64(m.PointsScanned*uint64(ix.M))

	p := perfmodel.Params{
		N: int64(s.Base.N), Q: s.Queries.N, D: ix.Dim,
		K: o.K, P: nprobe, C: int(math.Round(float64(m.PointsScanned) / float64(m.LUTBuilds))),
		M: ix.M, CB: ix.CB,
	}
	prior := perfmodel.EngineSurvival(p)
	p.Survival = perfmodel.FitSurvival(p, gathered)
	stages := len(p.Survival) - 1
	var fitted, assumed, entries float64
	for st, alive := range p.Survival[:stages] {
		fitted += alive / float64(stages)
		assumed += prior[st] / float64(stages)
		entries += perfmodel.LUTOccupancy(p.CB, int(math.Ceil(alive*float64(p.C)))) * float64(p.M) / float64(stages)
	}
	if math.Abs(fitted-gathered) > 1e-6 {
		t.Fatalf("fitted profile gathers %.6f of the codes, the run %.6f", fitted, gathered)
	}
	if math.Abs(assumed-gathered) > 0.10 {
		t.Fatalf("the a-priori profile gathers %.3f of the codes, the run %.3f: more than 0.10 apart", assumed, gathered)
	}
	costs, err := perfmodel.Costs(p, upmem.MulCycles+1)
	if err != nil {
		t.Fatal(err)
	}
	entryRatio := float64(m.LUTEntries) / (entries * float64(m.LUTBuilds))
	cycleRatio := float64(m.PhaseComputeCycles[upmem.PhaseLC]) / costs[upmem.PhaseLC].Compute
	t.Logf("C=%d: gathered %.3f (a priori %.3f), survival %.3v; entries simulated/model %.3f, LC cycles simulated/model %.3f",
		p.C, gathered, assumed, p.Survival, entryRatio, cycleRatio)
	if entryRatio < 0.55 || entryRatio > 1.05 {
		t.Fatalf("simulator builds %.3f of the model's LUT entries, outside [0.55, 1.05]", entryRatio)
	}
	if cycleRatio < 0.65 || cycleRatio > 1.10 {
		t.Fatalf("simulated LC compute is %.3f of the closed form, outside [0.65, 1.10]", cycleRatio)
	}
	if dc := costs[upmem.PhaseDC].Compute; math.Abs(dc-float64(p.Q*p.P*p.C)*(gathered*float64(p.M)-1)) > 1e-6*dc {
		t.Fatalf("DC closed form %.0f does not count the gathered codes", dc)
	}
}
