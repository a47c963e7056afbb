package layout

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func baseConfig() Config {
	return Config{
		NumDPUs:        8,
		BytesPerPoint:  20,
		MRAMDataBudget: 1 << 20,
		CopyFootprint:  64 << 10,
		WRAMMetaBudget: 16 << 10,
		EnableSplit:    true,
		EnableDup:      true,
		EnableBalance:  true,
	}
}

// zipfSizes makes skewed cluster sizes and frequencies.
func zipfSizes(rng *rand.Rand, n, scale int) ([]int, []float64) {
	sizes := make([]int, n)
	freq := make([]float64, n)
	for i := range sizes {
		sizes[i] = scale/(i+1) + 1
		freq[i] = float64(scale) / float64(i+1) * (0.5 + rng.Float64())
	}
	return sizes, freq
}

func TestOptimizeValidatesInput(t *testing.T) {
	cfg := baseConfig()
	if _, err := Optimize(nil, nil, cfg); err == nil {
		t.Fatal("no clusters must fail")
	}
	if _, err := Optimize([]int{10}, []float64{1, 2}, cfg); err == nil {
		t.Fatal("freq length mismatch must fail")
	}
	bad := cfg
	bad.NumDPUs = 0
	if _, err := Optimize([]int{10}, []float64{1}, bad); err == nil {
		t.Fatal("NumDPUs=0 must fail")
	}
}

func TestPartitionCoversExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes, freq := zipfSizes(rng, 40, 5000)
	pl, err := Optimize(sizes, freq, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(sizes); err != nil {
		t.Fatal(err)
	}
	// Large clusters must be split: every slice obeys th1.
	for _, s := range pl.Slices {
		if s.Count > pl.Th1 {
			t.Fatalf("slice %d has %d points > th1=%d", s.ID, s.Count, pl.Th1)
		}
	}
}

func TestSplitDisabledKeepsClustersWhole(t *testing.T) {
	cfg := baseConfig()
	cfg.EnableSplit = false
	sizes := []int{100, 2000, 50}
	freq := []float64{1, 10, 1}
	pl, err := Optimize(sizes, freq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, ids := range pl.ByCluster {
		if len(ids) != 1 {
			t.Fatalf("cluster %d split into %d slices with splitting disabled", c, len(ids))
		}
	}
	if err := pl.Validate(sizes); err != nil {
		t.Fatal(err)
	}
}

func TestForcedSplitThreshold(t *testing.T) {
	cfg := baseConfig()
	cfg.SplitThreshold = 300
	sizes := []int{1000, 100}
	freq := []float64{5, 1}
	pl, err := Optimize(sizes, freq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Th1 != 300 {
		t.Fatalf("th1 = %d, want 300", pl.Th1)
	}
	if got := len(pl.ByCluster[0]); got != 4 {
		t.Fatalf("cluster of 1000 with th1=300 should make 4 slices, got %d", got)
	}
	if got := len(pl.ByCluster[1]); got != 1 {
		t.Fatalf("cluster of 100 should stay whole, got %d slices", got)
	}
}

func TestAutoTh1FeasibleUnderMetadataBudget(t *testing.T) {
	cfg := baseConfig()
	cfg.WRAMMetaBudget = 64 * MetaBytesPerSlice // tiny: at most 64 slices
	rng := rand.New(rand.NewSource(2))
	sizes, freq := zipfSizes(rng, 30, 3000)
	pl, err := Optimize(sizes, freq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Slices)*16 > 64*16 {
		t.Fatalf("metadata budget violated: %d slices", len(pl.Slices))
	}
}

func TestDuplicationPrefersHotClusters(t *testing.T) {
	cfg := baseConfig()
	cfg.CopyFootprint = 100 * cfg.BytesPerPoint // room for ~100 points per DPU extra
	sizes := []int{100, 100, 100, 100}
	freq := []float64{100, 1, 1, 1} // cluster 0 is hot
	pl, err := Optimize(sizes, freq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Copies[0] <= pl.Copies[1] {
		t.Fatalf("hot cluster should get more copies: %v", pl.Copies)
	}
	if err := pl.Validate(sizes); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicationDisabled(t *testing.T) {
	cfg := baseConfig()
	cfg.EnableDup = false
	sizes := []int{100, 200}
	freq := []float64{10, 1}
	pl, err := Optimize(sizes, freq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, n := range pl.Copies {
		if n != 1 {
			t.Fatalf("cluster %d has %d copies with duplication disabled", c, n)
		}
	}
}

func TestDuplicationRespectsBudget(t *testing.T) {
	cfg := baseConfig()
	cfg.CopyFootprint = 10 * cfg.BytesPerPoint
	sizes := []int{1000, 1000} // each copy costs 1000 points — over budget
	freq := []float64{100, 100}
	pl, err := Optimize(sizes, freq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range pl.Copies {
		if n != 1 {
			t.Fatalf("budget too small for copies, got %v", pl.Copies)
		}
	}
}

func TestAllocationBalancesHeat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes, freq := zipfSizes(rng, 60, 4000)

	balanced := baseConfig()
	plB, err := Optimize(sizes, freq, balanced)
	if err != nil {
		t.Fatal(err)
	}
	naive := baseConfig()
	naive.EnableSplit = false
	naive.EnableDup = false
	naive.EnableBalance = false
	plN, err := Optimize(sizes, freq, naive)
	if err != nil {
		t.Fatal(err)
	}
	if plB.HeatImbalance() >= plN.HeatImbalance() {
		t.Fatalf("balanced imbalance %v should beat naive %v",
			plB.HeatImbalance(), plN.HeatImbalance())
	}
	if plB.HeatImbalance() > 1.8 {
		t.Fatalf("balanced layout too imbalanced: %v", plB.HeatImbalance())
	}
}

func TestCopiesLandOnDistinctDPUs(t *testing.T) {
	cfg := baseConfig()
	cfg.CopyFootprint = 1 << 20
	sizes := []int{50, 50, 50}
	freq := []float64{100, 1, 1}
	pl, err := Optimize(sizes, freq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pl.Slices {
		seen := map[int]bool{}
		for _, d := range s.DPUs {
			if seen[d] {
				t.Fatalf("slice %d has two copies on DPU %d", s.ID, d)
			}
			seen[d] = true
		}
	}
}

func TestAllocationFailsWhenDataCannotFit(t *testing.T) {
	cfg := baseConfig()
	cfg.MRAMDataBudget = 10 * cfg.BytesPerPoint
	cfg.CopyFootprint = 0
	cfg.EnableDup = false
	cfg.EnableSplit = false
	sizes := []int{1000}
	freq := []float64{1}
	if _, err := Optimize(sizes, freq, cfg); err == nil {
		t.Fatal("expected allocation failure for oversized slice")
	}
}

func TestExchangeImprovesReuseWithoutBreakingBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sizes, freq := zipfSizes(rng, 50, 6000)
	cfg := baseConfig()
	pl, err := Optimize(sizes, freq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(sizes); err != nil {
		t.Fatal(err)
	}
	// Balance must remain reasonable after exchange passes.
	if pl.HeatImbalance() > 2.0 {
		t.Fatalf("exchange wrecked balance: %v", pl.HeatImbalance())
	}
}

func TestPlacementInvariantsProperty(t *testing.T) {
	f := func(rawSizes []uint16, seed int64) bool {
		if len(rawSizes) == 0 {
			return true
		}
		if len(rawSizes) > 40 {
			rawSizes = rawSizes[:40]
		}
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, len(rawSizes))
		freq := make([]float64, len(rawSizes))
		for i, s := range rawSizes {
			sizes[i] = int(s)%2000 + 1
			freq[i] = rng.Float64() * 10
		}
		pl, err := Optimize(sizes, freq, baseConfig())
		if err != nil {
			return false
		}
		return pl.Validate(sizes) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHeatImbalanceOfEmptyHeatIsOne(t *testing.T) {
	pl := &Placement{NumDPUs: 4, DPUHeat: make([]float64, 4)}
	if pl.HeatImbalance() != 1 {
		t.Fatal("zero-heat imbalance should be 1")
	}
}

func TestSmallerSplitGranularityImprovesBalance(t *testing.T) {
	// Figure 14(a)'s mechanism: finer slices allow better balance (up to
	// overhead, which the engine charges separately).
	rng := rand.New(rand.NewSource(5))
	sizes, freq := zipfSizes(rng, 20, 8000)
	coarse := baseConfig()
	coarse.SplitThreshold = 1 << 20 // effectively no splitting
	fine := baseConfig()
	fine.SplitThreshold = 200
	plC, err := Optimize(sizes, freq, coarse)
	if err != nil {
		t.Fatal(err)
	}
	plF, err := Optimize(sizes, freq, fine)
	if err != nil {
		t.Fatal(err)
	}
	if plF.HeatImbalance() > plC.HeatImbalance()+1e-9 {
		t.Fatalf("finer split should not worsen balance: %v vs %v",
			plF.HeatImbalance(), plC.HeatImbalance())
	}
}

// lcPrice is a concave task price shaped like the engine's on an LC-bound
// index: a fixed part, the distinct entries of a 256-entry codebook n points
// read in each of 16 subspaces at 100 cycles each, and 200 cycles a point.
func lcPrice(n int) float64 {
	if n <= 0 {
		return 0
	}
	return 3000 + 16*256*(1-math.Pow(1-1.0/256, float64(n)))*100 + 200*float64(n)
}

// benchmarkEngineLists is a deployment shaped like the benchmark engine's:
// 512 lists of 20..175 points, probed about in proportion, 64 DPUs, WRAM/4 of metadata
// (1024 slices), so every threshold under ~45 is infeasible.
func benchmarkEngineLists() ([]int, []float64, Config) {
	rng := rand.New(rand.NewSource(6))
	sizes, freq := make([]int, 512), make([]float64, 512)
	for c := range sizes {
		sizes[c] = 20 + rng.Intn(90)
		if c%32 == 0 {
			sizes[c] = 140 + rng.Intn(36)
		}
		freq[c] = float64(sizes[c]) / 62 * 16 * (0.5 + rng.Float64())
	}
	cfg := baseConfig()
	cfg.NumDPUs, cfg.BytesPerPoint, cfg.MRAMDataBudget = 64, 20, 60<<20
	cfg.CopyFootprint, cfg.WRAMMetaBudget = 128<<10, 16<<10
	return sizes, freq, cfg
}

// TestInfeasibleThresholdsDoNotEndTheSearch: the old climb started at the
// smallest list, met five thresholds whose slices overflow the metadata budget
// and gave up on splitting. The walk must evaluate the feasible ones: with no
// room for copies and two lists that carry a quarter of the probes, the
// layout it returns splits, fits the budget and beats the unsplit launch; with
// the deployment's copy budget and an LC-bound price it keeps the lists whole.
func TestInfeasibleThresholdsDoNotEndTheSearch(t *testing.T) {
	sizes, freq, cfg := benchmarkEngineLists()
	for _, th := range []int{2, 3, 4, 5, 20} {
		slices := 0
		for _, s := range sizes {
			k, _ := sliceCounts(s, th)
			slices += k
		}
		if slices*16 <= cfg.WRAMMetaBudget {
			t.Fatalf("fixture: threshold %d is feasible (%d slices)", th, slices)
		}
	}
	cfg.TaskCycles = lcPrice
	pl, err := Optimize(sizes, freq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Slices) != len(sizes) {
		t.Fatalf("LC-bound lists with room for copies were split: th1 %d, %d slices", pl.Th1, len(pl.Slices))
	}

	sizes[0], sizes[1] = 4000, 4000
	freq[0], freq[1] = 1200, 1200
	cfg.CopyFootprint, cfg.TaskCycles = 0, nil
	pl, err = Optimize(sizes, freq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	whole := cfg
	whole.EnableSplit = false
	plW, err := Optimize(sizes, freq, whole)
	if err != nil {
		t.Fatal(err)
	}
	cfg.defaults()
	got, unsplit := pl.launchCycles(freq, cfg.TaskCycles), plW.launchCycles(freq, cfg.TaskCycles)
	if pl.Th1 >= 4000 || len(pl.Slices)*16 > cfg.WRAMMetaBudget || got >= unsplit/2 {
		t.Fatalf("th1 %d, %d slices, launch %.0f against %.0f unsplit", pl.Th1, len(pl.Slices), got, unsplit)
	}
}

// TestOptimizeKeepsTheBestCandidate: the placement Optimize returns is
// modelled no slower than the one any threshold of its candidate list forces —
// the walk's early stop included, which rests on the price being concave.
func TestOptimizeKeepsTheBestCandidate(t *testing.T) {
	f := func(rawSizes []uint16, seed int64, copies bool) bool {
		if len(rawSizes) == 0 {
			return true
		}
		rawSizes = rawSizes[:min(len(rawSizes), 40)]
		rng := rand.New(rand.NewSource(seed))
		sizes, freq := make([]int, len(rawSizes)), make([]float64, len(rawSizes))
		for i, s := range rawSizes {
			sizes[i] = int(s)%2000 + 1
			freq[i] = rng.Float64() * 10
		}
		cfg := baseConfig()
		cfg.TaskCycles = lcPrice
		cfg.EnableDup = copies
		pl, err := Optimize(sizes, freq, cfg)
		if err != nil {
			return false
		}
		best := pl.launchCycles(freq, lcPrice)
		for _, th := range thresholds(sizes) {
			forced := cfg
			forced.SplitThreshold = th
			plF, err := Optimize(sizes, freq, forced)
			if err != nil {
				return false
			}
			if len(plF.Slices)*16 <= cfg.WRAMMetaBudget && plF.launchCycles(freq, lcPrice) < best {
				t.Logf("th1 %d (%.0f) beats the chosen %d (%.0f)", th, plF.launchCycles(freq, lcPrice), pl.Th1, best)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestForcedLayoutsUnchanged: with th1 forced or splitting off, partition,
// duplication and allocation produce what they did before the search was
// replaced (reference_test.go), field for field.
func TestForcedLayoutsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bench, benchFreq, benchCfg := benchmarkEngineLists()
	for trial := 0; trial < 12; trial++ {
		sizes, freq := zipfSizes(rng, 10+rng.Intn(60), 500+rng.Intn(6000))
		cfg := baseConfig()
		if trial == 0 {
			sizes, freq, cfg = bench, benchFreq, benchCfg
		}
		cfg.CopyFootprint = []int{0, 4 << 10, 64 << 10, 1 << 20}[trial%4]
		for _, th := range []int{-1, 1 << 20, 700, 150, 40} {
			cfg.EnableSplit, cfg.SplitThreshold = th > 0, max(th, 0)
			cfg.EnableBalance = trial%5 != 4
			got, gotErr := Optimize(sizes, freq, cfg)
			want, wantErr := refOptimize(sizes, freq, cfg)
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d th1 %d: placement differs from the reference (%v / %v)", trial, th, gotErr, wantErr)
			}
		}
	}
}

// HeatImbalance returns max/mean DPU heat (1 = perfect balance).
func (pl *Placement) HeatImbalance() float64 {
	var sum, max float64
	for _, h := range pl.DPUHeat {
		sum += h
		if h > max {
			max = h
		}
	}
	mean := sum / float64(len(pl.DPUHeat))
	if mean == 0 {
		return 1
	}
	return max / mean
}
