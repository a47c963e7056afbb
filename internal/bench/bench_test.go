package bench

// Shape tests: each experiment must regenerate rows whose *shape* matches
// the paper — who wins, by roughly what factor, where crossovers fall.
// Absolute values are simulator-scale, so all bands are deliberately loose.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	testRunnerOnce sync.Once
	testRunner     *Runner
	testTables     map[string]*Table
	testErr        error
)

// tables runs every experiment once on a shared runner.
func tables(t *testing.T) map[string]*Table {
	t.Helper()
	testRunnerOnce.Do(func() {
		testRunner = NewRunner(SmallScale())
		testTables = map[string]*Table{}
		for _, e := range All() {
			tab, err := e.Run(testRunner)
			if err != nil {
				testErr = err
				return
			}
			testTables[e.ID] = tab
		}
	})
	if testErr != nil {
		t.Fatal(testErr)
	}
	return testTables
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSpace(tab.Rows[row][col])
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: cannot parse %q", tab.ID, row, col, s)
	}
	return v
}

func TestRegistry(t *testing.T) {
	if n := len(All()); n != 19 {
		t.Fatalf("expected 19 experiments, got %d", n)
	}
	if _, ok := ByID("f7"); !ok {
		t.Fatal("ByID should be case-insensitive")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id should not resolve")
	}
}

func TestAllExperimentsProduceRows(t *testing.T) {
	for id, tab := range tables(t) {
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("%s: ragged row %v", id, row)
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tab := tables(t)["T1"]
	if len(tab.Rows) != 6 {
		t.Fatalf("Table 1 must list 6 datasets, got %d", len(tab.Rows))
	}
}

func TestFigure2Shape(t *testing.T) {
	tab := tables(t)["F2"]
	// SIFT1B row: GPU x1 and UPMEM x16 OOM, CPU tiny, UPMEM x32 alive.
	for _, row := range tab.Rows {
		if row[0] == "SIFT1B" {
			if !strings.Contains(row[3], "OOM") {
				t.Fatalf("SIFT1B must OOM on one A100, got %q", row[3])
			}
			if strings.Contains(row[7], "OOM") {
				t.Fatalf("SIFT1B must fit UPMEM x32, got %q", row[7])
			}
		}
		if row[0] == "SIFT100M" {
			cpu := mustFloat(t, row[2])
			gpu := mustFloat(t, row[3])
			u16 := mustFloat(t, row[5])
			u32 := mustFloat(t, row[7])
			if cpu >= gpu {
				t.Fatal("CPU must be the slowest platform at ANNS intensity")
			}
			if u32 <= u16 {
				t.Fatal("UPMEM must scale with DIMMs")
			}
		}
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cannot parse %q", s)
	}
	return v
}

func testEndToEndShape(t *testing.T, id string) {
	tab := tables(t)[id]
	if len(tab.Rows) != len(SmallScale().NProbes)+len(SmallScale().NLists) {
		t.Fatalf("%s rows = %d", id, len(tab.Rows))
	}
	for i := range tab.Rows {
		// Re-baselined with the reference-driven LC kernel: the paper's band
		// is for the dense kernel, and these rows are LC-bound, so building
		// only the referenced entries lifts them (2.0-3.4 before, 4.0-5.4
		// at this scale). And again with the bound-forwarded staged scan,
		// which the Faiss-CPU baseline has no counterpart of: 4.8-18.8, most
		// at the small-nlist end where lists are long and bounds prune
		// hardest. The cap moved once more, 22 to 24, when the scheduler's
		// measured task price levelled the launches: nlist 32 reads 22.7.
		speedup := cell(t, tab, i, 4)
		if speedup < 1.0 || speedup > 24.0 {
			t.Errorf("%s row %d: DRIM/CPU speedup %v outside [1, 24] (paper, dense LC: 1.6-2.5)", id, i, speedup)
		}
		recall := cell(t, tab, i, 5)
		if recall < 0.5 {
			t.Errorf("%s row %d: recall %v too low", id, i, recall)
		}
	}
	// QPS must fall as nprobe grows (both engines scan more clusters).
	nprobes := len(SmallScale().NProbes)
	for i := 1; i < nprobes; i++ {
		if cell(t, tab, i, 3) > cell(t, tab, i-1, 3) {
			t.Errorf("%s: DRIM QPS should fall with nprobe", id)
		}
	}
	// Recall at the largest nlist configuration approaches the paper's 0.8
	// constraint.
	if r := cell(t, tab, len(tab.Rows)-1, 5); r < 0.7 {
		t.Errorf("%s: final recall %v, want >= 0.7", id, r)
	}
}

func TestFigure7Shape(t *testing.T) { testEndToEndShape(t, "F7") }
func TestFigure8Shape(t *testing.T) { testEndToEndShape(t, "F8") }

func TestFigure9Shape(t *testing.T) {
	tab := tables(t)["F9"]
	nprobes := len(SmallScale().NProbes)
	for i := range tab.Rows {
		lc := cell(t, tab, i, 3)
		dc := cell(t, tab, i, 4)
		ts := cell(t, tab, i, 5)
		if lc+dc < 0.7 {
			t.Errorf("F9 row %d: LC+DC share %v should dominate", i, lc+dc)
		}
		if ts > 0.15 {
			t.Errorf("F9 row %d: TS share %v too high (lock pruning should shrink it)", i, ts)
		}
	}
	// DC share falls as nlist rises (the paper's bottleneck shift).
	first := cell(t, tab, nprobes, 4)
	last := cell(t, tab, len(tab.Rows)-1, 4)
	if last > first {
		t.Errorf("F9: DC share should fall with nlist: %v -> %v", first, last)
	}
	// LUT occupancy is a real fraction. It no longer orders by slice size:
	// a staged scan builds what its surviving points read, and bounds prune
	// hardest where lists are long (small nlist) or many (high nprobe).
	for i := range tab.Rows {
		occ := cell(t, tab, i, 7)
		if occ <= 0 || occ > 1 {
			t.Errorf("F9 row %d: LUT occupancy %v outside (0, 1]", i, occ)
		}
	}
}

// TestRegimeMapShape pins the regime map (the experiment itself refuses an
// unbounded reference that pruned anything): the LUT build's share of the
// scan falls as lists grow and crosses one half inside the sweep (at 1024
// points a list at this scale — left of it a kernel's gain has to come from
// building less, right of it from reading fewer codes); and bounds pay on
// both sides of that crossover, most where lists are short.
func TestRegimeMapShape(t *testing.T) {
	tab := tables(t)["RM"]
	if len(tab.Rows) != len(regimeSizes) {
		t.Fatalf("%d rows for %d list sizes", len(tab.Rows), len(regimeSizes))
	}
	const perList, buildShare, saved = 0, 4, 6
	cross := 0.0
	for i := range tab.Rows {
		share, ratio := cell(t, tab, i, buildShare), cell(t, tab, i, saved)
		if i > 0 && share >= cell(t, tab, i-1, buildShare) {
			t.Errorf("RM row %d: build share %v did not fall", i, share)
		}
		if cross == 0 && share < 0.5 {
			cross = cell(t, tab, i, perList)
		}
		if ratio > 0.75 {
			t.Errorf("RM row %d: bounds leave %v of the scan's cycles, want at most 0.75", i, ratio)
		}
	}
	if cross != 1024 {
		t.Errorf("RM: build share crosses one half at %v points a list, recorded crossover is 1024", cross)
	}
	if short, long := cell(t, tab, 0, saved), cell(t, tab, len(tab.Rows)-1, saved); short >= long {
		t.Errorf("RM: bounds should save most where lists are short: %v at the short end, %v at the long", short, long)
	}
	// Every corpus of the sweep measures its own share table, and the
	// scheduler's summed price lands on the simulated cycles at all of them.
	for i := range tab.Rows {
		if r := cell(t, tab, i, 10); r < 0.95 || r > 1.05 {
			t.Errorf("RM row %d: the scheduler priced the bounded run at %v of its cycles, want within 5%%", i, r)
		}
	}
}

// TestPriceAccuracyShape pins what the measured price is for: on the single
// engine the priced cycles follow the simulated ones down the probe list —
// every octile of CL rank within a tenth, where one flat share for every
// bounded task (the column beside it) is out by a factor of four at the far
// end — and bin by bin of ρ within 15% wherever a hundredth of the bounded
// scans fall, the summed price within 5% of the simulated cycles. (The small
// scale's shards are too small for their own tables to be good: a 400-point
// shard sees a handful of bounded scans in its sample, so the fleet rows are
// only required to be there. The default scale's fleet reads within 16% bin by
// bin.)
func TestPriceAccuracyShape(t *testing.T) {
	tab := tables(t)["PA"]
	ranks, fleetRows := 0, 0
	flatLo, flatHi := 1.0, 1.0
	for i, row := range tab.Rows {
		if row[0] != "engine" {
			fleetRows++
		}
		if row[0] != "engine" || row[1] != "rank" {
			continue
		}
		ranks++
		if r := cell(t, tab, i, 6); r < 0.9 || r > 1.1 {
			t.Errorf("PA engine %s: actual/priced %v, want within a tenth", row[2], r)
		}
		flatLo, flatHi = min(flatLo, cell(t, tab, i, 7)), max(flatHi, cell(t, tab, i, 7))
	}
	if ranks != 8 || fleetRows < 9 || len(tab.Notes) != 3 {
		t.Fatalf("PA: %d rank octiles for the engine, %d fleet rows, %d notes", ranks, fleetRows, len(tab.Notes))
	}
	if flatLo > 0.5 {
		t.Errorf("PA engine: a flat share prices every octile within [%v, %v] of its cycles: the fixture does not show what the table is for", flatLo, flatHi)
	}
	var name string
	var imb, qps, price, worst float64
	if _, err := fmt.Sscanf(strings.NewReplacer(";", "", ":", "", ",", "").Replace(tab.Notes[0]),
		"%s imbalance %f sim QPS %f price/simulated cycles %f actual/priced furthest from 1 in a rho bin holding a hundredth of the bounded scans %f",
		&name, &imb, &qps, &price, &worst); err != nil {
		t.Fatalf("PA note %q: %v", tab.Notes[0], err)
	}
	if name != "engine" || worst < 0.85 || worst > 1.15 || price < 0.95 || price > 1.05 {
		t.Errorf("PA %s: worst rho bin actual/priced %v, price/simulated cycles %v", name, worst, price)
	}
}

// TestFleetScalingShape pins the fleet curve: with the front door cutting the
// waves and one bound merged over the shards, a query costs the same cycles
// behind 1, 2, 4 or 8 shards (within a tenth; shards cutting their own waves
// repeated every query's unbounded wave once a shard it reached), and a
// second replica of every shard never lowers the throughput.
func TestFleetScalingShape(t *testing.T) {
	tab := tables(t)["FS"]
	const qps, vsOne = 2, 4
	if len(tab.Rows) != 8 {
		t.Fatalf("FS: %d rows, want 4 shard counts x 2 replica counts", len(tab.Rows))
	}
	for i := range tab.Rows {
		if r := cell(t, tab, i, vsOne); r < 0.9 || r > 1.1 {
			t.Errorf("FS row %d: %v of the one-shard fleet's cycles a query, want within a tenth", i, r)
		}
		if i%2 == 1 && cell(t, tab, i, qps) < cell(t, tab, i-1, qps) {
			t.Errorf("FS row %d: a second replica lowered sim QPS from %v to %v", i, cell(t, tab, i-1, qps), cell(t, tab, i, qps))
		}
	}
}

// TestShardSplitShape pins what the SS table is for: on each of the four
// corpora, searched with the profile it was deployed on, the measured weight
// levels the lanes to the split's cap (a sixteenth over the mean, a list of
// slack) whatever size x (1 + probes) leaves; the held-out column is reported,
// not asserted — it measures the profile, not the weight.
func TestShardSplitShape(t *testing.T) {
	tab := tables(t)["SS"]
	const onProfile = 4
	if len(tab.Rows) != 8 {
		t.Fatalf("SS: %d rows, want 4 corpora x 2 weights", len(tab.Rows))
	}
	for i := 1; i < len(tab.Rows); i += 2 {
		if tab.Rows[i][1] != "measured cycles" || tab.Rows[i][0] != tab.Rows[i-1][0] {
			t.Fatalf("SS row %d: %v after %v", i, tab.Rows[i][:2], tab.Rows[i-1][:2])
		}
		if m := cell(t, tab, i, onProfile); m > 1.09 {
			t.Errorf("SS %s: lanes max/mean %v on the profile under the measured weight (%v under size x (1 + probes)), want the cap's 1.0625 and a list of slack",
				tab.Rows[i][0], m, cell(t, tab, i-1, onProfile))
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	tab := tables(t)["F10"]
	for i := range tab.Rows {
		// Re-baselined with the reference-driven LC kernel and again with
		// the staged scan (see F7): the same power over a shorter run
		// (1.3-2.2, then 2.5-3.4, then 3.2-12.7; 3.3-14.3 under the measured
		// task price, which moved the cap from 14 to 15).
		gain := cell(t, tab, i, 4)
		if gain < 0.8 || gain > 15 {
			t.Errorf("F10 row %d: energy gain %v outside [0.8, 15] (paper, dense LC: 1.10-1.58)", i, gain)
		}
	}
}

func TestFigure11aShape(t *testing.T) {
	tab := tables(t)["F11a"]
	for i := range tab.Rows {
		lc := cell(t, tab, i, 1)
		overall := cell(t, tab, i, 2)
		if lc < 1.3 || lc > 6 {
			t.Errorf("F11a row %d: LC speedup %v outside [1.3, 6] (paper: ~1.93)", i, lc)
		}
		if overall > lc+0.05 {
			t.Errorf("F11a row %d: overall speedup %v exceeds LC speedup %v", i, overall, lc)
		}
		if overall < 1 {
			t.Errorf("F11a row %d: SQT should never slow the engine down (%v)", i, overall)
		}
	}
}

func TestFigure11bShape(t *testing.T) {
	tab := tables(t)["F11b"]
	for i := range tab.Rows {
		// Re-baselined with the reference-driven LC kernel: the model's LUT
		// occupancy assumes uniform codes, the pessimistic case, so on
		// LC-bound rows real (skewed) codes can beat it by up to ~20%. And
		// again with the staged scan: the model sizes each stage's LUT for
		// the mean survival over all scans, and occupancy is concave, so
		// scans that prune unevenly build less than it predicts (up to ~65%
		// at the small-nlist end, where bounds prune hardest). The measured
		// task price levels that row's launches (the engine gains 12%, the
		// model, whose launches are level by assumption, nothing): 1.83, and
		// the cap moved from 1.8 to 1.9. Feeding the model the LUT size the run
		// built instead of uniform codes' was tried and reads 0.50-0.72 here,
		// but 0.20-0.69 at the default scale, where the uniform guess reads
		// 0.62-1.12 beside the paper's 0.72-1.0: its pessimism stands in for
		// the mark and prune passes the equations leave out.
		ratio := cell(t, tab, i, 4)
		if ratio <= 0.2 || ratio > 1.9 {
			t.Errorf("F11b row %d: actual/model %v outside (0.2, 1.9] (paper: 0.72-1.0)", i, ratio)
		}
	}
}

func TestFigure12aShape(t *testing.T) {
	tab := tables(t)["F12a"]
	if len(tab.Rows) != 12 {
		t.Fatalf("F12a rows = %d, want 12 (3 datasets x 4 targets)", len(tab.Rows))
	}
	// Within each dataset the normalized throughput must not increase as
	// the accuracy floor tightens: a looser floor's feasible set contains
	// the stricter one's, so tightening cannot raise the exact optimum.
	for ds := 0; ds < 3; ds++ {
		for i := 1; i < 4; i++ {
			prev := cell(t, tab, ds*4+i-1, 4)
			cur := cell(t, tab, ds*4+i, 4)
			if cur > prev {
				t.Errorf("F12a %s: throughput rose as the constraint tightened (%v -> %v)",
					tab.Rows[ds*4][0], prev, cur)
			}
		}
	}
	// A pick below its floor is marked as missing it, and no other row is.
	for i, row := range tab.Rows {
		below := cell(t, tab, i, 3) < cell(t, tab, i, 1)
		if marked := len(row) > 5 && row[5] == "NO"; marked != below {
			t.Errorf("F12a row %d (%s floor %s, recall %s): marked infeasible %v, below the floor %v",
				i, row[0], row[1], row[3], marked, below)
		}
	}
}

func TestFigure12bShape(t *testing.T) {
	tab := tables(t)["F12b"]
	for i := range tab.Rows {
		sp := cell(t, tab, i, 2)
		if sp < 2.5 || sp > 6.5 {
			t.Errorf("F12b row %d: WRAM speedup %v outside [2.5, 6.5] (paper: 3.86-4.30, bound 4.72)", i, sp)
		}
	}
}

func TestFigure13Shape(t *testing.T) {
	tab := tables(t)["F13"]
	maxOverall := 0.0
	for i := range tab.Rows {
		overall := cell(t, tab, i, 2)
		alloc := cell(t, tab, i, 3)
		if overall < 0.95 {
			t.Errorf("F13 row %d: overall speedup %v < 1", i, overall)
		}
		if alloc < 0.9 {
			t.Errorf("F13 row %d: allocation speedup %v < 0.9", i, alloc)
		}
		if overall > maxOverall {
			maxOverall = overall
		}
	}
	if maxOverall < 1.8 {
		t.Errorf("F13: peak overall speedup %v too small (paper: 4.84-6.19)", maxOverall)
	}
}

func TestFigure14aShape(t *testing.T) {
	tab := tables(t)["F14a"]
	swept := len(tab.Rows) - 1 // the last row is the layout's own threshold
	maxSp := 0.0
	for i := 0; i < swept; i++ {
		sp := cell(t, tab, i, 1)
		if sp < 0.8 {
			t.Errorf("F14a row %d: splitting should not badly hurt (%v)", i, sp)
		}
		if sp > maxSp {
			maxSp = sp
		}
	}
	if maxSp < 1.2 {
		t.Errorf("F14a: best split speedup %v too small (paper: up to 3.35)", maxSp)
	}
	// The finest granularity must beat the coarsest.
	if cell(t, tab, 0, 1) < cell(t, tab, swept-1, 1) {
		t.Error("F14a: finest slices should beat coarsest")
	}
	// With no copies to level with, the threshold the layout picks by
	// evaluation splits, and does about as well as the best of the sweep.
	var th1, slices, lists int
	if _, err := fmt.Sscanf(tab.Rows[swept][0], "auto: %d (%d slices of %d lists)", &th1, &slices, &lists); err != nil {
		t.Fatalf("F14a last row %q: %v", tab.Rows[swept][0], err)
	}
	if auto := cell(t, tab, swept, 1); slices <= lists || auto < 0.95*maxSp {
		t.Errorf("F14a: the evaluated threshold %d makes %d slices of %d lists and reads %vx, the best swept row %vx", th1, slices, lists, auto, maxSp)
	}
}

func TestFigure14bShape(t *testing.T) {
	tab := tables(t)["F14b"]
	first := cell(t, tab, 0, 1)
	last := cell(t, tab, len(tab.Rows)-1, 1)
	peak := first
	for i := range tab.Rows {
		if v := cell(t, tab, i, 1); v > peak {
			peak = v
		}
	}
	if last < first*1.5 {
		t.Errorf("F14b: duplication should pay off: %v -> %v", first, last)
	}
	if peak < 2.2 {
		t.Errorf("F14b: peak duplication speedup %v too small", peak)
	}
	if last < peak*0.7 {
		t.Errorf("F14b: speedup should saturate, not collapse: last %v vs peak %v", last, peak)
	}
	// Roughly monotone: scheduling noise allows small dips, never collapses.
	for i := 1; i < len(tab.Rows); i++ {
		if cell(t, tab, i, 1) < cell(t, tab, i-1, 1)*0.75 {
			t.Errorf("F14b: speedup dipped too much at row %d", i)
		}
	}
}

func TestFigure15Shape(t *testing.T) {
	tab := tables(t)["F15"]
	for i := range tab.Rows {
		upmemCPU := cell(t, tab, i, 1)
		aimCPU := cell(t, tab, i, 3)
		upmemGPU := cell(t, tab, i, 4)
		hbmGPU := cell(t, tab, i, 5)
		aimGPU := cell(t, tab, i, 6)
		if upmemCPU < 0.9 || upmemCPU > 2.6 {
			t.Errorf("F15 row %d: UPMEM/CPU %v outside [0.9, 2.6] (paper ~1.9)", i, upmemCPU)
		}
		if upmemGPU > 0.3 {
			t.Errorf("F15 row %d: UPMEM/GPU %v should be far below 1 (paper ~0.16)", i, upmemGPU)
		}
		if hbmGPU < 0.6 || hbmGPU > 1.2 {
			t.Errorf("F15 row %d: HBM-PIM/GPU %v outside [0.6, 1.2] (paper 0.76-1.00)", i, hbmGPU)
		}
		if aimGPU < 1.7 || aimGPU > 3.0 {
			t.Errorf("F15 row %d: AiM/GPU %v outside [1.7, 3.0] (paper 2.09-2.67)", i, aimGPU)
		}
		if aimCPU < 20 || aimCPU > 40 {
			t.Errorf("F15 row %d: AiM/CPU %v outside [20, 40] (paper 30.1-33.9)", i, aimCPU)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	tab := tables(t)["T3"]
	if len(tab.Rows) != 3 {
		t.Fatalf("T3 rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][2] != "405" {
		t.Fatalf("MemANNS reported QPS must be cited as 405, got %q", tab.Rows[0][2])
	}
	noDSE := cell(t, tab, 1, 2)
	withDSE := cell(t, tab, 2, 2)
	if noDSE < 100 || noDSE > 900 {
		t.Errorf("T3: no-DSE QPS %v outside [100, 900] (paper: 419)", noDSE)
	}
	if withDSE < noDSE*2.5 {
		t.Errorf("T3: DSE should multiply throughput: %v vs %v (paper: 9.2x)", withDSE, noDSE)
	}
	if withDSE < 405 {
		t.Errorf("T3: DRIM-ANN with DSE (%v) must beat MemANNS (405)", withDSE)
	}
}

func TestRunnerCaching(t *testing.T) {
	r := NewRunner(SmallScale())
	a := r.Dataset("SIFT")
	b := r.Dataset("SIFT")
	if a != b {
		t.Fatal("datasets must be cached")
	}
	ixA, err := r.Index("SIFT", 32, 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	ixB, err := r.Index("SIFT", 32, 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ixA != ixB {
		t.Fatal("indexes must be cached")
	}
	gtA := r.GroundTruth("SIFT")
	gtB := r.GroundTruth("SIFT")
	if &gtA[0] != &gtB[0] {
		t.Fatal("ground truth must be cached")
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{ID: "X", Title: "test", Columns: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "2")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== X: test ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fprint output missing %q:\n%s", want, out)
		}
	}
}
