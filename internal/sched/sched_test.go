package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"drimann/internal/layout"
)

// testPlacement builds a placement over skewed clusters.
func testPlacement(t *testing.T, numDPUs int, dup bool) (*layout.Placement, []int) {
	t.Helper()
	sizes := []int{1200, 600, 300, 150, 100, 100, 80, 60}
	freq := []float64{40, 20, 10, 5, 3, 3, 2, 1}
	cfg := layout.Config{
		NumDPUs:        numDPUs,
		BytesPerPoint:  20,
		MRAMDataBudget: 1 << 20,
		WRAMMetaBudget: 16 << 10,
		EnableSplit:    true,
		EnableDup:      dup,
		EnableBalance:  true,
	}
	if dup {
		cfg.CopyFootprint = 32 << 10
	}
	pl, err := layout.Optimize(sizes, freq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl, sizes
}

// reqsFor builds skewed requests: most queries hit cluster 0.
func skewedRequests(rng *rand.Rand, n int, nClusters int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		c := int32(0)
		if rng.Float64() > 0.6 {
			c = int32(rng.Intn(nClusters))
		}
		reqs[i] = Request{Query: int32(i / 3), Cluster: c}
	}
	return reqs
}

func TestGreedyCoversEverySliceExactlyOnce(t *testing.T) {
	pl, _ := testPlacement(t, 4, true)
	rng := rand.New(rand.NewSource(1))
	reqs := skewedRequests(rng, 60, len(pl.ByCluster))
	b := Greedy(reqs, nil, pl, Config{})

	// Each request must produce exactly one task per slice of its cluster.
	type key struct {
		q     int32
		slice int
	}
	counts := map[key]int{}
	for _, tasks := range b.PerDPU {
		for _, task := range tasks {
			counts[key{task.Query, task.Slice}]++
		}
	}
	for _, p := range b.Postponed {
		counts[key{p.Query, p.Slice}]++
	}
	want := map[key]int{}
	for _, r := range reqs {
		for _, si := range pl.ByCluster[r.Cluster] {
			want[key{r.Query, si}]++
		}
	}
	for k, n := range want {
		if counts[k] != n {
			t.Fatalf("task %+v scheduled %d times, want %d", k, counts[k], n)
		}
	}
	for k := range counts {
		if want[k] == 0 {
			t.Fatalf("spurious task %+v", k)
		}
	}
}

func TestGreedyAssignsToReplicaDPUs(t *testing.T) {
	pl, _ := testPlacement(t, 4, true)
	rng := rand.New(rand.NewSource(2))
	reqs := skewedRequests(rng, 40, len(pl.ByCluster))
	b := Greedy(reqs, nil, pl, Config{})
	for d, tasks := range b.PerDPU {
		for _, task := range tasks {
			found := false
			for _, rd := range pl.Slices[task.Slice].DPUs {
				if rd == d {
					found = true
				}
			}
			if !found {
				t.Fatalf("task on DPU %d but slice %d lives on %v", d, task.Slice, pl.Slices[task.Slice].DPUs)
			}
		}
	}
}

func TestDuplicationReducesMaxHeat(t *testing.T) {
	plNoDup, _ := testPlacement(t, 4, false)
	plDup, _ := testPlacement(t, 4, true)
	rng := rand.New(rand.NewSource(3))
	reqs := skewedRequests(rng, 120, len(plNoDup.ByCluster))
	cfg := Config{Rebalance: true}
	bN := Greedy(reqs, nil, plNoDup, cfg)
	bD := Greedy(reqs, nil, plDup, cfg)
	if bD.MaxHeat() > bN.MaxHeat()*1.05 {
		t.Fatalf("duplication should not raise max heat: %v vs %v", bD.MaxHeat(), bN.MaxHeat())
	}
}

func TestPostponeRespectsThreshold(t *testing.T) {
	pl, _ := testPlacement(t, 4, false)
	rng := rand.New(rand.NewSource(4))
	reqs := skewedRequests(rng, 200, len(pl.ByCluster))
	cfg := Config{Th3: 1.3}
	b := Greedy(reqs, nil, pl, cfg)
	mean := 0.0
	for _, h := range b.Heat {
		mean += h
	}
	mean /= float64(len(b.Heat))
	for d, h := range b.Heat {
		// DPUs with more than one task must be within threshold.
		if len(b.PerDPU[d]) > 1 && h > 1.3*mean*1.5 {
			t.Fatalf("DPU %d heat %v far above th3*mean %v", d, h, 1.3*mean)
		}
	}
}

func TestPostponedTasksCarryOver(t *testing.T) {
	pl, _ := testPlacement(t, 2, false)
	rng := rand.New(rand.NewSource(5))
	reqs := skewedRequests(rng, 100, len(pl.ByCluster))
	b1 := Greedy(reqs, nil, pl, Config{Th3: 1.1})
	if len(b1.Postponed) == 0 {
		t.Skip("no postponement triggered at this skew")
	}
	b2 := Greedy(nil, b1.Postponed, pl, Config{})
	if b2.TaskCount() != len(b1.Postponed) {
		t.Fatalf("carried tasks lost: %d scheduled of %d", b2.TaskCount(), len(b1.Postponed))
	}
}

func TestRebalanceNeverWorsensMax(t *testing.T) {
	pl, _ := testPlacement(t, 4, true)
	rng := rand.New(rand.NewSource(6))
	reqs := skewedRequests(rng, 150, len(pl.ByCluster))
	plain := Greedy(reqs, nil, pl, Config{})
	reb := Greedy(reqs, nil, pl, Config{Rebalance: true})
	if reb.MaxHeat() > plain.MaxHeat()+1e-9 {
		t.Fatalf("rebalance worsened max heat: %v vs %v", reb.MaxHeat(), plain.MaxHeat())
	}
}

func TestGreedyDeterministic(t *testing.T) {
	pl, _ := testPlacement(t, 4, true)
	rng := rand.New(rand.NewSource(7))
	reqs := skewedRequests(rng, 50, len(pl.ByCluster))
	a := Greedy(reqs, nil, pl, Config{Rebalance: true, Th3: 1.5})
	b := Greedy(reqs, nil, pl, Config{Rebalance: true, Th3: 1.5})
	for d := range a.PerDPU {
		if len(a.PerDPU[d]) != len(b.PerDPU[d]) {
			t.Fatal("non-deterministic schedule")
		}
		for i := range a.PerDPU[d] {
			if a.PerDPU[d][i] != b.PerDPU[d][i] {
				t.Fatal("non-deterministic task order")
			}
		}
	}
}

// TestCustomCostFunction: heat is the sum of the caller's per-task prices,
// and a launch may mix kinds — here odd queries cost double on every slice.
func TestCustomCostFunction(t *testing.T) {
	pl, _ := testPlacement(t, 2, false)
	reqs := []Request{{Query: 0, Cluster: 0}, {Query: 1, Cluster: 0}, {Query: 2, Cluster: 1}, {Query: 3, Cluster: 1}}
	price := func(task Task) float64 {
		return float64(pl.Slices[task.Slice].Count) * float64(1+task.Query%2)
	}
	b := Greedy(reqs, nil, pl, Config{Rebalance: true, Cost: func(task Task) (float64, bool) {
		if task.Cluster != pl.Slices[task.Slice].Cluster {
			t.Fatalf("task %+v priced with another cluster's slice", task)
		}
		return price(task), true
	}})
	if b.TaskCount() == 0 {
		t.Fatal("no tasks scheduled")
	}
	for d, tasks := range b.PerDPU {
		var want float64
		for _, task := range tasks {
			want += price(task)
		}
		if math.Abs(b.Heat[d]-want) > 1e-9*want {
			t.Fatalf("DPU %d heat %v, its tasks' prices sum to %v", d, b.Heat[d], want)
		}
	}
}

func TestProfileCounts(t *testing.T) {
	probes := [][]int32{{0, 1}, {0, 2}, {0}}
	freq := Profile(probes, 4)
	want := []float64{3, 1, 1, 0}
	for i := range want {
		if freq[i] != want[i] {
			t.Fatalf("Profile = %v, want %v", freq, want)
		}
	}
}

// TestPostponeKeepsUnboundedTasks: postponement sheds only the tasks the cost
// hook calls deferrable (the engine: those whose query carries a bound). A DPU
// over Th3 holding both kinds sheds deferrable ones, latest first, until it is
// under the limit or has none left, and keeps every exempt one in order; a DPU
// holding exempt tasks alone sheds nothing however hot it runs.
func TestPostponeKeepsUnboundedTasks(t *testing.T) {
	// Every task costs 10; odd queries are deferrable. Mean heat is 30, the
	// limit 33: DPU 0 (60) must shed three tasks, DPU 1 (50) two but holds only
	// one it may shed, DPU 2 (40) none that it may, DPUs 3 and 4 are idle.
	task := func(q int32) Task { return Task{Query: q, Slice: int(q)} }
	b := &Batch{
		PerDPU: [][]Task{
			{task(1), task(2), task(3), task(4), task(5), task(7)},
			{task(6), task(8), task(9), task(10), task(12)},
			{task(14), task(16), task(18), task(20)},
			nil, nil,
		},
		Heat: []float64{60, 50, 40, 0, 0},
	}
	postpone(b, Config{Th3: 1.1, Cost: func(t Task) (float64, bool) { return 10, t.Query%2 == 1 }})

	queries := func(tasks []Task) (qs []int32) {
		for _, t := range tasks {
			qs = append(qs, t.Query)
		}
		return qs
	}
	for d, want := range [][]int32{{1, 2, 4}, {6, 8, 10, 12}, {14, 16, 18, 20}, nil, nil} {
		if got := queries(b.PerDPU[d]); !slices.Equal(got, want) {
			t.Fatalf("DPU %d keeps queries %v, want %v", d, got, want)
		}
		if want := 10 * float64(len(want)); b.Heat[d] != want {
			t.Fatalf("DPU %d heat %v, want %v", d, b.Heat[d], want)
		}
	}
	if got, want := queries(b.Postponed), []int32{3, 5, 7, 9}; !slices.Equal(got, want) {
		t.Fatalf("postponed queries %v, want %v", got, want)
	}
	for _, t2 := range b.Postponed {
		if t2.DPU != -1 {
			t.Fatalf("postponed task %+v still names a DPU", t2)
		}
	}
}

func TestEmptyRequests(t *testing.T) {
	pl, _ := testPlacement(t, 2, false)
	b := Greedy(nil, nil, pl, Config{Th3: 1.2, Rebalance: true})
	if b.TaskCount() != 0 || len(b.Postponed) != 0 {
		t.Fatal("empty input should produce empty schedule")
	}
}

// TestTasksKeepTheirDist: a task expanded from a request carries the
// request's Dist into the price hook, on whichever slice and DPU it lands, and
// a task carried from an earlier launch keeps the Dist it was postponed with.
func TestTasksKeepTheirDist(t *testing.T) {
	pl, _ := testPlacement(t, 4, false) // no copies: the skew overheats a DPU
	reqs := skewedRequests(rand.New(rand.NewSource(3)), 90, len(pl.ByCluster))
	dist := func(q, c int32) uint32 { return uint32(q)<<8 | uint32(c) + 1 }
	for i := range reqs {
		reqs[i].Dist = dist(reqs[i].Query, reqs[i].Cluster)
	}
	priced := 0
	cfg := Config{Th3: 0.5, Cost: func(task Task) (float64, bool) { // every DPU is over half the mean: all shed
		if task.Dist != dist(task.Query, task.Cluster) {
			t.Fatalf("the price hook got task %+v, its request had Dist %d", task, dist(task.Query, task.Cluster))
		}
		priced++
		return float64(pl.Slices[task.Slice].Count), true
	}}
	b := Greedy(reqs, nil, pl, cfg)
	if len(b.Postponed) == 0 || priced == 0 {
		t.Fatalf("%d tasks postponed, %d priced: the test does not bite", len(b.Postponed), priced)
	}
	carried := slices.Clone(b.Postponed)
	next := Greedy(nil, carried, pl, cfg)
	seen := 0
	for _, tasks := range append(next.PerDPU, next.Postponed, b.Postponed) {
		for _, task := range tasks {
			if seen++; task.Dist != dist(task.Query, task.Cluster) {
				t.Fatalf("task %+v lost its Dist %d", task, dist(task.Query, task.Cluster))
			}
		}
	}
	if seen != 2*len(carried) {
		t.Fatalf("%d carried tasks came out as %d", len(carried), seen-len(carried))
	}
}

// TestPriceNeverChangesAnswers, the scheduler's half: whatever the price hook
// says — nothing, noise, or the opposite of the truth — every task of every
// request is placed exactly once, launched on a DPU that holds its slice or
// postponed, so a price decides where and when a slice is scanned, never
// whether.
func TestPriceNeverChangesAnswers(t *testing.T) {
	pl, _ := testPlacement(t, 4, true)
	reqs := skewedRequests(rand.New(rand.NewSource(5)), 120, len(pl.ByCluster))
	rng := rand.New(rand.NewSource(6))
	for name, cost := range map[string]func(Task) (float64, bool){
		"zero":     func(Task) (float64, bool) { return 0, true },
		"random":   func(Task) (float64, bool) { return rng.Float64(), rng.Intn(2) == 0 },
		"inverted": func(task Task) (float64, bool) { return 1 / float64(1+pl.Slices[task.Slice].Count), true },
	} {
		b := Greedy(reqs, nil, pl, Config{Th3: 1.1, Rebalance: true, Cost: cost})
		type key struct {
			q     int32
			slice int
		}
		got := map[key]int{}
		for d, tasks := range b.PerDPU {
			for _, task := range tasks {
				if got[key{task.Query, task.Slice}]++; !slices.Contains(pl.Slices[task.Slice].DPUs, d) {
					t.Fatalf("%s price: task %+v launched on DPU %d, which does not hold its slice", name, task, d)
				}
			}
		}
		for _, task := range b.Postponed {
			got[key{task.Query, task.Slice}]++
		}
		want := 0
		for _, r := range reqs {
			for _, si := range pl.ByCluster[r.Cluster] {
				if want++; got[key{r.Query, si}] == 0 {
					t.Fatalf("%s price: query %d never scans slice %d", name, r.Query, si)
				}
				got[key{r.Query, si}]--
			}
		}
		if b.TaskCount()+len(b.Postponed) != want {
			t.Fatalf("%s price: %d tasks for %d requested", name, b.TaskCount()+len(b.Postponed), want)
		}
	}
}
