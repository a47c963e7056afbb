package sched

import (
	"math/rand"
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

func TestCustomCostFunction(t *testing.T) {
	pl, _ := testPlacement(t, 2, false)
	reqs := []Request{{Query: 0, Cluster: 0}, {Query: 1, Cluster: 0}}
	called := false
	b := Greedy(reqs, nil, pl, Config{Cost: func(slice int) float64 {
		called = true
		return float64(pl.Slices[slice].Count) * 2
	}})
	if !called {
		t.Fatal("cost function not consulted")
	}
	if b.TaskCount() == 0 {
		t.Fatal("no tasks scheduled")
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

func TestEmptyRequests(t *testing.T) {
	pl, _ := testPlacement(t, 2, false)
	b := Greedy(nil, nil, pl, Config{Th3: 1.2, Rebalance: true})
	if b.TaskCount() != 0 || len(b.Postponed) != 0 {
		t.Fatal("empty input should produce empty schedule")
	}
}
