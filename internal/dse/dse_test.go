package dse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// synthProblem is a synthetic design problem: recall rises with P, M, CB
// and falls with NList; QPS the other way around. The optimum under a
// recall floor is interior.
func synthProblem() (Space, func(Candidate) (float64, error), func(Candidate) (float64, error)) {
	space := Space{
		P:     []int{8, 16, 32, 64, 128},
		NList: []int{256, 512, 1024, 2048},
		M:     []int{8, 16},
		CB:    []int{64, 256},
	}
	recall := func(c Candidate) (float64, error) {
		r := 1 - math.Exp(-float64(c.P)/20) // rises with P
		r *= 0.8 + 0.2*math.Min(1, float64(c.M)/16)
		r *= 0.9 + 0.1*math.Min(1, float64(c.CB)/256)
		r *= 1 - 0.05*math.Log2(float64(c.NList)/256)/3
		return math.Min(r, 1), nil
	}
	qps := func(c Candidate) (float64, error) {
		cost := float64(c.P) * (float64(1_000_000)/float64(c.NList)*float64(c.M) +
			float64(c.CB)*float64(c.M)*4)
		return 1e9 / cost, nil
	}
	return space, qps, recall
}

func TestOptimizeFindsFeasibleNearOptimal(t *testing.T) {
	space, qps, recall := synthProblem()
	res, err := Optimize(space, qps, recall, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("synthetic problem has feasible points; DSE found none")
	}
	if res.BestRecall < 0.8 {
		t.Fatalf("constraint violated: recall %v", res.BestRecall)
	}
	// Exhaustive optimum for comparison: the walk must find it exactly.
	bestQPS := 0.0
	for _, c := range space.All() {
		r, _ := recall(c)
		if r >= 0.8 {
			q, _ := qps(c)
			bestQPS = math.Max(bestQPS, q)
		}
	}
	if res.BestQPS != bestQPS {
		t.Fatalf("DSE result %v, exhaustive optimum %v (%d of %d measured)",
			res.BestQPS, bestQPS, len(res.History), len(space.All()))
	}
}

// randomAxis draws 1-4 distinct increasing grid values.
func randomAxis(rng *rand.Rand) []int {
	seen := map[int]bool{}
	for n := 1 + rng.Intn(4); len(seen) < n; {
		seen[1+rng.Intn(64)] = true
	}
	var out []int
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// TestOptimizeWalkProperties checks the walk against brute force on random
// grids with random QPS (few distinct values, so ties are common), random
// recalls and a random floor: some floors lie above every recall, some
// equal one.
func TestOptimizeWalkProperties(t *testing.T) {
	var feasible, infeasible int
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			space := Space{P: randomAxis(rng), NList: randomAxis(rng), M: randomAxis(rng), CB: randomAxis(rng)}
			all := space.All()
			qps := map[Candidate]float64{}
			recall := map[Candidate]float64{}
			for _, c := range all {
				qps[c] = float64(1 + rng.Intn(5))
				recall[c] = rng.Float64()
			}
			floor := 1.2 * rng.Float64()
			if seed%4 == 0 { // a recall exactly at the floor meets it
				floor = recall[all[rng.Intn(len(all))]]
			}
			measured := map[Candidate]int{}
			res, err := Optimize(space,
				func(c Candidate) (float64, error) { return qps[c], nil },
				func(c Candidate) (float64, error) { measured[c]++; return recall[c], nil },
				floor)
			if err != nil {
				t.Fatal(err)
			}

			// Brute force: the first candidate in All order with the
			// highest QPS among those meeting the floor.
			want, wantOK := Candidate{}, false
			for _, c := range all {
				if recall[c] >= floor && (!wantOK || qps[c] > qps[want]) {
					want, wantOK = c, true
				}
			}
			if res.Feasible != wantOK {
				t.Fatalf("Feasible = %v, brute force says %v", res.Feasible, wantOK)
			}
			if wantOK {
				feasible++
				if res.Best != want {
					t.Fatalf("pick %v (QPS %v), brute force %v (QPS %v)", res.Best, res.BestQPS, want, qps[want])
				}
			} else {
				infeasible++
				maxRecall := 0.0
				for _, c := range all {
					maxRecall = math.Max(maxRecall, recall[c])
				}
				if res.BestRecall != maxRecall || recall[res.Best] != maxRecall {
					t.Fatalf("infeasible pick %v at recall %v, most accurate in the grid %v", res.Best, res.BestRecall, maxRecall)
				}
				if len(res.History) != len(all) {
					t.Fatalf("infeasible grid: %d of %d candidates measured", len(res.History), len(all))
				}
			}
			if res.BestQPS != qps[res.Best] || res.BestRecall != recall[res.Best] {
				t.Fatalf("pick %v reports QPS %v recall %v, want %v %v", res.Best, res.BestQPS, res.BestRecall, qps[res.Best], recall[res.Best])
			}

			h := res.History
			if len(h) != len(measured) {
				t.Fatalf("History has %d samples for %d distinct measured candidates", len(h), len(measured))
			}
			for i, s := range h {
				if measured[s.Cand] != 1 || s.QPS != qps[s.Cand] || s.Recall != recall[s.Cand] {
					t.Fatalf("History[%d] = %+v: measured %d times, want QPS %v recall %v", i, s, measured[s.Cand], qps[s.Cand], recall[s.Cand])
				}
				if i > 0 && s.QPS > h[i-1].QPS {
					t.Fatalf("History not in descending QPS: %v after %v", s.QPS, h[i-1].QPS)
				}
				if i < len(h)-1 && s.Recall >= floor {
					t.Fatalf("History[%d] meets the floor but the walk went on", i)
				}
			}
			if wantOK && h[len(h)-1].Cand != res.Best {
				t.Fatalf("History ends at %v, not at the pick %v", h[len(h)-1].Cand, res.Best)
			}
		})
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("seeds cover %d feasible and %d infeasible grids; want both", feasible, infeasible)
	}
}

func TestOptimizeInfeasibleSpace(t *testing.T) {
	space := Space{P: []int{1}, NList: []int{1024}, M: []int{8}, CB: []int{64}}
	qps := func(Candidate) (float64, error) { return 100, nil }
	recall := func(Candidate) (float64, error) { return 0.3, nil }
	res, err := Optimize(space, qps, recall, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("space is infeasible; result should say so")
	}
	if res.BestRecall != 0.3 {
		t.Fatalf("should return most accurate seen, got %v", res.BestRecall)
	}
}

func TestOptimizeEmptySpace(t *testing.T) {
	if _, err := Optimize(Space{}, nil, nil, 0.8); err == nil {
		t.Fatal("empty space must fail")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	space, qps, recall := synthProblem()
	a, err := Optimize(space, qps, recall, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(space, qps, recall, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best != b.Best {
		t.Fatalf("DSE not deterministic: %v vs %v", a.Best, b.Best)
	}
	for i := range a.History {
		if a.History[i].Cand != b.History[i].Cand {
			t.Fatal("evaluation order not deterministic")
		}
	}
}
