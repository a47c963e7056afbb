// Package dse implements DRIM-ANN's approximation design space exploration
// (paper §4.1): over a grid of index parameters (P, nlist, M, CB) it picks
// the configuration with the best model-predicted throughput whose measured
// recall meets a floor.
//
// It deviates from §4.1 in how it searches. The paper models recall with a
// Gaussian process and picks each next candidate by expected hypervolume
// improvement (EHVI); a surrogate pays only when each recall measurement
// costs an index build at 10^8 points. Here throughput comes from the
// performance model, exact and cheap, so the constrained optimum over the
// grid is the first candidate, in descending model-QPS order, whose recall
// meets the floor: Optimize walks the grid in that order and stops there.
// Against the GP/EHVI search it replaced, on F12a's twelve (dataset, floor)
// rows: at drim-bench's default scale the walk picks the same configuration
// on all twelve, measuring 1-4 recalls per floor where the GP spent its
// budget of 10, and F12a takes 34-38 s instead of 88 s (2-core Xeon). At
// -small the GP missed the model optimum on 4 of 12 rows (SIFT 0.70/0.75/0.80
// at 1.48x/4.22x/2.68x lower model QPS, DEEP 0.80 at 3.99x lower) and called
// SPACEV 0.80 infeasible, although P=4 nlist=256 M=20 CB=64 meets it at 0.810.
package dse

import (
	"fmt"
	"sort"
)

// Candidate is one point of the design space: an index configuration
// (K is fixed by the application; the paper tunes it too, but recall@K with
// varying K is not comparable across candidates).
type Candidate struct {
	P     int // nprobe
	NList int // number of coarse clusters (determines C = N/NList)
	M     int // subvectors
	CB    int // codebook entries
}

func (c Candidate) String() string {
	return fmt.Sprintf("P=%d nlist=%d M=%d CB=%d", c.P, c.NList, c.M, c.CB)
}

// Space is the candidate grid.
type Space struct {
	P     []int
	NList []int
	M     []int
	CB    []int
}

// All enumerates the cartesian product.
func (s Space) All() []Candidate {
	var out []Candidate
	for _, p := range s.P {
		for _, nl := range s.NList {
			for _, m := range s.M {
				for _, cb := range s.CB {
					out = append(out, Candidate{P: p, NList: nl, M: m, CB: cb})
				}
			}
		}
	}
	return out
}

// Sample is one evaluated configuration.
type Sample struct {
	Cand   Candidate
	QPS    float64
	Recall float64
}

// Result reports the exploration outcome.
type Result struct {
	Best       Candidate
	BestQPS    float64
	BestRecall float64
	Feasible   bool
	// History holds the candidates whose recall was measured, in the order
	// of the walk: descending QPS, ending at Best when Feasible.
	History []Sample
}

// Optimize returns the candidate with the highest qpsFn whose recallFn is
// at least floor; a QPS tie goes to the candidate earlier in Space.All
// order. qpsFn prices every candidate and must be cheap (the performance
// model); recallFn is the expensive measurement and runs only down the QPS
// order until a candidate meets the floor. If none does, every candidate
// has been measured, Feasible is false and Best is the most accurate one.
func Optimize(space Space, qpsFn, recallFn func(Candidate) (float64, error), floor float64) (*Result, error) {
	cands := space.All()
	if len(cands) == 0 {
		return nil, fmt.Errorf("dse: empty design space")
	}
	walk := make([]Sample, len(cands))
	for i, c := range cands {
		q, err := qpsFn(c)
		if err != nil {
			return nil, fmt.Errorf("dse: qps(%v): %w", c, err)
		}
		walk[i] = Sample{Cand: c, QPS: q}
	}
	sort.SliceStable(walk, func(a, b int) bool { return walk[a].QPS > walk[b].QPS })

	res := &Result{}
	for i := range walk {
		s := &walk[i]
		r, err := recallFn(s.Cand)
		if err != nil {
			return nil, fmt.Errorf("dse: recall(%v): %w", s.Cand, err)
		}
		s.Recall = r
		res.History = walk[:i+1]
		if feasible := r >= floor; feasible || i == 0 || r > res.BestRecall {
			res.Best, res.BestQPS, res.BestRecall, res.Feasible = s.Cand, s.QPS, r, feasible
			if feasible {
				break
			}
		}
	}
	return res, nil
}
