package graph

import (
	"fmt"
	"testing"

	"drimann/internal/dataset"
)

// BenchmarkBuild times the graph build, the host-clock cost of the
// offline-graph workload's set-up, on a 128-d SIFT-shaped corpus: 5000
// points, and the workload's own 20000-point corpus (corpus seed 1).
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		n    int
		seed int64
	}{{5000, 3}, {20000, 1}} {
		base := dataset.SIFT(c.n, 1, c.seed).Base
		b.Run(fmt.Sprintf("n=%d", c.n), func(b *testing.B) {
			for b.Loop() {
				if _, err := New(base, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchBatch times one batch of traversals and their simulated
// charges on the same corpus under the default options.
func BenchmarkSearchBatch(b *testing.B) {
	s := dataset.SIFT(5000, 256, 3)
	e, err := New(s.Base, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, err := e.SearchBatch(s.Queries); err != nil {
			b.Fatal(err)
		}
	}
}
