package graph

import (
	"testing"

	"drimann/internal/dataset"
)

// BenchmarkBuild times the graph build, the host-clock cost of the
// offline-graph workload's set-up, on a 128-d SIFT-shaped corpus.
func BenchmarkBuild(b *testing.B) {
	base := dataset.SIFT(5000, 1, 3).Base
	for b.Loop() {
		if _, err := New(base, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
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
