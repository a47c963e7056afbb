package dataset

import "testing"

// BenchmarkGroundTruth times the exact scan at the benchmark's corpus shape,
// 500 SIFT-shaped queries against 32 000 128-d rows, top 10, on one worker.
func BenchmarkGroundTruth(b *testing.B) {
	s := SIFT(32000, 500, 1)
	for b.Loop() {
		GroundTruth(s.Base, s.Queries, 10, 1)
	}
}
