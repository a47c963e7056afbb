package kmeans

import (
	"math"
	"math/rand"
	"testing"
)

// BenchmarkRefreshD2 times one k-means++ D² refresh on one worker over the
// benchmark's training sample shape (8000 x 128). Every pass starts from the
// D² that 16 picks left, so the bounds are as tight as midway through a
// seeding, and refreshes it against the next of 16 other points.
func BenchmarkRefreshD2(b *testing.B) {
	const n, dim = 8000, 128
	rng := rand.New(rand.NewSource(5))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = rng.Float32()
	}
	base := make([]float64, n)
	for i := range base {
		base[i] = math.Inf(1)
	}
	for c := 0; c < 16; c++ {
		p := rng.Intn(n)
		refreshD2(data, data[p*dim:(p+1)*dim], base, 1)
	}
	d2 := make([]float64, n)
	for c := 0; b.Loop(); c++ {
		copy(d2, base)
		p := (c % 16) * 499
		refreshD2(data, data[p*dim:(p+1)*dim], d2, 1)
	}
}
