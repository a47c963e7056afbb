package kmeans

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"drimann/internal/vecmath"
)

// BenchmarkRefreshD2 times one k-means++ D² refresh on one worker over the
// benchmark's training sample shape (8000 x 128), transposed. Every pass
// starts from the D² that 16 picks left, so the bounds are as tight as
// midway through a seeding, and refreshes it against the next of 16 other
// points.
func BenchmarkRefreshD2(b *testing.B) {
	const n, dim = 8000, 128
	rng := rand.New(rand.NewSource(5))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = rng.Float32()
	}
	pt := vecmath.Transpose8(data, dim)
	base := slices.Repeat([]float32{float32(math.Inf(1))}, len(pt)/dim)
	for c := 0; c < 16; c++ {
		p := rng.Intn(n)
		refreshD2(pt, data[p*dim:(p+1)*dim], base, 1)
	}
	d2 := make([]float32, len(base))
	for c := 0; b.Loop(); c++ {
		copy(d2, base)
		p := (c % 16) * 499
		refreshD2(pt, data[p*dim:(p+1)*dim], d2, 1)
	}
}

// BenchmarkSeedPQSubspace times the k-means++ seeding of one PQ subspace at
// the benchmark's shape: 8000 training points of 8 dimensions, 256
// centroids, one worker.
func BenchmarkSeedPQSubspace(b *testing.B) {
	const n, dim = 8000, 8
	rng := rand.New(rand.NewSource(7))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = rng.Float32() * 64
	}
	cfg := Config{K: 256, Dim: dim, Workers: 1}
	for b.Loop() {
		seedPlusPlus(data, n, cfg, rand.New(rand.NewSource(1)))
	}
}
