package kmeans

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"drimann/internal/vecmath"
)

// blobs generates k well-separated Gaussian blobs with n points each.
func blobs(rng *rand.Rand, k, n, dim int, sep float64) ([]float32, []int32) {
	data := make([]float32, 0, k*n*dim)
	labels := make([]int32, 0, k*n)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = float64(c) * sep
		}
	}
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			for j := 0; j < dim; j++ {
				data = append(data, float32(centers[c][j]+rng.NormFloat64()*0.5))
			}
			labels = append(labels, int32(c))
		}
	}
	return data, labels
}

func TestTrainRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data, labels := blobs(rng, 4, 100, 8, 20)
	res, err := Train(data, Config{K: 4, Dim: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// All points from one blob must land in one cluster (perfect separation).
	mapping := map[int32]int32{}
	for i, lab := range labels {
		got := res.Assign[i]
		if want, ok := mapping[lab]; ok {
			if got != want {
				t.Fatalf("blob %d split across clusters %d and %d", lab, want, got)
			}
		} else {
			mapping[lab] = got
		}
	}
	if len(mapping) != 4 {
		t.Fatalf("expected 4 distinct clusters, got %d", len(mapping))
	}
}

func TestTrainInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data, _ := blobs(rng, 3, 50, 4, 10)
	res, err := Train(data, Config{K: 5, Dim: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := len(data) / 4
	if len(res.Assign) != n {
		t.Fatalf("Assign length %d, want %d", len(res.Assign), n)
	}
	total := 0
	for c, s := range res.Sizes {
		if s < 0 {
			t.Fatalf("negative cluster size at %d", c)
		}
		total += s
	}
	if total != n {
		t.Fatalf("sizes sum %d, want %d", total, n)
	}
	for i, a := range res.Assign {
		if a < 0 || int(a) >= res.K {
			t.Fatalf("assignment %d out of range at %d", a, i)
		}
	}
	if res.Inertia < 0 || math.IsNaN(res.Inertia) {
		t.Fatalf("bad inertia %v", res.Inertia)
	}
}

func TestTrainAssignsNearestCentroid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data, _ := blobs(rng, 3, 60, 6, 15)
	res, err := Train(data, Config{K: 3, Dim: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(res.Assign); i++ {
		vec := data[i*6 : (i+1)*6]
		best, bestDist := 0, float32(math.MaxFloat32)
		for c := range 3 {
			if d := vecmath.L2SquaredF32(vec, res.Centroids[c*6:(c+1)*6]); d < bestDist {
				best, bestDist = c, d
			}
		}
		if int32(best) != res.Assign[i] {
			t.Fatalf("point %d assigned to %d but nearest centroid is %d", i, res.Assign[i], best)
		}
	}
}

func TestTrainDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data, _ := blobs(rng, 2, 40, 4, 8)
	a, err := Train(data, Config{K: 2, Dim: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, Config{K: 2, Dim: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatalf("non-deterministic centroid at %d", i)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train([]float32{1, 2, 3}, Config{K: 2, Dim: 2}); err == nil {
		t.Fatal("expected error for ragged data")
	}
	if _, err := Train([]float32{1, 2}, Config{K: 3, Dim: 2}); err == nil {
		t.Fatal("expected error for n < K")
	}
	if _, err := Train(nil, Config{K: 0, Dim: 2}); err == nil {
		t.Fatal("expected error for K=0")
	}
}

func TestTrainHandlesDuplicatePoints(t *testing.T) {
	// All points identical: K clusters must still be produced without NaNs.
	data := make([]float32, 20*3)
	for i := range data {
		data[i] = 7
	}
	res, err := Train(data, Config{K: 4, Dim: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Centroids {
		if math.IsNaN(float64(c)) {
			t.Fatal("NaN centroid on degenerate input")
		}
	}
}

func TestInertiaDecreasesVsRandomCentroids(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, _ := blobs(rng, 4, 80, 8, 12)
	res, err := Train(data, Config{K: 4, Dim: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Inertia with random centroids (first 4 points) must be much worse.
	randCent := make([]float32, 4*8)
	copy(randCent, data[:4*8])
	assign := make([]int32, len(data)/8)
	cfg := Config{Dim: 8, Workers: 2}
	cfg.defaults()
	randInertia := assignAll(data, randCent, assign, cfg)
	if res.Inertia >= randInertia {
		t.Fatalf("trained inertia %v not better than naive %v", res.Inertia, randInertia)
	}
}

// TestRefreshD2MatchesSerial: the parallel, abandoning D² refresh leaves
// every point's D² with the bits the serial full evaluation leaves, over a
// run of centroids, at dimensions on both sides of the abandon stride and on
// any number of workers; integer-valued points make equal distances common.
func TestRefreshD2MatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dim := range []int{1, 3, 8, 17, 33, 128} {
		const n = 301
		data := make([]float32, n*dim)
		for i := range data {
			data[i] = float32(rng.Intn(5))
		}
		pt := vecmath.Transpose8(data, dim)
		for _, workers := range []int{1, 2, 3, 8} {
			want := make([]float32, n)
			got := slices.Repeat([]float32{float32(math.Inf(1))}, len(pt)/dim)
			for c := 0; c < 12; c++ {
				p := rng.Intn(n)
				cent := data[p*dim : (p+1)*dim]
				for i := range want {
					if d := vecmath.L2SquaredF32(data[i*dim:(i+1)*dim], cent); c == 0 || d < want[i] {
						want[i] = d
					}
				}
				refreshD2(pt, cent, got, workers)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("dim %d workers %d centroid %d point %d: D² %v, serial %v", dim, workers, c, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestRefreshD2OnKernelShapes: at every dimension the D² kernel is held to
// (both sides of a block's eight lanes and of the abandon stride, 96 and
// 128), on uniform, integer-grid and overflowing (+Inf distance) points, with
// point counts that leave padding past the last pair of blocks, the refresh
// leaves the serial bits when a point's current D² is +Inf, 0, just under, at
// or just over its distance to the centroid, or its distance over the first
// stride: lanes of one pass abandon while others run to the end.
func TestRefreshD2OnKernelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	dims := []int{1, 2, 7, 8, 9, 15, 16, 17, 24, 31, 33, 96, 128}
	for _, dim := range dims {
		const n = 77
		data := make([]float32, n*dim)
		for kind := 0; kind < 3; kind++ {
			for i := range data {
				switch kind {
				case 0:
					data[i] = rng.Float32() * 10
				case 1:
					data[i] = float32(rng.Intn(3))
				default:
					data[i] = float32(rng.Intn(3)-1) * 1e19
				}
			}
			pt := vecmath.Transpose8(data, dim)
			cent := data[rng.Intn(n)*dim:][:dim]
			start := slices.Repeat([]float32{float32(math.Inf(1))}, len(pt)/dim)
			want := slices.Clone(start)
			for i := range n {
				row := data[i*dim : (i+1)*dim]
				d := vecmath.L2SquaredF32(row, cent)
				head := min(dim, vecmath.AbandonStride)
				start[i] = []float32{
					float32(math.Inf(1)), 0, d,
					math.Nextafter32(d, 0), math.Nextafter32(d, float32(math.Inf(1))),
					vecmath.L2SquaredF32(row[:head], cent[:head]),
				}[rng.Intn(6)]
				want[i] = min(start[i], d)
			}
			for _, workers := range []int{1, 3} {
				got := slices.Clone(start)
				refreshD2(pt, cent, got, workers)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("dim %d draw %d workers %d point %d from %v: D² %v, serial %v", dim, kind, workers, i, start[i], got[i], want[i])
					}
				}
			}
		}
	}
}

// refSeedPlusPlus is the k-means++ seeding the index was built with before
// D² moved to float32 and the pick to a binary search: float64 D², refreshed
// by a full serial L2SquaredF32 a point, summed serially, and the pick the
// first point whose running sum reaches the draw, found by a linear scan.
func refSeedPlusPlus(data []float32, n int, cfg Config, rng *rand.Rand) []float32 {
	centroids := make([]float32, cfg.K*cfg.Dim)
	first := rng.Intn(n)
	copy(centroids[:cfg.Dim], data[first*cfg.Dim:(first+1)*cfg.Dim])
	d2 := slices.Repeat([]float64{math.Inf(1)}, n)
	refresh := func(cent []float32) {
		for i := range d2 {
			d2[i] = math.Min(d2[i], float64(vecmath.L2SquaredF32(data[i*cfg.Dim:(i+1)*cfg.Dim], cent)))
		}
	}
	refresh(centroids[:cfg.Dim])
	for c := 1; c < cfg.K; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
		}
		dst := centroids[c*cfg.Dim : (c+1)*cfg.Dim]
		copy(dst, data[pick*cfg.Dim:(pick+1)*cfg.Dim])
		refresh(dst)
	}
	return centroids
}

// TestSeedingMatchesLinearScan: the float32 D² and the binary-search pick
// choose refSeedPlusPlus's centroids, bit for bit, at the PQ subspace's 8
// and the coarse quantizer's 128 dimensions, on point counts that fill whole
// pairs of blocks and that leave padding, on one worker and two; and on a
// corpus of one repeated point, whose D² total is 0 after the first pick.
func TestSeedingMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, sh := range []struct{ n, dim, k int }{{8000, 8, 256}, {8003, 8, 256}, {8000, 128, 48}, {8003, 128, 48}, {301, 8, 40}} {
		data := make([]float32, sh.n*sh.dim)
		for i := range data {
			data[i] = float32(rng.Intn(64))
		}
		if sh.n == 301 { // every point the same: D² sums to 0
			for i := range data {
				data[i] = data[i%sh.dim]
			}
		}
		want := refSeedPlusPlus(data, sh.n, Config{K: sh.k, Dim: sh.dim}, rand.New(rand.NewSource(3)))
		for _, workers := range []int{1, 2} {
			got := seedPlusPlus(data, sh.n, Config{K: sh.k, Dim: sh.dim, Workers: workers}, rand.New(rand.NewSource(3)))
			if !slices.EqualFunc(got, want, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
				t.Fatalf("n %d dim %d workers %d: seeds differ from the linear scan's", sh.n, sh.dim, workers)
			}
		}
	}
}

// TestSeedingSameOnAnyWorkerCount: k-means++ picks the same centroids
// whatever the number of workers refreshing D² between two picks.
func TestSeedingSameOnAnyWorkerCount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data, _ := blobs(rng, 6, 70, 12, 3)
	n := len(data) / 12
	var ref []float32
	for _, workers := range []int{1, 2, 3, 7} {
		cfg := Config{K: 40, Dim: 12, Workers: workers}
		got := seedPlusPlus(data, n, cfg, rand.New(rand.NewSource(4)))
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
				t.Fatalf("workers %d: seed entry %d is %v, on one worker %v", workers, i, got[i], ref[i])
			}
		}
	}
}
