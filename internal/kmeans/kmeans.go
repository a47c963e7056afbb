// Package kmeans provides the clustering used to train both the IVF coarse
// quantizer and the per-subspace PQ codebooks: k-means++ seeding followed by
// Lloyd iterations with parallel assignment and empty-cluster repair.
//
// Both parallel passes stay bit for bit those of a serial, full evaluation,
// though they may abandon distances. Every distance is summed in dimension
// order, so a completed one has the same bits; a partial sum only grows, so
// one abandoned above a bound (the best centroid so far, a point's current
// D²) could not have passed the strict < it was abandoned for. The D²
// refresh runs on disjoint ranges, and the sampling sum over D² stays
// serial, so seeding picks the same points on any number of workers.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"drimann/internal/vecmath"
)

// tol stops the Lloyd iterations early once the relative inertia improvement
// falls to it.
const tol = 1e-4

// Config controls training.
type Config struct {
	K        int   // number of centroids; required
	Dim      int   // vector dimensionality; required
	MaxIters int   // Lloyd iterations; default 25
	Seed     int64 // RNG seed; default 1
	// Workers bounds assignment parallelism; default runtime.GOMAXPROCS(0).
	Workers int
}

func (c *Config) defaults() {
	if c.MaxIters <= 0 {
		c.MaxIters = 25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Result holds a trained clustering.
type Result struct {
	K, Dim    int
	Centroids []float32 // flat K x Dim
	Assign    []int32   // len N: cluster index per input point
	Sizes     []int     // len K: points per cluster
	Inertia   float64   // final sum of squared distances
	Iters     int       // Lloyd iterations actually run
}

// Train clusters the flat data (N x cfg.Dim) into cfg.K clusters.
func Train(data []float32, cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.Dim <= 0 || cfg.K <= 0 {
		return nil, fmt.Errorf("kmeans: invalid config K=%d Dim=%d", cfg.K, cfg.Dim)
	}
	if len(data)%cfg.Dim != 0 {
		return nil, fmt.Errorf("kmeans: data length %d not a multiple of dim %d", len(data), cfg.Dim)
	}
	n := len(data) / cfg.Dim
	if n < cfg.K {
		return nil, fmt.Errorf("kmeans: %d points < K=%d", n, cfg.K)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	centroids := seedPlusPlus(data, n, cfg, rng)
	assign := make([]int32, n)
	prevInertia := math.Inf(1)
	iters := 0

	for it := 0; it < cfg.MaxIters; it++ {
		iters = it + 1
		inertia := assignAll(data, centroids, assign, cfg)
		updateCentroids(data, centroids, assign, cfg, rng)
		if prevInertia-inertia <= tol*prevInertia {
			break
		}
		prevInertia = inertia
	}
	// Final assignment so Assign/Sizes reflect the returned centroids.
	inertia := assignAll(data, centroids, assign, cfg)

	sizes := make([]int, cfg.K)
	for _, a := range assign {
		sizes[a]++
	}
	return &Result{
		K: cfg.K, Dim: cfg.Dim,
		Centroids: centroids,
		Assign:    assign,
		Sizes:     sizes,
		Inertia:   inertia,
		Iters:     iters,
	}, nil
}

// seedPlusPlus picks initial centroids with the k-means++ D² weighting. D²
// stays float32, every entry a float32 distance or +Inf, over the points
// transposed; the serial total pass fills float64 prefix sums, which never
// decrease, so the first one at or above the draw is the linear scan's pick.
func seedPlusPlus(data []float32, n int, cfg Config, rng *rand.Rand) []float32 {
	centroids := make([]float32, cfg.K*cfg.Dim)
	first := rng.Intn(n)
	copy(centroids[:cfg.Dim], data[first*cfg.Dim:(first+1)*cfg.Dim])

	pt := vecmath.Transpose8(data, cfg.Dim)
	d2 := slices.Repeat([]float32{float32(math.Inf(1))}, len(pt)/cfg.Dim)
	refreshD2(pt, centroids[:cfg.Dim], d2, cfg.Workers)
	prefix := make([]float64, n)
	for c := 1; c < cfg.K; c++ {
		var total float64
		for i, d := range d2[:n] {
			total += float64(d)
			prefix[i] = total
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n) // all points coincide with a centroid
		} else {
			pick = min(sort.SearchFloat64s(prefix, rng.Float64()*total), n-1)
		}
		dst := centroids[c*cfg.Dim : (c+1)*cfg.Dim]
		copy(dst, data[pick*cfg.Dim:(pick+1)*cfg.Dim])
		refreshD2(pt, dst, d2, cfg.Workers)
	}
	return centroids
}

// refreshD2 lowers each point's D² to its distance from the new centroid
// where that is smaller, across workers on disjoint ranges of whole pairs of
// blocks of pt, the points as vecmath.Transpose8 lays them out.
func refreshD2(pt, centroid, d2 []float32, workers int) {
	dim := len(centroid)
	forEachRange(len(d2)/16, workers, func(_, lo, hi int) {
		vecmath.MinL2F32T(d2[lo*16:hi*16], pt[lo*16*dim:hi*16*dim], centroid)
	})
}

// forEachRange splits [0, count) into one contiguous range per worker and
// runs f on each in its own goroutine; w is the worker's index.
func forEachRange(count, workers int, f func(w, lo, hi int)) {
	if workers > count {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (count + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, count)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w, lo, hi)
		}()
	}
	wg.Wait()
}

// assignAll assigns every point to its nearest centroid in parallel, over a
// transposed copy of the centroids, and returns the summed squared distance.
func assignAll(data, centroids []float32, assign []int32, cfg Config) float64 {
	ct := vecmath.Transpose8(centroids, cfg.Dim)
	partial := make([]float64, cfg.Workers)
	forEachRange(len(assign), cfg.Workers, func(w, lo, hi int) {
		var acc float64
		for p := lo; p < hi; p++ {
			best, d := vecmath.ArgMinL2F32T(data[p*cfg.Dim:(p+1)*cfg.Dim], ct, cfg.Dim)
			assign[p] = int32(best)
			acc += float64(d)
		}
		partial[w] = acc
	})
	var inertia float64
	for _, p := range partial {
		inertia += p
	}
	return inertia
}

// updateCentroids recomputes centroids as the mean of their members and
// repairs empty clusters by re-seeding them on the point farthest from its
// centroid.
func updateCentroids(data, centroids []float32, assign []int32, cfg Config, rng *rand.Rand) {
	sums := make([]float64, cfg.K*cfg.Dim)
	counts := make([]int, cfg.K)
	for p, c := range assign {
		row := data[p*cfg.Dim : (p+1)*cfg.Dim]
		dst := sums[int(c)*cfg.Dim : (int(c)+1)*cfg.Dim]
		for j, x := range row {
			dst[j] += float64(x)
		}
		counts[c]++
	}
	for c := 0; c < cfg.K; c++ {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		dst := centroids[c*cfg.Dim : (c+1)*cfg.Dim]
		src := sums[c*cfg.Dim : (c+1)*cfg.Dim]
		for j := range dst {
			dst[j] = float32(src[j] * inv)
		}
	}
	// Empty-cluster repair: re-seed on the member farthest from its centroid
	// within the currently largest cluster.
	for c := 0; c < cfg.K; c++ {
		if counts[c] > 0 {
			continue
		}
		big := 0
		for k := range counts {
			if counts[k] > counts[big] {
				big = k
			}
		}
		worst, worstD := -1, float32(-1)
		limit := len(assign)
		for p := 0; p < limit; p++ {
			if int(assign[p]) != big {
				continue
			}
			d := vecmath.L2SquaredF32(data[p*cfg.Dim:(p+1)*cfg.Dim], centroids[big*cfg.Dim:(big+1)*cfg.Dim])
			if d > worstD {
				worst, worstD = p, d
			}
		}
		if worst < 0 {
			worst = rng.Intn(len(assign))
		}
		copy(centroids[c*cfg.Dim:(c+1)*cfg.Dim], data[worst*cfg.Dim:(worst+1)*cfg.Dim])
		assign[worst] = int32(c)
		counts[c]++
		counts[big]--
	}
}
