// Package kmeans provides the clustering used to train both the IVF coarse
// quantizer and the per-subspace PQ codebooks: k-means++ seeding followed by
// Lloyd iterations with parallel assignment and empty-cluster repair.
//
// Both parallel passes abandon distances early and stay bit for bit those of
// a serial, full evaluation. Every distance is summed in dimension order, so
// a completed one has the same bits; a partial sum only grows, so one
// abandoned above a bound (the best centroid so far, a point's current D²)
// could not have passed the strict < it was abandoned for. The D² refresh
// runs on disjoint ranges, and the sampling sum over D² stays serial, so
// seeding picks the same points on any number of workers.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"drimann/internal/vecmath"
)

// Config controls training.
type Config struct {
	K        int   // number of centroids; required
	Dim      int   // vector dimensionality; required
	MaxIters int   // Lloyd iterations; default 25
	Seed     int64 // RNG seed; default 1
	// Tol stops early when the relative inertia improvement falls below it;
	// default 1e-4.
	Tol float64
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
	if c.Tol <= 0 {
		c.Tol = 1e-4
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
		if prevInertia-inertia <= cfg.Tol*prevInertia {
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

// seedPlusPlus picks initial centroids with the k-means++ D² weighting.
func seedPlusPlus(data []float32, n int, cfg Config, rng *rand.Rand) []float32 {
	centroids := make([]float32, cfg.K*cfg.Dim)
	first := rng.Intn(n)
	copy(centroids[:cfg.Dim], data[first*cfg.Dim:(first+1)*cfg.Dim])

	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	refreshD2(data, centroids[:cfg.Dim], d2, cfg.Workers)
	for c := 1; c < cfg.K; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n) // all points coincide with a centroid
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
		refreshD2(data, dst, d2, cfg.Workers)
	}
	return centroids
}

// refreshD2 lowers each point's D² to its distance from the new centroid
// where that is smaller, across workers on disjoint ranges. A point's
// distance is abandoned once its partial sum passes the point's current D²,
// which is a float32 distance (or +Inf), so the bound converts exactly.
func refreshD2(data, centroid []float32, d2 []float64, workers int) {
	dim := len(centroid)
	forEachRange(len(d2), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := data[i*dim : (i+1)*dim]
			if d, _ := vecmath.L2SquaredF32Abandon(row, centroid, float32(d2[i])); float64(d) < d2[i] {
				d2[i] = float64(d)
			}
		}
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

// assignAll assigns every point to its nearest centroid in parallel and
// returns the summed squared distance.
func assignAll(data, centroids []float32, assign []int32, cfg Config) float64 {
	partial := make([]float64, cfg.Workers)
	forEachRange(len(assign), cfg.Workers, func(w, lo, hi int) {
		var acc float64
		for p := lo; p < hi; p++ {
			best, d := vecmath.ArgMinL2F32(data[p*cfg.Dim:(p+1)*cfg.Dim], centroids, cfg.Dim)
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
