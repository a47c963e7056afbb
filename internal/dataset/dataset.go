// Package dataset provides the vector corpora DRIM-ANN is evaluated on.
//
// The paper uses public billion/hundred-million-scale sets (SIFT, DEEP,
// SPACEV, T2I — Table 1). Those are too large to ship or to search on a
// laptop, so this package generates synthetic corpora with the same shape:
// the dimension and dtype of each named dataset, clustered structure
// (Gaussian mixture), Zipf-skewed cluster popularity, and query sets skewed
// toward hot clusters — the property that drives the paper's load-balancing
// experiments. Real fvecs/bvecs/ivecs files are also supported for users who
// have the originals on disk.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"drimann/internal/topk"
	"drimann/internal/vecmath"
)

// U8Set is a flat corpus of N uint8 vectors of dimension D, the native
// storage of the PIM path (everything is 8-bit quantized, as in the paper's
// experiments).
type U8Set struct {
	N, D int
	Data []uint8
}

// Vec returns row i as a slice view.
func (s U8Set) Vec(i int) []uint8 { return s.Data[i*s.D : (i+1)*s.D] }

// F32Set is a flat corpus of N float32 vectors of dimension D.
type F32Set struct {
	N, D int
	Data []float32
}

// Quantize maps the set onto the uint8 grid with a fitted affine quantizer,
// mirroring the paper's "DEEP100M is quantified to uint8" step.
func (s F32Set) Quantize() (U8Set, vecmath.Quantizer) {
	q := vecmath.FitQuantizer(s.Data)
	return U8Set{N: s.N, D: s.D, Data: q.EncodeAll(s.Data)}, q
}

// SynthConfig describes a synthetic corpus.
type SynthConfig struct {
	Name        string  // informational
	N           int     // number of base vectors
	D           int     // dimensionality
	NumQueries  int     // number of query vectors
	NumClusters int     // latent mixture components; default max(16, N/2000)
	ZipfS       float64 // cluster-popularity skew (>1); default 1.3
	Noise       float64 // per-dimension Gaussian sigma; default 12
	QuerySkew   float64 // fraction of queries drawn from the hot cluster mass; default 0.8
	Seed        int64   // RNG seed; default 1
	// IntrinsicDim is the rank of each cluster's noise subspace. Real
	// embedding corpora (SIFT, DEEP) have low intrinsic dimension, which is
	// what makes nearest-neighbor ranking resolvable by product quantizers;
	// isotropic full-rank noise would not. Default min(D, 12).
	IntrinsicDim int
	// Hotspots > 0 concentrates the skewed query mass around this many
	// anchor points (trending/repeated queries, as in recommendation and
	// RAG workloads): those queries repeatedly probe the same few clusters
	// regardless of nlist, the condition that makes load balancing matter.
	// 0 disables hotspots (skewed queries still favor hot clusters).
	Hotspots int
	// HotspotNoise is the perturbation sigma around an anchor; default
	// Noise/4.
	HotspotNoise float64
}

func (c *SynthConfig) defaults() {
	if c.NumClusters <= 0 {
		c.NumClusters = c.N / 2000
		if c.NumClusters < 16 {
			c.NumClusters = 16
		}
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.3
	}
	if c.Noise <= 0 {
		c.Noise = 12
	}
	if c.QuerySkew <= 0 || c.QuerySkew > 1 {
		c.QuerySkew = 0.8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NumQueries <= 0 {
		c.NumQueries = 1000
	}
	if c.IntrinsicDim <= 0 {
		c.IntrinsicDim = 12
	}
	if c.IntrinsicDim > c.D {
		c.IntrinsicDim = c.D
	}
	if c.HotspotNoise <= 0 {
		c.HotspotNoise = c.Noise / 4
	}
}

// Synth holds a generated corpus plus its query set and generation metadata.
type Synth struct {
	Config  SynthConfig
	Base    U8Set
	Queries U8Set
	// ClusterOfBase records the latent component of each base vector —
	// useful for tests, not consumed by the engine.
	ClusterOfBase []int32
}

// Generate builds a synthetic clustered corpus. Cluster sizes follow a Zipf
// law (rank-popularity), points are Gaussian around uniformly placed centers,
// and queries preferentially target popular clusters (QuerySkew of the query
// mass goes to clusters proportional to popularity²  — a heavier skew than
// the base distribution, as real query logs exhibit).
func Generate(cfg SynthConfig) *Synth {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Cluster popularity ~ Zipf over ranks.
	weights := make([]float64, cfg.NumClusters)
	var wsum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), cfg.ZipfS)
		wsum += weights[i]
	}
	for i := range weights {
		weights[i] /= wsum
	}

	// Centers uniform in [48, 207]^D so +-4 sigma of noise rarely clips.
	centers := make([]float64, cfg.NumClusters*cfg.D)
	for i := range centers {
		centers[i] = 48 + rng.Float64()*159
	}

	// Per-cluster low-rank noise basis: D x r with unit-variance rows, so
	// points spread with per-dimension sigma ~ Noise inside an r-dimensional
	// subspace (low intrinsic dimension, like real embeddings).
	r := cfg.IntrinsicDim
	bases := make([]float64, cfg.NumClusters*cfg.D*r)
	norm := 1 / math.Sqrt(float64(r))
	for i := range bases {
		bases[i] = rng.NormFloat64() * norm
	}
	z := make([]float64, r)
	sample := func(c int, sigma float64, dst []uint8) {
		cen := centers[c*cfg.D : (c+1)*cfg.D]
		basis := bases[c*cfg.D*r : (c+1)*cfg.D*r]
		for k := 0; k < r; k++ {
			z[k] = rng.NormFloat64() * sigma
		}
		for j := 0; j < cfg.D; j++ {
			v := cen[j]
			rowB := basis[j*r : (j+1)*r]
			for k := 0; k < r; k++ {
				v += rowB[k] * z[k]
			}
			dst[j] = clampU8(v)
		}
	}

	sizes := apportion(weights, cfg.N, rng)

	base := U8Set{N: cfg.N, D: cfg.D, Data: make([]uint8, cfg.N*cfg.D)}
	clusterOf := make([]int32, cfg.N)
	row := 0
	for c, sz := range sizes {
		for i := 0; i < sz; i++ {
			sample(c, cfg.Noise, base.Data[row*cfg.D:(row+1)*cfg.D])
			clusterOf[row] = int32(c)
			row++
		}
	}

	// Query distribution: with probability QuerySkew pick a cluster by
	// popularity² (renormalized); otherwise uniformly. Queries sit slightly
	// off-center (noise * 1.1) so exact duplicates are rare.
	hotWeights := make([]float64, cfg.NumClusters)
	var hsum float64
	for i, w := range weights {
		hotWeights[i] = w * w
		hsum += hotWeights[i]
	}
	for i := range hotWeights {
		hotWeights[i] /= hsum
	}
	// Hotspot anchors: concrete base vectors, drawn from ordinary-sized
	// clusters (at most 2x the mean population). Zipf head clusters can hold
	// a large share of the corpus; anchoring queries inside them would make
	// their true neighbors arbitrarily dense as N grows, conflating query
	// skew with quantizer resolution.
	var anchors []int
	if cfg.Hotspots > 0 {
		meanSize := cfg.N / cfg.NumClusters
		for len(anchors) < cfg.Hotspots {
			p := rng.Intn(cfg.N)
			if sizes[clusterOf[p]] > 2*meanSize {
				continue
			}
			anchors = append(anchors, p)
		}
	}

	queries := U8Set{N: cfg.NumQueries, D: cfg.D, Data: make([]uint8, cfg.NumQueries*cfg.D)}
	for qi := 0; qi < cfg.NumQueries; qi++ {
		dst := queries.Data[qi*cfg.D : (qi+1)*cfg.D]
		if rng.Float64() < cfg.QuerySkew {
			if len(anchors) > 0 {
				anchor := base.Vec(anchors[rng.Intn(len(anchors))])
				for j := 0; j < cfg.D; j++ {
					dst[j] = clampU8(float64(anchor[j]) + rng.NormFloat64()*cfg.HotspotNoise)
				}
				continue
			}
			sample(pick(hotWeights, rng), cfg.Noise*1.1, dst)
			continue
		}
		sample(rng.Intn(cfg.NumClusters), cfg.Noise*1.1, dst)
	}

	return &Synth{Config: cfg, Base: base, Queries: queries, ClusterOfBase: clusterOf}
}

// apportion converts fractional weights into integer sizes summing to n, with
// every cluster getting at least one point when n >= len(weights).
func apportion(weights []float64, n int, rng *rand.Rand) []int {
	k := len(weights)
	sizes := make([]int, k)
	assigned := 0
	for i, w := range weights {
		sizes[i] = int(w * float64(n))
		if sizes[i] == 0 && n >= k {
			sizes[i] = 1
		}
		assigned += sizes[i]
	}
	for assigned > n {
		i := rng.Intn(k)
		if sizes[i] > 1 {
			sizes[i]--
			assigned--
		}
	}
	for assigned < n {
		sizes[pick(weights, rng)]++
		assigned++
	}
	return sizes
}

func pick(weights []float64, rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if r <= acc {
			return i
		}
	}
	return len(weights) - 1
}

func clampU8(x float64) uint8 {
	v := math.Round(x)
	if v < 0 {
		v = 0
	}
	if v > 255 {
		v = 255
	}
	return uint8(v)
}

// Named dataset presets matching Table 1 shapes at a reduced scale.
// The scale parameter multiplies the default base size (100k vectors).

// SIFT generates a synthetic corpus with SIFT's shape (128-dim uint8).
func SIFT(n, queries int, seed int64) *Synth {
	return Generate(SynthConfig{Name: "SIFT", N: n, D: 128, NumQueries: queries, Seed: seed})
}

// DEEP generates a synthetic corpus with DEEP's shape (96-dim, quantized
// uint8 as in the paper's experiments).
func DEEP(n, queries int, seed int64) *Synth {
	return Generate(SynthConfig{Name: "DEEP", N: n, D: 96, NumQueries: queries, Seed: seed})
}

// SPACEV generates a synthetic corpus with SPACEV's shape (100-dim).
func SPACEV(n, queries int, seed int64) *Synth {
	return Generate(SynthConfig{Name: "SPACEV", N: n, D: 100, NumQueries: queries, Seed: seed})
}

// T2I generates a synthetic corpus with T2I's shape (200-dim).
func T2I(n, queries int, seed int64) *Synth {
	return Generate(SynthConfig{Name: "T2I", N: n, D: 200, NumQueries: queries, Seed: seed})
}

// TableEntry describes a dataset row of the paper's Table 1.
type TableEntry struct {
	Name    string
	Vectors int64
	Dim     int
}

// Table1 returns the paper's dataset inventory (full-scale declared sizes).
func Table1() []TableEntry {
	return []TableEntry{
		{Name: "ST1B (SIFT1B)", Vectors: 1_000_000_000, Dim: 128},
		{Name: "DP1B (DEEP1B)", Vectors: 1_000_000_000, Dim: 96},
		{Name: "SV1B (SPACEV1B)", Vectors: 1_000_000_000, Dim: 100},
		{Name: "T2I1B", Vectors: 1_000_000_000, Dim: 200},
		{Name: "ST100M (SIFT100M)", Vectors: 100_000_000, Dim: 128},
		{Name: "DP100M (DEEP100M)", Vectors: 100_000_000, Dim: 96},
	}
}

// GroundTruth computes exact top-k neighbors (integer L2, deterministic
// tie-break) for each query by parallel brute force.
func GroundTruth(base, queries U8Set, k, workers int) [][]int32 {
	if base.D != queries.D {
		panic(fmt.Sprintf("dataset: dim mismatch base=%d queries=%d", base.D, queries.D))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([][]int32, queries.N)
	var wg sync.WaitGroup
	chunk := (queries.N + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > queries.N {
			hi = queries.N
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for qi := lo; qi < hi; qi++ {
				q := queries.Vec(qi)
				h := topk.NewHeap[uint32](k)
				for i := 0; i < base.N; i++ {
					d := vecmath.L2SquaredU8(q, base.Vec(i))
					if h.WouldAccept(int32(i), d) {
						h.Push(int32(i), d)
					}
				}
				items := h.Sorted()
				ids := make([]int32, len(items))
				for j, it := range items {
					ids[j] = it.ID
				}
				out[qi] = ids
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// Recall computes mean recall@k: the fraction of the true top-k found in the
// returned top-k, averaged over queries.
func Recall(gt, got [][]int32, k int) float64 {
	if len(gt) != len(got) {
		panic("dataset: recall length mismatch")
	}
	if len(gt) == 0 {
		return 0
	}
	var total float64
	for qi := range gt {
		truth := gt[qi]
		if len(truth) > k {
			truth = truth[:k]
		}
		res := got[qi]
		if len(res) > k {
			res = res[:k]
		}
		set := make(map[int32]struct{}, len(truth))
		for _, id := range truth {
			set[id] = struct{}{}
		}
		hits := 0
		for _, id := range res {
			if _, ok := set[id]; ok {
				hits++
			}
		}
		if len(truth) > 0 {
			total += float64(hits) / float64(len(truth))
		}
	}
	return total / float64(len(gt))
}
