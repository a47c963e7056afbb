// Package ivf implements the cluster-based (inverted file) index with
// product quantization that both the CPU baseline and the DRIM-ANN PIM
// engine consume: a coarse k-means quantizer over the corpus, per-cluster
// inverted lists of PQ codes, and two search paths —
//
//   - Search: the float32 host path, structured like Faiss's IVFADC
//     (cluster locating, residual, LUT construction, distance scan, top-k);
//   - SearchInt: the integer path that is arithmetic-identical to the PIM
//     kernels (uint8 centroids, int16 residuals, SQT-able LUTs, uint32
//     accumulation), so engine results can be compared bit-for-bit.
package ivf

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"sync"

	"drimann/internal/dataset"
	"drimann/internal/kmeans"
	"drimann/internal/pq"
	"drimann/internal/sqt"
	"drimann/internal/topk"
	"drimann/internal/vecmath"
)

// BuildConfig controls index construction.
type BuildConfig struct {
	NList int // number of coarse clusters (the paper's nlist)
	PQ    pq.Config
	// Variant selects the quantizer family: "pq" (default), "opq", or "dpq".
	Variant string
	// KMeansIters bounds coarse-quantizer training; default 20.
	KMeansIters int
	// TrainSample caps vectors used for training both quantizers; 0 = all.
	TrainSample int
	Seed        int64
	Workers     int
}

func (c *BuildConfig) defaults() {
	if c.KMeansIters <= 0 {
		c.KMeansIters = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Variant == "" {
		c.Variant = "pq"
	}
}

// Index is a built IVF-PQ index over a uint8 corpus.
type Index struct {
	Dim, NList int
	M, CB      int

	Centroids   []float32 // NList x Dim, float path
	CentroidsU8 []uint8   // NList x Dim, integer path (rounded)

	PQ    *pq.Quantizer
	IntCB pq.IntCodebooks
	OPQ   *pq.OPQ // non-nil for the "opq" variant

	// Lists[c] holds the base-vector ids of cluster c; Codes[c] holds their
	// PQ codes back-to-back (len(Lists[c]) * M entries).
	Lists [][]int32
	Codes [][]uint16

	SQT *sqt.SQT8

	// mut is the live-mutation overlay (append segments + tombstones),
	// nil until the first Insert/Delete and after every Compact. See
	// mutable.go.
	mut *mutState
}

// Build trains the coarse quantizer and PQ codebooks and encodes the corpus.
func Build(base dataset.U8Set, cfg BuildConfig) (*Index, error) {
	cfg.defaults()
	if base.N == 0 {
		return nil, fmt.Errorf("ivf: empty corpus")
	}
	if cfg.NList <= 0 || cfg.NList > base.N {
		return nil, fmt.Errorf("ivf: NList=%d invalid for %d vectors", cfg.NList, base.N)
	}
	// Training sample: stride-sampled so it covers the whole corpus even
	// when vectors are stored in clustered order (taking a prefix would
	// train the quantizers on a single region).
	trainIdx := make([]int, 0, base.N)
	if cfg.TrainSample > 0 && cfg.TrainSample < base.N {
		stride := base.N / cfg.TrainSample
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < base.N && len(trainIdx) < cfg.TrainSample; i += stride {
			trainIdx = append(trainIdx, i)
		}
	} else {
		for i := 0; i < base.N; i++ {
			trainIdx = append(trainIdx, i)
		}
	}
	train := make([]float32, len(trainIdx)*base.D)
	for si, i := range trainIdx {
		vecmath.U8ToF32(train[si*base.D:(si+1)*base.D], base.Vec(i))
	}

	coarse, err := kmeans.Train(train, kmeans.Config{
		K: cfg.NList, Dim: base.D, MaxIters: cfg.KMeansIters,
		Seed: cfg.Seed, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("ivf: coarse quantizer: %w", err)
	}

	ix := &Index{
		Dim: base.D, NList: cfg.NList,
		M: cfg.PQ.M, CB: cfg.PQ.CB,
		Centroids: coarse.Centroids,
		SQT:       sqt.NewSQT8(),
	}
	ix.CentroidsU8 = make([]uint8, len(coarse.Centroids))
	for i, x := range coarse.Centroids {
		v := math.Round(float64(x))
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		ix.CentroidsU8[i] = uint8(v)
	}

	// Training residuals against the sample's own final assignment, which
	// k-means computed against the returned centroids.
	residuals := make([]float32, len(train))
	for si, c := range coarse.Assign {
		vecmath.SubF32(residuals[si*base.D:(si+1)*base.D],
			train[si*base.D:(si+1)*base.D], ix.Centroid(int(c)))
	}

	pcfg := cfg.PQ
	if pcfg.Seed == 0 {
		pcfg.Seed = cfg.Seed + 1000
	}
	switch cfg.Variant {
	case "pq":
		ix.PQ, err = pq.Train(residuals, base.D, pcfg)
	case "opq":
		var o *pq.OPQ
		o, err = pq.TrainOPQ(residuals, base.D, pcfg, 3)
		if err == nil {
			ix.OPQ = o
			ix.PQ = o.PQ
		}
	case "dpq":
		ix.PQ, err = pq.TrainDPQ(residuals, base.D, pcfg, 6, 0.02)
	default:
		return nil, fmt.Errorf("ivf: unknown variant %q", cfg.Variant)
	}
	if err != nil {
		return nil, fmt.Errorf("ivf: PQ training: %w", err)
	}
	ix.IntCB = ix.PQ.QuantizeCodebooks()

	// Assign and encode every vector in one parallel pass, through the path
	// Insert takes, then lay the lists out in ascending-id order.
	assign := make([]int32, base.N)
	codes := make([]uint16, base.N*ix.M)
	forEachChunk(0, base.N, cfg.Workers, func(lo, hi int) {
		sc := ix.NewEncodeScratch()
		for i := lo; i < hi; i++ {
			assign[i] = ix.AssignVec(base.Vec(i), sc)
			ix.EncodeVec(base.Vec(i), assign[i], codes[i*ix.M:(i+1)*ix.M], sc)
		}
	})
	ix.Lists = make([][]int32, cfg.NList)
	ix.Codes = make([][]uint16, cfg.NList)
	for i, c := range assign {
		ix.Lists[c] = append(ix.Lists[c], int32(i))
		ix.Codes[c] = append(ix.Codes[c], codes[i*ix.M:(i+1)*ix.M]...)
	}
	return ix, nil
}

// Centroid returns float centroid c.
func (ix *Index) Centroid(c int) []float32 { return ix.Centroids[c*ix.Dim : (c+1)*ix.Dim] }

// CentroidU8 returns the integer-path centroid c.
func (ix *Index) CentroidU8(c int) []uint8 { return ix.CentroidsU8[c*ix.Dim : (c+1)*ix.Dim] }

// ListLen returns the population of cluster c.
func (ix *Index) ListLen(c int) int { return len(ix.Lists[c]) }

// AvgListLen returns the paper's parameter C (average cluster population).
func (ix *Index) AvgListLen() float64 {
	total := 0
	for _, l := range ix.Lists {
		total += len(l)
	}
	return float64(total) / float64(ix.NList)
}

// Locate performs the CL phase on the float path: the nprobe nearest
// centroids to the query, in ascending distance order.
func (ix *Index) Locate(query []float32, nprobe int) []topk.Item[float32] {
	h := topk.NewHeap[float32](nprobe)
	for c := 0; c < ix.NList; c++ {
		d := vecmath.L2SquaredF32(query, ix.Centroid(c))
		if h.WouldAccept(int32(c), d) {
			h.Push(int32(c), d)
		}
	}
	return h.Sorted()
}

// LocateInt performs the CL phase with integer arithmetic (uint8 centroids),
// matching the PIM engine's host-side CL.
func (ix *Index) LocateInt(query []uint8, nprobe int) []topk.Item[uint32] {
	h := topk.NewHeap[uint32](nprobe)
	ix.locateIntInto(query, h)
	return h.Sorted()
}

// locateIntInto fills h (which must be empty) with the h.K() nearest
// centroids to query under the integer metric.
func (ix *Index) locateIntInto(query []uint8, h *topk.Heap[uint32]) {
	// Once the heap is full, centroids whose partial distance already
	// exceeds the current threshold are abandoned mid-scan. Squared sums
	// only grow, so an abandoned centroid's true distance is strictly above
	// the threshold and would have been rejected anyway (ties keep the
	// incumbent of larger distance out regardless of ID, because only
	// strictly greater sums abandon) — the probe set is exactly that of the
	// full scan.
	for c := 0; c < ix.NList; c++ {
		cent := ix.CentroidU8(c)
		thr, full := h.Threshold()
		if full {
			d, done := vecmath.L2SquaredU8Abandon(query, cent, thr)
			if !done {
				continue
			}
			if h.WouldAccept(int32(c), d) {
				h.Push(int32(c), d)
			}
			continue
		}
		d := vecmath.L2SquaredU8(query, cent)
		if h.WouldAccept(int32(c), d) {
			h.Push(int32(c), d)
		}
	}
}

// forEachChunk partitions the range [lo, hi) into contiguous chunks across
// workers goroutines (0 = GOMAXPROCS) and calls f with each chunk's bounds.
// It is the shared scaffold of Build's encode pass and the batched searches.
func forEachChunk(lo, hi, workers int, f func(wlo, whi int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(lo, hi)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wlo, whi := lo+w*chunk, lo+(w+1)*chunk
		if whi > hi {
			whi = hi
		}
		if wlo >= whi {
			continue
		}
		wg.Add(1)
		go func(wlo, whi int) {
			defer wg.Done()
			f(wlo, whi)
		}(wlo, whi)
	}
	wg.Wait()
}

// LocateBatch performs integer-path cluster locating for queries[lo:hi),
// fanned across workers goroutines (0 = GOMAXPROCS). Query qi's probes are
// written, in ascending distance order, into
// out[(qi-lo)*nprobe : (qi-lo)*nprobe+counts[qi-lo]], so out must hold
// (hi-lo)*nprobe items and counts hi-lo entries. Results are identical to
// per-query LocateInt calls, but the batch shares one heap per worker and
// performs no per-query allocation — this is the engine's pipelined CL stage.
func (ix *Index) LocateBatch(queries dataset.U8Set, lo, hi, nprobe, workers int, out []topk.Item[uint32], counts []int) {
	forEachChunk(lo, hi, workers, func(wlo, whi int) {
		h := topk.NewHeap[uint32](nprobe)
		for qi := wlo; qi < whi; qi++ {
			h.Reset()
			ix.locateIntInto(queries.Vec(qi), h)
			base := (qi - lo) * nprobe
			dst := out[base : base : base+nprobe]
			counts[qi-lo] = len(h.SortedInto(dst))
		}
	})
}

// Search runs the float path (Faiss-IVFADC-like) for one uint8 query.
func (ix *Index) Search(query []uint8, nprobe, k int) []topk.Item[float32] {
	qf := make([]float32, ix.Dim)
	vecmath.U8ToF32(qf, query)
	probes := ix.Locate(qf, nprobe)

	res := make([]float32, ix.Dim)
	lut := make([]float32, ix.M*ix.CB)
	h := topk.NewHeap[float32](k)
	for _, p := range probes {
		c := int(p.ID)
		vecmath.SubF32(res, qf, ix.Centroid(c)) // RC
		lc := res
		if ix.OPQ != nil {
			lc = ix.OPQ.Rotate(res)
		}
		ix.PQ.LUT(lc, lut) // LC
		ids := ix.Lists[c]
		codes := ix.Codes[c]
		tomb := ix.Tombstoned(c)
		for i, id := range ids { // DC + TS
			if tomb != nil && tomb[id] {
				continue
			}
			d := vecmath.ADCF32(lut, codes[i*ix.M:(i+1)*ix.M], ix.CB)
			if h.WouldAccept(id, d) {
				h.Push(id, d)
			}
		}
		aids := ix.AppendIDs(c)
		acodes := ix.AppendCodes(c)
		for i, id := range aids { // append segment (never tombstoned)
			d := vecmath.ADCF32(lut, acodes[i*ix.M:(i+1)*ix.M], ix.CB)
			if h.WouldAccept(id, d) {
				h.Push(id, d)
			}
		}
	}
	return h.Sorted()
}

// SearchInt runs the integer path for one query: identical arithmetic to the
// PIM kernels (CL on uint8 centroids, int16 residuals, SQT LUTs, uint32 ADC).
func (ix *Index) SearchInt(query []uint8, nprobe, k int) []topk.Item[uint32] {
	probes := ix.LocateInt(query, nprobe)
	res := make([]int16, ix.Dim)
	lut := make([]uint32, ix.M*ix.CB)
	h := topk.NewHeap[uint32](k)
	for _, p := range probes {
		c := int(p.ID)
		vecmath.SubI16(res, query, ix.CentroidU8(c)) // RC
		ix.IntCB.LUTInt(res, lut, ix.SQT)            // LC (multiplier-less)
		ids := ix.Lists[c]
		codes := ix.Codes[c]
		tomb := ix.Tombstoned(c)
		for i, id := range ids { // DC + TS
			if tomb != nil && tomb[id] {
				continue
			}
			d := vecmath.ADCU32(lut, codes[i*ix.M:(i+1)*ix.M], ix.CB)
			if h.WouldAccept(id, d) {
				h.Push(id, d)
			}
		}
		aids := ix.AppendIDs(c)
		acodes := ix.AppendCodes(c)
		for i, id := range aids { // append segment (never tombstoned)
			d := vecmath.ADCU32(lut, acodes[i*ix.M:(i+1)*ix.M], ix.CB)
			if h.WouldAccept(id, d) {
				h.Push(id, d)
			}
		}
	}
	return h.Sorted()
}

// SearchIntBatch runs SearchInt for a query set in parallel.
func (ix *Index) SearchIntBatch(queries dataset.U8Set, nprobe, k, workers int) [][]int32 {
	return searchIDs(queries, workers, func(q []uint8) []topk.Item[uint32] { return ix.SearchInt(q, nprobe, k) })
}

// searchIDs runs search over every query, chunked across workers, and keeps
// the ids of each answer.
func searchIDs[D cmp.Ordered](queries dataset.U8Set, workers int, search func([]uint8) []topk.Item[D]) [][]int32 {
	out := make([][]int32, queries.N)
	forEachChunk(0, queries.N, workers, func(lo, hi int) {
		for qi := lo; qi < hi; qi++ {
			items := search(queries.Vec(qi))
			ids := make([]int32, len(items))
			for j, it := range items {
				ids[j] = it.ID
			}
			out[qi] = ids
		}
	})
	return out
}
