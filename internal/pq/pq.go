// Package pq implements product quantization (Jégou et al.) in the form
// the DRIM-ANN engine runs: float codebooks trained by per-subspace k-means,
// the subspaces side by side, and their integer deployment (IntCodebooks +
// LUTInt). Codebook entries are rounded to int16 residual-domain values so
// that LUT construction can use the squaring lookup table (SQT) and stay
// bit-exact with multiplication.
package pq

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"drimann/internal/kmeans"
	"drimann/internal/sqt"
	"drimann/internal/vecmath"
)

// Config controls PQ training.
type Config struct {
	M  int // number of subspaces; must divide the dimension
	CB int // codebook entries per subspace (Faiss requires 256; we allow 16..65536)
	// Iters is the k-means iteration budget per subspace; default 20.
	Iters int
	// TrainSample caps the number of vectors used for training; 0 = all.
	TrainSample int
	Seed        int64
	// Workers bounds how many subspaces train at once, each k-means on one
	// goroutine; default runtime.GOMAXPROCS(0).
	Workers int
}

// Quantizer is a trained product quantizer over D-dimensional float vectors,
// made by Train or New (Encode reads what New derives); its codebooks do not
// change after.
type Quantizer struct {
	D, M, CB int
	DSub     int
	// Codebooks is flat M x CB x DSub: entry c of subspace m starts at
	// ((m*CB)+c)*DSub.
	Codebooks []float32
	// t is each subspace's codebook as vecmath.Transpose8 lays it out, one
	// after another, for Encode; never serialized.
	t []float32
}

// New returns the quantizer of d-dimensional vectors with m codebooks of cb
// entries, flat in codebooks.
func New(d, m, cb int, codebooks []float32) *Quantizer {
	q := &Quantizer{D: d, M: m, CB: cb, DSub: d / m, Codebooks: codebooks}
	for sub := range m {
		q.t = append(q.t, vecmath.Transpose8(codebooks[sub*cb*q.DSub:(sub+1)*cb*q.DSub], q.DSub)...)
	}
	return q
}

// Train learns a product quantizer from flat training data (N x dim rows).
func Train(data []float32, dim int, cfg Config) (*Quantizer, error) {
	if cfg.M <= 0 || dim%cfg.M != 0 {
		return nil, fmt.Errorf("pq: M=%d must divide dim=%d", cfg.M, dim)
	}
	if cfg.CB < 2 || cfg.CB > 65536 {
		return nil, fmt.Errorf("pq: CB=%d out of range [2,65536]", cfg.CB)
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 20
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	n := len(data) / dim
	if n*dim != len(data) {
		return nil, fmt.Errorf("pq: data length %d not a multiple of dim %d", len(data), dim)
	}
	if n < cfg.CB {
		return nil, fmt.Errorf("pq: %d training vectors < CB=%d", n, cfg.CB)
	}
	sample := data
	if cfg.TrainSample > 0 && cfg.TrainSample < n {
		rng := rand.New(rand.NewSource(cfg.Seed))
		sample = make([]float32, 0, cfg.TrainSample*dim)
		for i := 0; i < cfg.TrainSample; i++ {
			p := rng.Intn(n)
			sample = append(sample, data[p*dim:(p+1)*dim]...)
		}
		n = cfg.TrainSample
	}

	// One k-means a worker, subspaces w, w+workers, ...: k-means gives the
	// same centroids on any worker count, so this is the serial training.
	dsub := dim / cfg.M
	codebooks := make([]float32, cfg.M*cfg.CB*dsub)
	errs := make([]error, cfg.M)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := range min(workers, cfg.M) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := make([]float32, n*dsub)
			for m := w; m < cfg.M; m += workers {
				for i := 0; i < n; i++ {
					copy(sub[i*dsub:(i+1)*dsub], sample[i*dim+m*dsub:i*dim+(m+1)*dsub])
				}
				res, err := kmeans.Train(sub, kmeans.Config{
					K: cfg.CB, Dim: dsub, MaxIters: cfg.Iters, Seed: cfg.Seed + int64(m), Workers: 1,
				})
				if errs[m] = err; err == nil {
					copy(codebooks[m*cfg.CB*dsub:(m+1)*cfg.CB*dsub], res.Centroids)
				}
			}
		}()
	}
	wg.Wait()
	for m, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pq: subspace %d: %w", m, err)
		}
	}
	return New(dim, cfg.M, cfg.CB, codebooks), nil
}

// Encode writes the code of vec (length D) into code (length M): in each
// subspace the first nearest codebook entry, by L2SquaredF32's distance bits.
func (q *Quantizer) Encode(vec []float32, code []uint16) {
	stride := len(q.t) / q.M
	for m := 0; m < q.M; m++ {
		best, _ := vecmath.ArgMinL2F32T(vec[m*q.DSub:(m+1)*q.DSub], q.t[m*stride:(m+1)*stride], q.DSub)
		code[m] = uint16(best)
	}
}

// IntCodebooks is the residual-domain integer deployment of a quantizer for
// the PIM path. Entries are rounded to int16; combined with int16 residuals
// the LC subtraction stays within the SQT domain.
type IntCodebooks struct {
	M, CB, DSub int
	Data        []int16 // same layout as Quantizer.Codebooks
}

// QuantizeCodebooks rounds the float codebooks to the integer residual grid.
// Residuals of uint8 vectors lie in [-255, 255]; trained codebook entries are
// clamped to the same interval so |residual - entry| <= 510 = sqt.MaxDiff8.
func (q *Quantizer) QuantizeCodebooks() IntCodebooks {
	ic := IntCodebooks{M: q.M, CB: q.CB, DSub: q.DSub, Data: make([]int16, len(q.Codebooks))}
	for i, x := range q.Codebooks {
		v := math.Round(float64(x))
		if v > 255 {
			v = 255
		}
		if v < -255 {
			v = -255
		}
		ic.Data[i] = int16(v)
	}
	return ic
}

// Entry returns integer codebook entry c of subspace m.
func (ic *IntCodebooks) Entry(m, c int) []int16 {
	off := (m*ic.CB + c) * ic.DSub
	return ic.Data[off : off+ic.DSub]
}

// LUTInt fills lut (length M*CB) with integer squared distances between the
// residual subvectors and every codebook entry, computed multiplier-less via
// the SQT — the PIM LC kernel. The result is bit-exact with LUTIntMul.
func (ic *IntCodebooks) LUTInt(residual []int16, lut []uint32, tab *sqt.SQT8) {
	for m := 0; m < ic.M; m++ {
		subvec := residual[m*ic.DSub : (m+1)*ic.DSub]
		for c := 0; c < ic.CB; c++ {
			entry := ic.Entry(m, c)
			var sum uint32
			for j, r := range subvec {
				sum += tab.Square(int32(r) - int32(entry[j]))
			}
			lut[m*ic.CB+c] = sum
		}
	}
}

// LUTIntMul is the multiplication-based twin of LUTInt, used as the ablation
// baseline for the paper's Figure 11(a) (and to verify SQT losslessness).
func (ic *IntCodebooks) LUTIntMul(residual []int16, lut []uint32) {
	for m := 0; m < ic.M; m++ {
		subvec := residual[m*ic.DSub : (m+1)*ic.DSub]
		for c := 0; c < ic.CB; c++ {
			lut[m*ic.CB+c] = vecmath.L2SquaredI16(subvec, ic.Entry(m, c))
		}
	}
}
