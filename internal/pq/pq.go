// Package pq implements product quantization (Jégou et al.) in the form
// the DRIM-ANN engine runs: float codebooks trained by per-subspace k-means,
// and their integer deployment (IntCodebooks + LUTInt). Codebook entries are
// rounded to int16 residual-domain values so that LUT construction can use
// the squaring lookup table (SQT) and stay bit-exact with multiplication.
package pq

import (
	"fmt"
	"math"
	"math/rand"

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
	Workers     int
}

// Quantizer is a trained product quantizer over D-dimensional float vectors.
type Quantizer struct {
	D, M, CB int
	DSub     int
	// Codebooks is flat M x CB x DSub: entry c of subspace m starts at
	// ((m*CB)+c)*DSub.
	Codebooks []float32
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

	dsub := dim / cfg.M
	q := &Quantizer{D: dim, M: cfg.M, CB: cfg.CB, DSub: dsub,
		Codebooks: make([]float32, cfg.M*cfg.CB*dsub)}

	sub := make([]float32, n*dsub)
	for m := 0; m < cfg.M; m++ {
		for i := 0; i < n; i++ {
			copy(sub[i*dsub:(i+1)*dsub], sample[i*dim+m*dsub:i*dim+(m+1)*dsub])
		}
		res, err := kmeans.Train(sub, kmeans.Config{
			K: cfg.CB, Dim: dsub, MaxIters: cfg.Iters,
			Seed: cfg.Seed + int64(m), Workers: cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("pq: subspace %d: %w", m, err)
		}
		copy(q.Codebooks[m*cfg.CB*dsub:(m+1)*cfg.CB*dsub], res.Centroids)
	}
	return q, nil
}

// Encode writes the code of vec (length D) into code (length M).
func (q *Quantizer) Encode(vec []float32, code []uint16) {
	for m := 0; m < q.M; m++ {
		subvec := vec[m*q.DSub : (m+1)*q.DSub]
		cb := q.Codebooks[m*q.CB*q.DSub : (m+1)*q.CB*q.DSub]
		best, _ := vecmath.ArgMinL2F32(subvec, cb, q.DSub)
		code[m] = uint16(best)
	}
}

// EncodeAll encodes flat data (N x D) into a fresh flat code array (N x M).
func (q *Quantizer) EncodeAll(data []float32) []uint16 {
	n := len(data) / q.D
	codes := make([]uint16, n*q.M)
	for i := 0; i < n; i++ {
		q.Encode(data[i*q.D:(i+1)*q.D], codes[i*q.M:(i+1)*q.M])
	}
	return codes
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
