package pq

import (
	"fmt"
	"math"

	"drimann/internal/mat"
)

// OPQ couples a learned orthogonal rotation with a product quantizer
// (Ge et al., "Optimized Product Quantization", the non-parametric variant).
// Rotating the space before quantization balances variance across subspaces
// and lowers quantization error on correlated data.
type OPQ struct {
	R  *mat.Dense // D x D orthogonal rotation
	PQ *Quantizer
}

// TrainOPQ alternates PQ training and Procrustes rotation updates.
// opqIters is the number of alternations (2-5 is typical). The best
// (rotation, quantizer) pair seen across iterations is returned; since the
// first iterate uses the identity rotation, OPQ can only match or improve on
// plain PQ for the same config.
func TrainOPQ(data []float32, dim int, cfg Config, opqIters int) (*OPQ, error) {
	if opqIters < 1 {
		opqIters = 3
	}
	n := len(data) / dim
	if n == 0 || n*dim != len(data) {
		return nil, fmt.Errorf("pq: bad training data for OPQ (len %d, dim %d)", len(data), dim)
	}

	curR := mat.Identity(dim)
	rotated := make([]float32, len(data))
	copy(rotated, data)

	evalRows := n
	if evalRows > 2000 {
		evalRows = 2000
	}

	var bestQ *Quantizer
	var bestR *mat.Dense
	bestMSE := math.Inf(1)

	var q *Quantizer
	var err error
	for it := 0; it < opqIters; it++ {
		q, err = Train(rotated, dim, cfg)
		if err != nil {
			return nil, fmt.Errorf("pq: OPQ iteration %d: %w", it, err)
		}
		if mse := q.ReconstructionMSE(rotated[:evalRows*dim]); mse < bestMSE {
			bestMSE, bestQ, bestR = mse, q, curR
		}
		if it == opqIters-1 {
			break
		}
		// Procrustes step: find orthogonal R minimizing ||X*R - Y|| where Y is
		// the quantized reconstruction of the rotated data; then re-rotate the
		// original data by the accumulated rotation.
		code := make([]uint16, q.M)
		rec := make([]float32, dim)
		// Accumulate C = Xᵀ * Y in float64.
		c := mat.NewDense(dim, dim)
		for i := 0; i < n; i++ {
			row := data[i*dim : (i+1)*dim]
			rrow := rotated[i*dim : (i+1)*dim]
			q.Encode(rrow, code)
			q.Decode(code, rec)
			for a := 0; a < dim; a++ {
				xa := float64(row[a])
				if xa == 0 {
					continue
				}
				crow := c.Row(a)
				for b := 0; b < dim; b++ {
					crow[b] += xa * float64(rec[b])
				}
			}
		}
		curR, err = mat.OrthoProcrustes(c)
		if err != nil {
			return nil, fmt.Errorf("pq: OPQ Procrustes: %w", err)
		}
		applyRotation(rotated, data, curR, dim)
	}
	return &OPQ{R: bestR, PQ: bestQ}, nil
}

// applyRotation writes dst = src * R row-wise.
func applyRotation(dst, src []float32, r *mat.Dense, dim int) {
	n := len(src) / dim
	tmp := make([]float64, dim)
	for i := 0; i < n; i++ {
		row := src[i*dim : (i+1)*dim]
		for b := 0; b < dim; b++ {
			tmp[b] = 0
		}
		for a := 0; a < dim; a++ {
			xa := float64(row[a])
			if xa == 0 {
				continue
			}
			rrow := r.Row(a)
			for b := 0; b < dim; b++ {
				tmp[b] += xa * rrow[b]
			}
		}
		out := dst[i*dim : (i+1)*dim]
		for b := 0; b < dim; b++ {
			out[b] = float32(tmp[b])
		}
	}
}

// Rotate returns v * R as a fresh vector.
func (o *OPQ) Rotate(v []float32) []float32 {
	out := make([]float32, len(v))
	applyRotation(out, v, o.R, len(v))
	return out
}
