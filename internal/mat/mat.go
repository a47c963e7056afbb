// Package mat implements the small dense linear algebra needed elsewhere in
// the repository: matrix products for OPQ rotation training and a Jacobi
// eigensolver from which an SVD is derived. Everything is float64 and
// allocation-simple; matrices here are at most a few hundred rows (the
// vector dimension), so clarity wins over blocking tricks.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zeroed r x c matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	m := NewDense(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.Cols {
			panic("mat: ragged rows")
		}
		copy(m.Data[i*m.Cols:], row)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns a*b.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns a*x for a vector x of length a.Cols.
func MulVec(a *Dense, x []float64) []float64 {
	if a.Cols != len(x) {
		panic("mat: MulVec shape mismatch")
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// SymEigen computes the eigendecomposition of a symmetric matrix using cyclic
// Jacobi rotations. It returns the eigenvalues (descending) and a matrix
// whose columns are the corresponding orthonormal eigenvectors.
func SymEigen(a *Dense) ([]float64, *Dense, error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("mat: SymEigen requires a square matrix")
	}
	n := a.Rows
	m := a.Clone()
	v := Identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(m, v, p, q, c, s)
			}
		}
	}

	eig := make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = m.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue (selection sort on columns).
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if eig[j] > eig[best] {
				best = j
			}
		}
		if best != i {
			eig[i], eig[best] = eig[best], eig[i]
			for r := 0; r < n; r++ {
				vi, vb := v.At(r, i), v.At(r, best)
				v.Set(r, i, vb)
				v.Set(r, best, vi)
			}
		}
	}
	return eig, v, nil
}

// rotate applies a Jacobi rotation on rows/cols (p, q) of m, accumulating the
// rotation into v.
func rotate(m, v *Dense, p, q int, c, s float64) {
	n := m.Rows
	for i := 0; i < n; i++ {
		mip, miq := m.At(i, p), m.At(i, q)
		m.Set(i, p, c*mip-s*miq)
		m.Set(i, q, s*mip+c*miq)
	}
	for j := 0; j < n; j++ {
		mpj, mqj := m.At(p, j), m.At(q, j)
		m.Set(p, j, c*mpj-s*mqj)
		m.Set(q, j, s*mpj+c*mqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

// SVD computes a thin singular value decomposition a = U * diag(s) * Vᵀ for a
// square matrix, via the symmetric eigendecompositions of aᵀa. Adequate for
// the well-conditioned covariance-like matrices OPQ produces.
func SVD(a *Dense) (u *Dense, s []float64, v *Dense, err error) {
	if a.Rows != a.Cols {
		return nil, nil, nil, errors.New("mat: SVD implemented for square matrices only")
	}
	n := a.Rows
	ata := Mul(a.T(), a)
	eig, vv, err := SymEigen(ata)
	if err != nil {
		return nil, nil, nil, err
	}
	s = make([]float64, n)
	for i, e := range eig {
		if e < 0 {
			e = 0
		}
		s[i] = math.Sqrt(e)
	}
	// U = A * V * diag(1/s); for tiny singular values fall back to a unit
	// column orthogonal to the others (Gram-Schmidt against existing ones).
	av := Mul(a, vv)
	u = NewDense(n, n)
	for j := 0; j < n; j++ {
		if s[j] > 1e-12 {
			inv := 1 / s[j]
			for i := 0; i < n; i++ {
				u.Set(i, j, av.At(i, j)*inv)
			}
			continue
		}
		col := make([]float64, n)
		col[j%n] = 1
		for k := 0; k < j; k++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += col[i] * u.At(i, k)
			}
			for i := 0; i < n; i++ {
				col[i] -= dot * u.At(i, k)
			}
		}
		norm := 0.0
		for _, x := range col {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			norm = 1
		}
		for i := 0; i < n; i++ {
			u.Set(i, j, col[i]/norm)
		}
	}
	return u, s, vv, nil
}

// OrthoProcrustes returns the orthogonal matrix R = U*Vᵀ closest (in
// Frobenius norm) to the given square matrix, the Procrustes step used by OPQ
// training.
func OrthoProcrustes(a *Dense) (*Dense, error) {
	u, _, v, err := SVD(a)
	if err != nil {
		return nil, err
	}
	return Mul(u, v.T()), nil
}
