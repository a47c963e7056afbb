package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSPD(rng *rand.Rand, n int) *Dense {
	// A = B*Bᵀ + n*I is symmetric positive definite.
	b := NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := Mul(b, b.T())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewDense(4, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	if d := MaxAbsDiff(Mul(a, Identity(4)), a); d > 1e-15 {
		t.Fatalf("A*I != A, diff %g", d)
	}
	if d := MaxAbsDiff(Mul(Identity(4), a), a); d > 1e-15 {
		t.Fatalf("I*A != A, diff %g", d)
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if d := MaxAbsDiff(Mul(a, b), want); d != 0 {
		t.Fatalf("Mul wrong, diff %g", d)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := MulVec(a, []float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewDense(3, 5)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		return MaxAbsDiff(a.T().T(), a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 1}})
	eig, v, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-3) > 1e-12 || math.Abs(eig[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues = %v", eig)
	}
	// Columns are orthonormal.
	if d := MaxAbsDiff(Mul(v.T(), v), Identity(2)); d > 1e-12 {
		t.Fatalf("VᵀV != I, diff %g", d)
	}
}

func TestSymEigenReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 4, 9} {
		a := randSPD(rng, n)
		eig, v, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild A = V diag(eig) Vᵀ.
		d := NewDense(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, eig[i])
		}
		rebuilt := Mul(Mul(v, d), v.T())
		if diff := MaxAbsDiff(rebuilt, a); diff > 1e-8 {
			t.Fatalf("eigen reconstruction failed for n=%d, diff %g", n, diff)
		}
		// Eigenvalues sorted descending.
		for i := 1; i < n; i++ {
			if eig[i] > eig[i-1]+1e-12 {
				t.Fatalf("eigenvalues not sorted: %v", eig)
			}
		}
	}
}

func TestSVDReconstructsAndOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3, 6} {
		a := NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		u, s, v, err := SVD(a)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDense(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, s[i])
		}
		rebuilt := Mul(Mul(u, d), v.T())
		if diff := MaxAbsDiff(rebuilt, a); diff > 1e-7 {
			t.Fatalf("SVD reconstruction failed n=%d diff=%g", n, diff)
		}
		if diff := MaxAbsDiff(Mul(u.T(), u), Identity(n)); diff > 1e-7 {
			t.Fatalf("U not orthogonal, diff %g", diff)
		}
		if diff := MaxAbsDiff(Mul(v.T(), v), Identity(n)); diff > 1e-7 {
			t.Fatalf("V not orthogonal, diff %g", diff)
		}
		for i, sv := range s {
			if sv < 0 {
				t.Fatalf("negative singular value s[%d]=%g", i, sv)
			}
		}
	}
}

func TestOrthoProcrustesIsOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(6)
		a := NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		r, err := OrthoProcrustes(a)
		if err != nil {
			t.Fatal(err)
		}
		if diff := MaxAbsDiff(Mul(r.T(), r), Identity(n)); diff > 1e-7 {
			t.Fatalf("RᵀR != I, diff %g", diff)
		}
	}
}

func TestOrthoProcrustesRecoversRotation(t *testing.T) {
	// If A is already orthogonal, Procrustes must return it (up to fp noise).
	theta := 0.7
	rot := FromRows([][]float64{
		{math.Cos(theta), -math.Sin(theta)},
		{math.Sin(theta), math.Cos(theta)},
	})
	r, err := OrthoProcrustes(rot)
	if err != nil {
		t.Fatal(err)
	}
	if diff := MaxAbsDiff(r, rot); diff > 1e-8 {
		t.Fatalf("Procrustes of a rotation is not itself, diff %g", diff)
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged input")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestNewDensePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero shape")
		}
	}()
	NewDense(0, 3)
}

// MaxAbsDiff returns the largest absolute element-wise difference between two
// equal-shape matrices; a convenience for tests.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: MaxAbsDiff shape mismatch")
	}
	var max float64
	for i, x := range a.Data {
		d := math.Abs(x - b.Data[i])
		if d > max {
			max = d
		}
	}
	return max
}
