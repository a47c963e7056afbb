package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestL2SquaredF32Basic(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 6, 3}
	if got := L2SquaredF32(a, b); got != 25 {
		t.Fatalf("L2SquaredF32 = %v, want 25", got)
	}
	if got := L2SquaredF32(a, a); got != 0 {
		t.Fatalf("self distance = %v, want 0", got)
	}
}

func TestL2SquaredU8Basic(t *testing.T) {
	a := []uint8{0, 255, 10}
	b := []uint8{255, 0, 10}
	want := uint32(2 * 255 * 255)
	if got := L2SquaredU8(a, b); got != want {
		t.Fatalf("L2SquaredU8 = %d, want %d", got, want)
	}
}

func TestL2SquaredSymmetryProperty(t *testing.T) {
	f := func(a, b [16]uint8) bool {
		return L2SquaredU8(a[:], b[:]) == L2SquaredU8(b[:], a[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestL2SquaredI16MatchesU8(t *testing.T) {
	// Widening uint8 vectors to int16 must not change the distance.
	f := func(a, b [8]uint8) bool {
		ai := make([]int16, 8)
		bi := make([]int16, 8)
		for i := range a {
			ai[i] = int16(a[i])
			bi[i] = int16(b[i])
		}
		return L2SquaredI16(ai, bi) == L2SquaredU8(a[:], b[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestL2NonNegativeAndIdentity(t *testing.T) {
	f := func(a, b [12]uint8) bool {
		d := L2SquaredU8(a[:], b[:])
		if a == b && d != 0 {
			return false
		}
		// d is uint32 so non-negativity is structural; check zero iff equal.
		if d == 0 {
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotF32(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := DotF32(a, b); got != 32 {
		t.Fatalf("DotF32 = %v, want 32", got)
	}
}

func TestNormSquaredF32(t *testing.T) {
	if got := NormSquaredF32([]float32{3, 4}); got != 25 {
		t.Fatalf("NormSquaredF32 = %v, want 25", got)
	}
}

func TestSubI16(t *testing.T) {
	a := []uint8{10, 0, 255}
	b := []uint8{20, 0, 0}
	dst := make([]int16, 3)
	SubI16(dst, a, b)
	want := []int16{-10, 0, 255}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("SubI16[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

func TestSubF32(t *testing.T) {
	dst := make([]float32, 2)
	SubF32(dst, []float32{5, 1}, []float32{2, 3})
	if dst[0] != 3 || dst[1] != -2 {
		t.Fatalf("SubF32 = %v", dst)
	}
}

func TestArgMinL2F32(t *testing.T) {
	centroids := []float32{
		0, 0,
		10, 10,
		3, 4,
	}
	idx, d := ArgMinL2F32([]float32{3, 3}, centroids, 2)
	if idx != 2 {
		t.Fatalf("ArgMinL2F32 idx = %d, want 2", idx)
	}
	if d != 1 {
		t.Fatalf("ArgMinL2F32 dist = %v, want 1", d)
	}
}

func TestArgMinPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged centroid matrix")
		}
	}()
	ArgMinL2F32([]float32{1, 2}, []float32{1, 2, 3}, 2)
}

func TestQuantizerRoundTripGrid(t *testing.T) {
	q := Quantizer{Scale: 0.5, Bias: -10}
	for c := 0; c < 256; c++ {
		x := q.Decode(uint8(c))
		if got := q.Encode(x); got != uint8(c) {
			t.Fatalf("Encode(Decode(%d)) = %d", c, got)
		}
	}
}

func TestFitQuantizerCoversRange(t *testing.T) {
	data := []float32{-1, 0, 2.5, 7}
	q := FitQuantizer(data)
	if q.Encode(-1) != 0 {
		t.Fatalf("min should map to 0, got %d", q.Encode(-1))
	}
	if q.Encode(7) != 255 {
		t.Fatalf("max should map to 255, got %d", q.Encode(7))
	}
	// Everything decodes back within one grid step.
	for _, x := range data {
		back := q.Decode(q.Encode(x))
		if diff := math.Abs(float64(back - x)); diff > float64(q.Scale)/2+1e-5 {
			t.Fatalf("roundtrip error %v for %v (scale %v)", diff, x, q.Scale)
		}
	}
}

func TestFitQuantizerDegenerate(t *testing.T) {
	q := FitQuantizer([]float32{3, 3, 3})
	if q.Scale <= 0 {
		t.Fatalf("degenerate scale must stay positive, got %v", q.Scale)
	}
	if q.Encode(3) != 0 {
		t.Fatalf("constant input should encode to 0")
	}
	if FitQuantizer(nil).Scale <= 0 {
		t.Fatal("empty input must yield a usable quantizer")
	}
}

func TestQuantizerClamps(t *testing.T) {
	q := Quantizer{Scale: 1, Bias: 0}
	if q.Encode(-5) != 0 {
		t.Fatal("below-range values must clamp to 0")
	}
	if q.Encode(500) != 255 {
		t.Fatal("above-range values must clamp to 255")
	}
}

func TestEncodeDecodeVecAll(t *testing.T) {
	src := []float32{0, 1, 2, 3}
	q := FitQuantizer(src)
	enc := q.EncodeAll(src)
	dec := q.DecodeAll(enc)
	for i := range src {
		if math.Abs(float64(dec[i]-src[i])) > float64(q.Scale)/2+1e-5 {
			t.Fatalf("EncodeAll/DecodeAll error at %d: %v vs %v", i, dec[i], src[i])
		}
	}
}

func TestU8ToF32(t *testing.T) {
	dst := make([]float32, 3)
	U8ToF32(dst, []uint8{0, 128, 255})
	if dst[0] != 0 || dst[1] != 128 || dst[2] != 255 {
		t.Fatalf("U8ToF32 = %v", dst)
	}
}

func TestADCAccumulators(t *testing.T) {
	const m, cb = 3, 4
	lutF := make([]float32, m*cb)
	lutU := make([]uint32, m*cb)
	for i := range lutF {
		lutF[i] = float32(i)
		lutU[i] = uint32(i)
	}
	code := []uint16{1, 3, 0}
	wantF := lutF[0*cb+1] + lutF[1*cb+3] + lutF[2*cb+0]
	if got := ADCF32(lutF, code, cb); got != wantF {
		t.Fatalf("ADCF32 = %v, want %v", got, wantF)
	}
	if got := ADCU32(lutU, code, cb); got != uint32(wantF) {
		t.Fatalf("ADCU32 = %v, want %v", got, uint32(wantF))
	}
}

func TestMeanVec(t *testing.T) {
	data := []float32{0, 2, 4, 6}
	mean := MeanVec(data, 2)
	if mean[0] != 2 || mean[1] != 4 {
		t.Fatalf("MeanVec = %v", mean)
	}
	empty := MeanVec(nil, 2)
	if empty[0] != 0 || empty[1] != 0 {
		t.Fatalf("MeanVec(nil) = %v", empty)
	}
}

func TestQuantizerErrorBoundProperty(t *testing.T) {
	// For values inside the fitted range the round-trip error is at most
	// half a grid step (plus float slop).
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(64)
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rng.NormFloat64() * 10)
		}
		q := FitQuantizer(data)
		for _, x := range data {
			back := q.Decode(q.Encode(x))
			if math.Abs(float64(back-x)) > float64(q.Scale)/2+1e-4 {
				t.Fatalf("roundtrip error too large: x=%v back=%v scale=%v", x, back, q.Scale)
			}
		}
	}
}

// TestADCUnrolledVariantsMatchGeneric: the M=8/M=16 unrolled kernels, the
// batch dispatcher, and the decomposed residual batch must all be
// bit-identical to the scalar reference loop.
func TestADCUnrolledVariantsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{4, 8, 16} {
		for _, cb := range []int{16, 64, 256} {
			lut := make([]uint32, m*cb)
			for i := range lut {
				// Large values exercise uint32 wraparound in the sums.
				lut[i] = rng.Uint32()
			}
			const n = 37
			codes := make([]uint16, n*m)
			for i := range codes {
				codes[i] = uint16(rng.Intn(cb))
			}

			want := make([]uint32, n)
			for i := 0; i < n; i++ {
				want[i] = ADCU32(lut, codes[i*m:(i+1)*m], cb)
			}
			got := make([]uint32, n)
			ADCBatchU32(got, lut, codes, m, cb)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("M=%d CB=%d point %d: batch %d != reference %d", m, cb, i, got[i], want[i])
				}
			}
			switch m {
			case 8:
				for i := 0; i < n; i++ {
					if v := ADCU32M8(lut, codes[i*8:i*8+8], cb); v != want[i] {
						t.Fatalf("ADCU32M8 CB=%d point %d: %d != %d", cb, i, v, want[i])
					}
				}
			case 16:
				for i := 0; i < n; i++ {
					if v := ADCU32M16(lut, codes[i*16:i*16+16], cb); v != want[i] {
						t.Fatalf("ADCU32M16 CB=%d point %d: %d != %d", cb, i, v, want[i])
					}
				}
			}
		}
	}
}

// TestADCResidualBatchMatchesMaterializedLUT: summing a materialized LUT
// whose entries are uint32(p + b[e] - 2*qe[e]) must equal the decomposed
// per-point evaluation for every M dispatch width.
func TestADCResidualBatchMatchesMaterializedLUT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, m := range []int{4, 8, 16} {
		const cb = 64
		qe := make([]int32, m*cb)
		b := make([]int32, m*cb)
		lut := make([]uint32, m*cb)
		base := int32(rng.Intn(1<<20) - 1<<19)
		perRow := base / int32(m)
		rem := base - perRow*int32(m)
		for i := range qe {
			qe[i] = int32(rng.Intn(1 << 20))
			b[i] = int32(rng.Intn(1 << 20))
			p := perRow
			if i/cb == 0 {
				p += rem
			}
			lut[i] = uint32(p + b[i] - 2*qe[i])
		}
		const n = 29
		codes := make([]uint16, n*m)
		bsum := make([]int32, n)
		for i := 0; i < n; i++ {
			for mi := 0; mi < m; mi++ {
				codes[i*m+mi] = uint16(rng.Intn(cb))
				bsum[i] += b[mi*cb+int(codes[i*m+mi])]
			}
		}
		want := make([]uint32, n)
		ADCBatchU32(want, lut, codes, m, cb)
		got := make([]uint32, n)
		ADCResidualBatch(got, qe, codes, bsum, base, m, cb)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("M=%d point %d: decomposed %d != materialized %d", m, i, got[i], want[i])
			}
		}
	}
}

func TestDotU8I32(t *testing.T) {
	a := []uint8{255, 0, 3, 255}
	b := []uint8{255, 9, 2, 1}
	want := int32(255*255 + 0 + 6 + 255)
	if got := DotU8I32(a, b); got != want {
		t.Fatalf("DotU8I32 = %d, want %d", got, want)
	}
}

// TestL2SquaredU8AbandonExact: whenever the bounded scan completes, the
// distance equals the full evaluation; whenever it abandons, the true
// distance is strictly above the bound (so a caller rejecting > bound makes
// identical decisions either way).
func TestL2SquaredU8AbandonExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(200)
		a := make([]uint8, n)
		b := make([]uint8, n)
		for i := range a {
			a[i] = uint8(rng.Intn(256))
			b[i] = uint8(rng.Intn(256))
		}
		want := L2SquaredU8(a, b)
		var bound uint32
		switch rng.Intn(3) {
		case 0:
			bound = want // completing scans must return exactly want
		case 1:
			bound = want / 2
		default:
			bound = uint32(rng.Intn(1 << 22))
		}
		got, done := L2SquaredU8Abandon(a, b, bound)
		if done {
			if got != want {
				t.Fatalf("trial %d: completed scan returned %d, want %d", trial, got, want)
			}
		} else {
			if want <= bound {
				t.Fatalf("trial %d: abandoned although true distance %d <= bound %d", trial, want, bound)
			}
			if got <= bound {
				t.Fatalf("trial %d: abandoned with partial %d <= bound %d", trial, got, bound)
			}
		}
	}
}

// TestADCPartialSumsToFullDistance: summing the partial kernels over any
// partition of the subspaces — stages of 1, 2 (the unrolled width), 3 and all
// at once, in a shuffled subspace order, over a subset of the rows — gives
// every listed row's full ADC distance, from the materialized LUT and from
// the decomposed terms alike, and leaves its running sums non-decreasing
// (entries are non-negative, which is what lets a scan prune on them).
func TestADCPartialSumsToFullDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range []int{4, 8, 16} {
		const cb, n = 64, 31
		qe, b, p := make([]int32, m*cb), make([]int32, m*cb), make([]int32, m)
		lut := make([]uint32, m*cb)
		for s := range p {
			p[s] = int32(rng.Intn(1 << 16))
		}
		for i := range qe {
			qe[i] = int32(rng.Intn(1 << 10))
			b[i] = int32(rng.Intn(1<<20)) + 2*qe[i] // keeps every entry non-negative
			lut[i] = uint32(p[i/cb] + b[i] - 2*qe[i])
		}
		codes := make([]uint16, n*m)
		for i := range codes {
			codes[i] = uint16(rng.Intn(cb))
		}
		full := make([]uint32, n)
		ADCBatchU32(full, lut, codes, m, cb)
		var rows []int32
		for i := 0; i < n; i += 1 + rng.Intn(3) {
			rows = append(rows, int32(i))
		}
		order := make([]uint16, m)
		for i, s := range rng.Perm(m) {
			order[i] = uint16(s)
		}
		for _, width := range []int{1, 2, 3, m} {
			fromLUT, fromTerms := make([]uint32, len(rows)), make([]uint32, len(rows))
			for lo := 0; lo < m; lo += width {
				subs := order[lo:min(lo+width, m)]
				var base int32
				for _, s := range subs {
					base += p[s]
				}
				before := slices.Clone(fromLUT)
				ADCPartialU32(fromLUT, lut, codes, rows, subs, m, cb)
				ADCResidualPartial(fromTerms, qe, b, codes, rows, subs, base, m, cb)
				for i := range rows {
					if fromLUT[i] < before[i] || fromTerms[i] != fromLUT[i] {
						t.Fatalf("M=%d width %d row %d: partial sums %d -> %d (LUT), %d (terms)", m, width, rows[i], before[i], fromLUT[i], fromTerms[i])
					}
				}
			}
			for i, r := range rows {
				if fromLUT[i] != full[r] {
					t.Fatalf("M=%d width %d row %d: stages sum to %d, full distance %d", m, width, r, fromLUT[i], full[r])
				}
			}
		}
	}
}

// argMinNaive is the serial nearest-centroid scan: one L2SquaredF32 per
// centroid, in index order, under a strict <.
func argMinNaive(query, centroids []float32, dim int) (int, float32) {
	best, bestDist := 0, float32(math.MaxFloat32)
	for i := 0; i < len(centroids)/dim; i++ {
		if d := L2SquaredF32(query, centroids[i*dim:(i+1)*dim]); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

// TestArgMinL2F32MatchesNaive: the blocked, abandoning kernel returns the
// naive scan's index and distance bits for every block remainder (k from 1
// to 9), at the PQ encoder's and the coarse quantizer's sizes, and at
// dimensions on both sides of the abandon stride. Duplicated centroids are
// planted so the first index must win a tie, integer-valued grids make ties
// between distinct centroids common, and queries sit on a centroid, next to
// one, and away from all of them.
func TestArgMinL2F32MatchesNaive(t *testing.T) {
	for _, dim := range []int{1, 3, 8, 17, 32, 33, 128} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(dim)))
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 256, 515} {
				for _, grid := range []bool{false, true} {
					draw := func(scale float32) float32 {
						if grid {
							return float32(rng.Intn(4))
						}
						return rng.Float32() * scale
					}
					centroids := make([]float32, k*dim)
					for i := range centroids {
						centroids[i] = draw(10)
					}
					for p := 0; p < k/2+1 && k > 1; p++ { // planted duplicates, later row copies an earlier one
						a := rng.Intn(k - 1)
						b := a + 1 + rng.Intn(k-1-a)
						copy(centroids[b*dim:(b+1)*dim], centroids[a*dim:(a+1)*dim])
					}
					query := make([]float32, dim)
					for trial := 0; trial < 24; trial++ {
						c := rng.Intn(k)
						switch trial % 3 {
						case 0: // on a centroid
							copy(query, centroids[c*dim:(c+1)*dim])
						case 1: // next to one
							for j := range query {
								query[j] = centroids[c*dim+j] + draw(0.1)
							}
						default: // away from every centroid
							for j := range query {
								query[j] = 20 + draw(10)
							}
						}
						wi, wd := argMinNaive(query, centroids, dim)
						gi, gd := ArgMinL2F32(query, centroids, dim)
						if gi != wi || math.Float32bits(gd) != math.Float32bits(wd) {
							t.Fatalf("k=%d grid=%v trial %d: got (%d, %v), naive (%d, %v)", k, grid, trial, gi, gd, wi, wd)
						}
					}
				}
			}
		})
	}
}

// TestL2SquaredF32AbandonExact: a completed bounded scan returns
// L2SquaredF32's bits, and an abandoned one only ever abandons a distance
// strictly above the bound, with a partial sum above it.
func TestL2SquaredF32AbandonExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(200)
		a, b := make([]float32, n), make([]float32, n)
		for i := range a {
			a[i], b[i] = rng.Float32(), rng.Float32()
		}
		want := L2SquaredF32(a, b)
		bound := want
		switch rng.Intn(3) {
		case 1:
			bound = want / 2
		case 2:
			bound = rng.Float32() * float32(n) / 3
		}
		got, done := L2SquaredF32Abandon(a, b, bound)
		if done && math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("trial %d: completed scan returned %v, want %v", trial, got, want)
		}
		if !done && (want <= bound || got <= bound) {
			t.Fatalf("trial %d: abandoned at partial %v, distance %v, bound %v", trial, got, want, bound)
		}
	}
}

// TestL2SquaredU8BoundedStopsAtFirstCrossing: against L2SquaredU8, at
// lengths on and off the stride and at bounds 0, d-1, d and MaxUint32, the
// blocked kernel returns the exact distance whenever it sums every dimension,
// and otherwise stops after the first block whose partial sum passes the
// bound, at a multiple of the stride, returning that partial sum.
func TestL2SquaredU8BoundedStopsAtFirstCrossing(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{24, 100, 128} {
		for trial := 0; trial < 200; trial++ {
			a, b := make([]uint8, n), make([]uint8, n)
			spread := 1 + rng.Intn(256)
			for i := range a {
				a[i], b[i] = uint8(rng.Intn(spread)), uint8(rng.Intn(spread))
			}
			d := L2SquaredU8(a, b)
			for _, bound := range []uint32{0, d - 1, d, math.MaxUint32} {
				sum, dims := L2SquaredU8Bounded(a, b, bound)
				switch {
				case dims == n && sum != d:
					t.Fatalf("n=%d bound %d: full scan returned %d, distance %d", n, bound, sum, d)
				case dims == n && bound >= d:
				case dims == n: // only the last block may cross
					if last := (n - 1) / AbandonStride * AbandonStride; L2SquaredU8(a[:last], b[:last]) > bound {
						t.Fatalf("n=%d bound %d: summed past an earlier crossing", n, bound)
					}
				case bound >= d || dims%AbandonStride != 0 || dims > n:
					t.Fatalf("n=%d bound %d distance %d: stopped after %d dimensions", n, bound, d, dims)
				case sum != L2SquaredU8(a[:dims], b[:dims]) || sum <= bound:
					t.Fatalf("n=%d bound %d: stopped at %d with sum %d", n, bound, dims, sum)
				case dims > AbandonStride && L2SquaredU8(a[:dims-AbandonStride], b[:dims-AbandonStride]) > bound:
					t.Fatalf("n=%d bound %d: stopped at %d, a block after the first crossing", n, bound, dims)
				}
			}
		}
	}
}
