package vecmath

import (
	"bytes"
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
	idx, d := ArgMinL2F32T([]float32{3, 3}, Transpose8(centroids, 2), 2)
	if idx != 2 {
		t.Fatalf("ArgMinL2F32 idx = %d, want 2", idx)
	}
	if d != 1 {
		t.Fatalf("ArgMinL2F32 dist = %v, want 1", d)
	}
}

// TestArgMinPanicsOnBadShape: a ragged row matrix, a transposed one that is
// not whole pairs of blocks, an empty one, and D² that is not one entry a
// transposed row all panic.
func TestArgMinPanicsOnBadShape(t *testing.T) {
	for _, f := range []func(){
		func() { Transpose8([]float32{1, 2, 3}, 2) },
		func() { Transpose8(nil, 0) },
		func() { ArgMinL2F32T([]float32{1, 2}, make([]float32, 8*2), 2) },
		func() { ArgMinL2F32T([]float32{1, 2}, nil, 2) },
		func() { MinL2F32T(make([]float32, 15), make([]float32, 16*2), []float32{1, 2}) },
		func() { MinL2F32T(make([]float32, 8), make([]float32, 8*2), []float32{1, 2}) },
		func() { MinL2F32T(nil, nil, nil) },
	} {
		if !panics(f) {
			t.Error("a bad shape: no panic")
		}
	}
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
	for i := range src {
		if dec := q.Decode(enc[i]); math.Abs(float64(dec-src[i])) > float64(q.Scale)/2+1e-5 {
			t.Fatalf("EncodeAll/Decode error at %d: %v vs %v", i, dec, src[i])
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
	lut := make([]uint32, m*cb)
	for i := range lut {
		lut[i] = uint32(i)
	}
	code := []uint16{1, 3, 0}
	want := lut[0*cb+1] + lut[1*cb+3] + lut[2*cb+0]
	if got := ADCU32(lut, code, cb); got != want {
		t.Fatalf("ADCU32 = %v, want %v", got, want)
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

// TestADCUnrolledVariantsMatchGeneric: the M=8/M=16 unrolled gathers of the
// decomposed scan, and the CB=256 masked one, must be bit-identical to the
// generic loop.
func TestADCUnrolledVariantsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{8, 16} {
		for _, cb := range []int{16, 64, 256} {
			qe := make([]int32, m*cb)
			for i := range qe {
				// Large values exercise int32 wraparound in the sums.
				qe[i] = int32(rng.Uint32())
			}
			const n = 37
			codes := make([]uint16, n*m)
			for i := range codes {
				codes[i] = uint16(rng.Intn(cb))
			}
			for i := 0; i < n; i++ {
				code := codes[i*m : (i+1)*m]
				want := qeSum(qe, code, cb)
				got := qeSumM8
				if m == 16 {
					got = qeSumM16
				}
				if v := got(qe, code, cb); v != want {
					t.Fatalf("M=%d CB=%d point %d: unrolled %d != generic %d", m, cb, i, v, want)
				}
				if m == 16 && cb == 256 {
					if v := qeSumM16CB256(qe, code); v != want {
						t.Fatalf("CB=256 point %d: masked %d != generic %d", i, v, want)
					}
				}
			}
		}
	}
}

// adcRows is the ADC distance of every row of the packed code matrix over a
// materialized LUT: the reference the decomposed and partial kernels match.
func adcRows(lut []uint32, codes []uint16, m, cb int) []uint32 {
	dst := make([]uint32, len(codes)/m)
	for i := range dst {
		dst[i] = ADCU32(lut, codes[i*m:(i+1)*m], cb)
	}
	return dst
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
		want := adcRows(lut, codes, m, cb)
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

// TestDotRows8MatchesNaive holds DotRows8, on the AVX2 kernel and on its
// scalar loop, to the double loop over rows and dimensions: tables of 16, 64
// and 256 rows (whole blocks of eight, the kernel's) and of 4 and 12 (the
// scalar loop's alone), rows at ±255 and drawn from it, query bytes at 0, at
// 255 and drawn.
func TestDotRows8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	draw := func(kind int, lo, hi int) int {
		switch kind {
		case 0:
			return lo
		case 1:
			return hi
		}
		return lo + rng.Intn(hi-lo+1)
	}
	for _, cb := range []int{4, 12, 16, 64, 256} {
		for rk := 0; rk < 3; rk++ {
			for qk := 0; qk < 3; qk++ {
				rows, q := make([]int16, cb*8), new([8]uint8)
				for i := range rows {
					rows[i] = int16(draw(rk, -255, 255))
				}
				for i := range q {
					q[i] = uint8(draw(qk, 0, 255))
				}
				want := make([]int32, cb)
				for e := range want {
					for j, v := range q {
						want[e] += int32(v) * int32(rows[e*8+j])
					}
				}
				kernels(func(kernel string) {
					got := make([]int32, cb)
					DotRows8(got, rows, q)
					if !slices.Equal(got, want) {
						t.Fatalf("%s, %d rows, rows %d, query %d: %v, want %v", kernel, cb, rk, qk, got, want)
					}
				})
			}
		}
	}
	if !panics(func() { DotRows8(make([]int32, 16), make([]int16, 127), new([8]uint8)) }) {
		t.Fatal("DotRows8 took rows that do not fill the table")
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
		full := adcRows(lut, codes, m, cb)
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

// argMinNaive is the serial nearest-centroid scan over row-major centroids:
// one L2SquaredF32 per centroid, in index order, under a strict <.
func argMinNaive(query, centroids []float32, dim int) (int, float32) {
	best, bestDist := 0, float32(math.MaxFloat32)
	for i := 0; i < len(centroids)/dim; i++ {
		if d := L2SquaredF32(query, centroids[i*dim:(i+1)*dim]); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

// TestArgMinL2F32MatchesNaive: the blocked, abandoning nearest centroid,
// AVX2 and scalar, returns the naive scan's index and distance bits for
// every block remainder (k from 1 to 9), at the PQ encoder's and the coarse
// quantizer's sizes, and at dimensions on both sides of the abandon stride. Duplicated centroids are
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
					query, ct := make([]float32, dim), Transpose8(centroids, dim)
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
						kernels(func(kernel string) {
							gi, gd := ArgMinL2F32T(query, ct, dim)
							if gi != wi || math.Float32bits(gd) != math.Float32bits(wd) {
								t.Fatalf("%s k=%d grid=%v trial %d: got (%d, %v), naive (%d, %v)", kernel, k, grid, trial, gi, gd, wi, wd)
							}
						})
					}
				}
			}
		})
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

// TestL2SquaredEmptyAndShort: every L2 kernel returns 0 on empty vectors
// (the bounded ones after 0 dimensions), and panics when b is shorter than a,
// even when a longer buffer continues past b.
func TestL2SquaredEmptyAndShort(t *testing.T) {
	buf8, buf32, buf16 := make([]uint8, 64), make([]float32, 64), make([]int16, 64)
	for _, tc := range []struct {
		name string
		call func(n, m int) uint32 // a of length n against b of length m
	}{
		{"L2SquaredU8", func(n, m int) uint32 { return L2SquaredU8(buf8[:n], buf8[:m]) }},
		{"L2SquaredF32", func(n, m int) uint32 { return uint32(L2SquaredF32(buf32[:n], buf32[:m])) }},
		{"L2SquaredI16", func(n, m int) uint32 { return L2SquaredI16(buf16[:n], buf16[:m]) }},
		{"L2SquaredU8Bounded", func(n, m int) uint32 {
			s, dims := L2SquaredU8Bounded(buf8[:n], buf8[:m], 0)
			return s + uint32(dims)
		}},
		{"L2SquaredU8Abandon", func(n, m int) uint32 {
			s, done := L2SquaredU8Abandon(buf8[:n], buf8[:m], 0)
			if !done {
				s++
			}
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range []int{0, 5} {
				if got := tc.call(0, m); got != 0 {
					t.Errorf("empty a, len(b)=%d: %d, want 0", m, got)
				}
			}
			for _, n := range []int{1, 16, 17, 40} {
				if !panics(func() { tc.call(n, n-1) }) {
					t.Errorf("len(a)=%d, len(b)=%d: no panic", n, n-1)
				}
			}
		})
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// scalarL2U8Bounded is the kernel L2SquaredU8Bounded must match to the bit,
// one dimension at a time: the running uint32 sum wraps mod 2^32 and is
// checked against bound at the end of every whole AbandonStride block.
func scalarL2U8Bounded(a, b []uint8, bound uint32) (uint32, int) {
	var sum uint32
	for i := range a {
		d := int32(a[i]) - int32(b[i])
		sum += uint32(d * d)
		if (i+1)%AbandonStride == 0 && sum > bound {
			return sum, i + 1
		}
	}
	return sum, len(a)
}

// checkU8Kernels compares L2SquaredU8, L2SquaredU8Bounded and
// L2SquaredU8Abandon with scalarL2U8Bounded on one pair at one bound.
func checkU8Kernels(t testing.TB, a, b []uint8, bound uint32) {
	t.Helper()
	full, _ := scalarL2U8Bounded(a, b, math.MaxUint32)
	if got := L2SquaredU8(a, b); got != full {
		t.Fatalf("n=%d: L2SquaredU8 %d, scalar %d", len(a), got, full)
	}
	sum, dims := L2SquaredU8Bounded(a, b, bound)
	wantSum, wantDims := scalarL2U8Bounded(a, b, bound)
	if sum != wantSum || dims != wantDims {
		t.Fatalf("n=%d bound %d: L2SquaredU8Bounded (%d, %d), scalar (%d, %d)", len(a), bound, sum, dims, wantSum, wantDims)
	}
	if s, done := L2SquaredU8Abandon(a, b, bound); s != wantSum || done != (wantDims == len(a)) {
		t.Fatalf("n=%d bound %d: L2SquaredU8Abandon (%d, %v), scalar (%d, %d)", len(a), bound, s, done, wantSum, wantDims)
	}
}

// TestL2SquaredU8MatchesScalar: the u8 kernels equal the scalar copy, sum and
// dimensions summed, at every length 0..300 (whole blocks and every tail),
// from every start offset 0..15 of a larger buffer (unaligned loads), on
// random and on 0-vs-255 vectors, at bounds 0, d-1, d, d+1, MaxUint32 and a
// random one; and on a 70 000-dimension 0-vs-255 pair, whose sum wraps
// uint32 exactly as the scalar one does.
func TestL2SquaredU8MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	bufA, bufB := make([]uint8, 300+16), make([]uint8, 300+16)
	for _, extreme := range []bool{false, true} {
		for i := range bufA {
			bufA[i], bufB[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
			if extreme {
				bufA[i], bufB[i] = 0, 255
			}
		}
		for n := 0; n <= 300; n++ {
			for off := 0; off < 16; off++ {
				a, b := bufA[off:off+n], bufB[(off*7)%16:][:n]
				d, _ := scalarL2U8Bounded(a, b, math.MaxUint32)
				for _, bound := range []uint32{0, d - 1, d, d + 1, math.MaxUint32, rng.Uint32() % (d + 1)} {
					checkU8Kernels(t, a, b, bound)
				}
			}
		}
	}
	const wide = 70000 // 70000 * 255^2 = 4 551 750 000 > 2^32
	a, b := make([]uint8, wide), slices.Repeat([]uint8{255}, wide)
	d, _ := scalarL2U8Bounded(a, b, math.MaxUint32)
	for _, bound := range []uint32{0, d - 1, d, d + 1, math.MaxUint32, rng.Uint32()} {
		checkU8Kernels(t, a, b, bound)
	}
}

// FuzzL2SquaredU8Bounded checks the u8 kernels against the scalar copy on
// arbitrary pairs (cut to the shorter input) and bounds.
func FuzzL2SquaredU8Bounded(f *testing.F) {
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz"), []byte("zyxwvutsrqponmlkjihgfedcba"), uint32(1000))
	f.Add(make([]byte, 33), slices.Repeat([]byte{255}, 33), uint32(0))
	f.Add([]byte{}, []byte{1}, uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, a, b []byte, bound uint32) {
		n := min(len(a), len(b))
		checkU8Kernels(t, a[:n], b[:n], bound)
	})
}

// checkU8Rows runs L2U8Rows over rows of base and holds it to per-row
// L2SquaredU8Bounded: every block's running sum of every lane, the block it
// stops after (the first whole one, the last excepted, by which every lane has
// passed its bound), and each lane's lookup at its own bound and below.
func checkU8Rows(t testing.TB, q, base []uint8, rows []int32, bound *[8]uint32) {
	t.Helper()
	var p L2U8Rows
	p.Run(q, base, rows, bound)
	dim, whole := len(q), len(q)/AbandonStride
	blocks, last := max((dim+AbandonStride-1)/AbandonStride, 1), 0 // the block by which every lane has passed
	for r, id := range rows {
		k := 0
		for k < whole && L2SquaredU8(q[:(k+1)*AbandonStride], base[int(id)*dim:][:(k+1)*AbandonStride]) <= bound[r] {
			k++
		}
		last = max(last, k)
	}
	if last+1 < whole {
		blocks = last + 1
	}
	if p.blocks != blocks {
		t.Fatalf("dim %d, %d rows, bounds %v: %d blocks, want %d", dim, len(rows), bound, p.blocks, blocks)
	}
	for r, id := range rows {
		row := base[int(id)*dim:][:dim]
		for k := range blocks {
			end := min((k+1)*AbandonStride, dim)
			if want := L2SquaredU8(q[:end], row[:end]); p.sums[8*k+8+r] != want {
				t.Fatalf("dim %d, %d rows, lane %d: block %d sum %d, want %d", dim, len(rows), r, k, p.sums[8*k+8+r], want)
			}
		}
		for _, b := range []uint32{bound[r], bound[r] / 2, 0} {
			s, d := p.At(r, b)
			if ws, wd := L2SquaredU8Bounded(q, row, b); s != ws || d != wd {
				t.Fatalf("dim %d, %d rows, lane %d at %d (bound %d): (%d, %d), want (%d, %d)", dim, len(rows), r, b, bound[r], s, d, ws, wd)
			}
		}
	}
}

// TestL2U8RowsMatchesBounded holds L2U8Rows, the AVX2 kernel and its twin, to
// per-row L2SquaredU8Bounded at dimensions on both sides of a block and of
// two, the fixture's 24, SIFT's 128 and 130 (a tail after whole blocks); one
// to eight rows of a flat corpus, in any order; bounds 0, MaxUint32, drawn
// per lane, and each lane's own distance and one either side of it; rows
// drawn, equal to the query and 255 from it.
func TestL2U8RowsMatchesBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, dim := range []int{1, 8, 15, 16, 17, 24, 32, 128, 130} {
		for kind := range 3 {
			q, base := make([]uint8, dim), make([]uint8, 10*dim)
			for i := range q {
				q[i] = uint8(rng.Intn(256))
			}
			for i := range base {
				switch kind {
				case 0:
					base[i] = uint8(rng.Intn(256))
				case 1:
					base[i] = q[i%dim]
				default:
					q[i%dim], base[i] = 0, 255
				}
			}
			for n := 1; n <= 8; n++ {
				rows := make([]int32, n)
				for r, i := range rng.Perm(10)[:n] {
					rows[r] = int32(i)
				}
				for bk := range 6 {
					var bound [8]uint32
					for r := range bound {
						d := L2SquaredU8(q, base[int(rows[min(r, n-1)])*dim:][:dim])
						bound[r] = [6]uint32{0, math.MaxUint32, rng.Uint32() % (d + 1), d - 1, d, d + 1}[bk]
						if bk == 2 && r%2 == 1 {
							bound[r] = math.MaxUint32
						}
					}
					kernels(func(kernel string) {
						checkU8Rows(t, q, base, rows, &bound)
					})
				}
			}
		}
	}
}

// FuzzL2U8Rows holds L2U8Rows, on both kernels, to per-row L2SquaredU8Bounded
// on arbitrary corpora cut into rows of dim bytes, lanes drawn from the rows
// and bounds drawn per lane below each lane's distance.
func FuzzL2U8Rows(f *testing.F) {
	f.Add(bytes.Repeat([]byte("abcdefghijklmnopqrstuvwxyz"), 12), uint8(24), uint8(5), int64(1))
	f.Add(slices.Repeat([]byte{0, 255}, 200), uint8(130), uint8(8), int64(2))
	f.Fuzz(func(t *testing.T, data []byte, dim, n uint8, seed int64) {
		d := 1 + int(dim)%140
		if len(data) < 2*d {
			return
		}
		q, base := data[:d], data[d:len(data)/d*d]
		rng := rand.New(rand.NewSource(seed))
		rows, bound := make([]int32, 1+int(n)%8), [8]uint32{}
		for r := range rows {
			rows[r] = int32(rng.Intn(len(base) / d))
			bound[r] = rng.Uint32() % (L2SquaredU8(q, base[int(rows[r])*d:][:d]) + 2)
		}
		bound[len(rows)-1] = math.MaxUint32 >> rng.Intn(33)
		kernels(func(kernel string) {
			checkU8Rows(t, q, base, rows, &bound)
		})
	})
}

// kernels calls f on every float kernel this build runs: the AVX2 one where
// the CPU has it, then the scalar twin, with useAVX2 cleared for the call.
func kernels(f func(kernel string)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	if saved {
		f("avx2")
	}
	useAVX2 = false
	f("scalar")
}

// kernelDims and kernelKs are the shapes the float kernels are held to: both
// sides of a block's eight lanes and of the abandon stride, two strides and
// more, the fixture's 128; whole pairs of blocks, one block, three, the PQ
// and coarse table sizes, and tables that are not whole blocks.
var (
	kernelDims = []int{1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 128}
	kernelKs   = []int{1, 5, 8, 13, 16, 24, 255, 256, 512, 515}
)

// drawF32 fills dst from one of three draws: uniform floats, a small integer
// grid (equal distances are common) or values near ±1e19, whose squared
// differences overflow to +Inf.
func drawF32(rng *rand.Rand, dst []float32, kind int) {
	for i := range dst {
		switch kind {
		case 0:
			dst[i] = rng.Float32() * 10
		case 1:
			dst[i] = float32(rng.Intn(4))
		default:
			dst[i] = float32(rng.Intn(3)-1) * 1e19
		}
	}
}

// TestArgMinL2F32OnKernelShapes: at every kernel dimension and table size, on
// the three draws (+Inf distances included, where index 0 and MaxFloat32
// must come back), with planted duplicate rows the first of which must win,
// the AVX2 kernel leaves each lane's minimum and block as its scalar twin
// does, and ArgMinL2F32T returns the naive scan's index and distance bits
// for queries on, next to and away from the centroids.
func TestArgMinL2F32OnKernelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, dim := range kernelDims {
		for _, k := range kernelKs {
			for kind := 0; kind < 3; kind++ {
				centroids, query := make([]float32, k*dim), make([]float32, dim)
				drawF32(rng, centroids, kind)
				for p := 0; p < k/2+1 && k > 1; p++ {
					a := rng.Intn(k - 1)
					b := a + 1 + rng.Intn(k-1-a)
					copy(centroids[b*dim:(b+1)*dim], centroids[a*dim:(a+1)*dim])
				}
				ct := Transpose8(centroids, dim)
				for trial := 0; trial < 6; trial++ {
					c := rng.Intn(k)
					copy(query, centroids[c*dim:(c+1)*dim])
					switch trial % 3 {
					case 1:
						query[rng.Intn(dim)] += 0.5
					case 2:
						drawF32(rng, query, kind)
					}
					wi, wd := argMinNaive(query, centroids, dim)
					var lanes []string
					kernels(func(kernel string) {
						const m = math.MaxFloat32
						dist, blk := [8]float32{m, m, m, m, m, m, m, m}, [8]int32{}
						argMin8T(&dist, &blk, ct, query)
						lanes = append(lanes, fmt.Sprint(dist, blk))
						if gi, gd := ArgMinL2F32T(query, ct, dim); gi != wi || math.Float32bits(gd) != math.Float32bits(wd) {
							t.Fatalf("%s dim %d k %d draw %d trial %d: got (%d, %v), naive (%d, %v)", kernel, dim, k, kind, trial, gi, gd, wi, wd)
						}
					})
					if lanes[0] != lanes[len(lanes)-1] {
						t.Fatalf("dim %d k %d draw %d trial %d: AVX2 lanes %s, scalar twin %s", dim, k, kind, trial, lanes[0], lanes[1])
					}
				}
			}
		}
	}
}

// TestArgMinL2F32TMatchesArgMin: ArgMinL2F32T, AVX2 and scalar, returns the
// row scan's index and distance bits at every dimension from 1 to 17, at one
// block, two, three, the PQ table's 256 and 1024 rows, on the three draws
// (+Inf distances included; on the first, a NaN coordinate whose row must
// never win) and on zeros: planted duplicate rows, the first of which must
// win, a zero row, an all-zero table, and queries on a row, next to one,
// away from all and at zero.
func TestArgMinL2F32TMatchesArgMin(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for dim := 1; dim <= 17; dim++ {
		for _, k := range []int{8, 16, 24, 256, 1024} {
			for kind := 0; kind < 4; kind++ {
				centroids, query := make([]float32, k*dim), make([]float32, dim)
				if kind < 3 { // kind 3 leaves every row zero
					drawF32(rng, centroids, kind)
					clear(centroids[rng.Intn(k)*dim:][:dim])
				}
				if kind == 0 {
					centroids[rng.Intn(k*dim)] = float32(math.NaN())
				}
				for p := 0; p < k/2; p++ {
					a := rng.Intn(k - 1)
					b := a + 1 + rng.Intn(k-1-a)
					copy(centroids[b*dim:(b+1)*dim], centroids[a*dim:(a+1)*dim])
				}
				ct := Transpose8(centroids, dim)
				for trial := 0; trial < 8; trial++ {
					copy(query, centroids[rng.Intn(k)*dim:][:dim])
					switch trial % 4 {
					case 1:
						query[rng.Intn(dim)] += 0.5
					case 2:
						drawF32(rng, query, kind%3)
					case 3:
						clear(query)
					}
					wi, wd := argMinNaive(query, centroids, dim)
					kernels(func(kernel string) {
						if gi, gd := ArgMinL2F32T(query, ct, dim); gi != wi || math.Float32bits(gd) != math.Float32bits(wd) {
							t.Fatalf("%s dim %d k %d draw %d trial %d: got (%d, %v), row scan (%d, %v)", kernel, dim, k, kind, trial, gi, gd, wi, wd)
						}
					})
				}
			}
		}
	}
}

// TestMinL2F32TMatchesScalar: on every kernel dimension, from unaligned
// starts, on the three draws, over point counts that fill one pair of
// blocks, several, and leave padding, the D² kernel, AVX2 and scalar, leaves
// each entry the smaller of its bound and the point's L2SquaredF32 under a
// strict <, bit for bit, under per-lane bounds that mix lanes which abandon
// with lanes which cannot: 0, just under, at and just over the lane's
// distance, half of it, just under and at its partial sum after one stride,
// and +Inf; and passes in which half the lanes of a pair sit just above
// their bounds at the first checkpoint and the other half at them.
func TestMinL2F32TMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dim := range kernelDims {
		for _, n := range []int{16, 48, 37} {
			buf, vbuf := make([]float32, n*dim+3), make([]float32, dim+3)
			for trial := 0; trial < 12; trial++ {
				kind := trial % 3
				drawF32(rng, buf, kind)
				drawF32(rng, vbuf, kind)
				off := trial % 4
				points, v := buf[off:][:n*dim], vbuf[3-off:][:dim]
				ptBuf := Transpose8(points, dim)
				pt := append(make([]float32, off, off+len(ptBuf)), ptBuf...)[off:]
				head := min(dim, AbandonStride)
				for pass := 0; pass < 8; pass++ {
					bound := slices.Repeat([]float32{float32(math.Inf(1))}, len(pt)/dim)
					want := slices.Clone(bound)
					for i := range n {
						row := points[i*dim : (i+1)*dim]
						exact, partial := L2SquaredF32(row, v), L2SquaredF32(row[:head], v[:head])
						bound[i] = []float32{
							0, math.Nextafter32(exact, 0), exact, math.Nextafter32(exact, float32(math.Inf(1))),
							exact / 2, math.Nextafter32(partial, 0), partial, float32(math.Inf(1)),
						}[rng.Intn(8)]
						if pass < 4 { // just above or at the bound at the first check, by the bits of pass
							bound[i] = math.Nextafter32(partial, 0)
							if pass>>(i%16/8)&1 == 1 {
								bound[i] = partial
							}
						}
						want[i] = bound[i]
						if exact < bound[i] {
							want[i] = exact
						}
					}
					kernels(func(kernel string) {
						got := slices.Clone(bound)
						MinL2F32T(got, pt, v)
						for i := range got {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%s dim %d n %d draw %d pass %d point %d from %v: %v, want %v", kernel, dim, n, kind, pass, i, bound[i], got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

// FuzzArgMinL2F32 checks ArgMinL2F32T, AVX2 and scalar, against the naive
// scan on arbitrary tables: each byte is one coordinate, a small signed
// integer, scaled past float32's square root when big is set; the first
// dimension's worth is the query.
func FuzzArgMinL2F32(f *testing.F) {
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789"), uint8(3), false)
	f.Add(slices.Repeat([]byte{1, 2, 3, 4}, 40), uint8(8), false)
	f.Add(slices.Repeat([]byte{200, 7}, 80), uint8(17), true)
	f.Fuzz(func(t *testing.T, data []byte, dim uint8, big bool) {
		d := 1 + int(dim)%40
		if len(data) < 2*d {
			return
		}
		vals := make([]float32, len(data)/d*d)
		for i := range vals {
			vals[i] = float32(int8(data[i]))
			if big {
				vals[i] *= 1e18
			}
		}
		query, centroids := vals[:d], vals[d:]
		wi, wd := argMinNaive(query, centroids, d)
		ct := Transpose8(centroids, d)
		kernels(func(kernel string) {
			if gi, gd := ArgMinL2F32T(query, ct, d); gi != wi || math.Float32bits(gd) != math.Float32bits(wd) {
				t.Fatalf("%s dim %d k %d: got (%d, %v), naive (%d, %v)", kernel, d, len(centroids)/d, gi, gd, wi, wd)
			}
		})
	})
}

// TestSubAndWidenEmpty: the element-wise kernels are no-ops on empty input.
func TestSubAndWidenEmpty(t *testing.T) {
	SubF32(nil, nil, nil)
	SubI16(nil, nil, nil)
	U8ToF32(nil, nil)
}

// Decode reconstructs the float32 value of a uint8 code.
func (q Quantizer) Decode(c uint8) float32 {
	return q.Bias + float32(c)*q.Scale
}
