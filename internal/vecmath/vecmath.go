// Package vecmath provides the vector kernels shared by every layer of the
// DRIM-ANN stack: L2 distances in float32 and in the integer domain used by
// the PIM path, uint8 quantization of float corpora, and asymmetric distance
// computation (ADC) over product-quantization lookup tables.
//
// Vectors are flat slices with an explicit dimension so that large corpora
// stay contiguous (one allocation for N*D elements).
//
// The kernels that abandon or block a distance return the bits a plain scan
// would. Each distance keeps its own accumulator, summed in dimension order,
// so blocking several distances into one pass changes no sum. A partial sum
// only grows (adding a square never lowers a rounded sum, fused or not), so a
// distance abandoned above a bound would have ended above it too.
//
// On amd64 the u8 distance is one SSE2 kernel (l2u8_amd64.s; the purego
// build tag, or any other architecture, selects the scalar l2u8_generic.go).
// It is exact, not merely close: integer sums agree mod 2^32 in any order,
// so its 32-bit lanes folded together equal the scalar running sum, wraps
// included, and one 16-byte XMM block is one AbandonStride, so the bounded
// form checks its bound where the scalar one does and reports the same
// dimensions summed.
package vecmath

import (
	"fmt"
	"math"
)

// L2SquaredF32 returns the squared Euclidean distance between two float32
// vectors of equal length.
func L2SquaredF32(a, b []float32) float32 {
	if len(a) == 0 {
		return 0
	}
	_ = b[len(a)-1]
	var sum float32
	for i, av := range a {
		d := av - b[i]
		sum += d * d
	}
	return sum
}

// L2SquaredU8 returns the squared Euclidean distance between two uint8
// vectors of equal length. The result is exact: for dim <= 2^16 the maximum
// possible sum (dim * 255^2) fits in a uint32.
func L2SquaredU8(a, b []uint8) uint32 {
	sum, _ := L2SquaredU8Bounded(a, b, math.MaxUint32)
	return sum
}

// L2SquaredU8Abandon computes L2SquaredU8(a, b) with early abandonment: it
// returns (partial, false) as soon as the partial sum passes bound at a block
// boundary before the end (L2SquaredU8Bounded). Squared terms only grow the
// sum, so a partial sum above bound proves the full distance is above it too
// — callers that reject distances strictly greater than bound get exactly the
// decisions a full evaluation would produce. When the scan completes, the
// exact distance is returned with true (it may still exceed bound if the
// final stretch crossed it).
func L2SquaredU8Abandon(a, b []uint8, bound uint32) (uint32, bool) {
	sum, dims := L2SquaredU8Bounded(a, b, bound)
	return sum, dims == len(a)
}

// L2SquaredU8Bounded sums L2SquaredU8(a, b) in blocks of AbandonStride
// dimensions and stops after the first block whose partial sum is strictly
// above bound. It returns that sum and the dimensions summed: a multiple of
// AbandonStride when it stopped early, len(a) otherwise, when the sum is the
// exact distance (above bound only if the last block crossed it).
func L2SquaredU8Bounded(a, b []uint8, bound uint32) (uint32, int) {
	if len(a) == 0 {
		return 0, 0
	}
	_ = b[len(a)-1] // a short b panics here, before the kernel reads it
	return l2u8(a, b, bound)
}

// L2SquaredI16 returns the squared Euclidean distance between two int16
// vectors of equal length, as used on the PIM integer path (residual vs
// quantized codebook entry).
func L2SquaredI16(a, b []int16) uint32 {
	if len(a) == 0 {
		return 0
	}
	_ = b[len(a)-1]
	var sum uint32
	for i, av := range a {
		d := int32(av) - int32(b[i])
		sum += uint32(d * d)
	}
	return sum
}

// NormSquaredF32 returns the squared L2 norm of v.
func NormSquaredF32(v []float32) float32 {
	var sum float32
	for _, x := range v {
		sum += x * x
	}
	return sum
}

// SubI16 writes a-b into dst in the int16 domain, the residual operation of
// the PIM path (operands are uint8-quantized so the difference always fits).
func SubI16(dst []int16, a, b []uint8) {
	_ = b[len(a)-1]
	_ = dst[len(a)-1]
	for i, av := range a {
		dst[i] = int16(av) - int16(b[i])
	}
}

// SubF32 writes a-b into dst.
func SubF32(dst, a, b []float32) {
	_ = b[len(a)-1]
	_ = dst[len(a)-1]
	for i, av := range a {
		dst[i] = av - b[i]
	}
}

// AbandonStride is how many dimensions the abandoning kernels sum between two
// checks against their bound.
const AbandonStride = 16

// The amd64 u8 kernel checks its bound once per 16-byte XMM block.
var _ = [1]struct{}{}[AbandonStride-16]

// L2SquaredF32Abandon is the float twin of L2SquaredU8Abandon: it sums in
// dimension order exactly as L2SquaredF32 does, so a completed scan returns
// the same bits, and it returns (partial, false) as soon as a check finds the
// partial sum above bound, which the true distance is then above too.
func L2SquaredF32Abandon(a, b []float32, bound float32) (float32, bool) {
	b = b[:len(a)]
	var sum float32
	for lo := 0; lo < len(a); lo += AbandonStride {
		x := a[lo:min(lo+AbandonStride, len(a))]
		y := b[lo:][:len(x)]
		for i, xv := range x {
			d := xv - y[i]
			sum += d * d
		}
		if sum > bound {
			return sum, false
		}
	}
	return sum, true
}

// ArgMinL2F32 scans the flat centroid matrix (k rows of length dim) and
// returns the row index with the smallest squared L2 distance to query, along
// with that distance; the first index wins a tie. It panics if centroids is
// not a multiple of dim or is empty.
//
// It scores four centroids per pass, so every distance it compares is
// L2SquaredF32's, bit for bit. A block is abandoned once all four partial
// sums exceed the best distance so far: none of the four could have won the
// strict <.
func ArgMinL2F32(query, centroids []float32, dim int) (int, float32) {
	k := len(centroids) / dim
	if k == 0 || len(centroids)%dim != 0 {
		panic(fmt.Sprintf("vecmath: bad centroid matrix len=%d dim=%d", len(centroids), dim))
	}
	query = query[:dim]
	best, bestDist := 0, float32(math.MaxFloat32)
	i := 0
	for ; i+4 <= k; i += 4 {
		blk := centroids[i*dim : (i+4)*dim]
		var s0, s1, s2, s3 float32
		for lo := 0; lo < dim; lo += AbandonStride {
			q := query[lo:min(lo+AbandonStride, dim)]
			c0, c1 := blk[lo:][:len(q)], blk[dim+lo:][:len(q)]
			c2, c3 := blk[2*dim+lo:][:len(q)], blk[3*dim+lo:][:len(q)]
			for j, qv := range q {
				d0, d1, d2, d3 := qv-c0[j], qv-c1[j], qv-c2[j], qv-c3[j]
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
			if s0 > bestDist && s1 > bestDist && s2 > bestDist && s3 > bestDist {
				break // no compare below can succeed
			}
		}
		if s0 < bestDist {
			best, bestDist = i, s0
		}
		if s1 < bestDist {
			best, bestDist = i+1, s1
		}
		if s2 < bestDist {
			best, bestDist = i+2, s2
		}
		if s3 < bestDist {
			best, bestDist = i+3, s3
		}
	}
	for ; i < k; i++ {
		if d, _ := L2SquaredF32Abandon(query, centroids[i*dim:(i+1)*dim], bestDist); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

// Quantizer maps float32 vectors onto the uint8 grid used by the PIM path.
// Quantization is affine: q = round((x - Bias) / Scale), clamped to [0,255].
type Quantizer struct {
	Scale float32 // grid step; > 0
	Bias  float32 // value represented by code 0
}

// FitQuantizer derives an affine uint8 quantizer covering the min..max range
// of the given flat data. A degenerate (constant) input yields Scale 1.
func FitQuantizer(data []float32) Quantizer {
	if len(data) == 0 {
		return Quantizer{Scale: 1}
	}
	lo, hi := data[0], data[0]
	for _, x := range data {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	scale := (hi - lo) / 255
	if scale <= 0 {
		scale = 1
	}
	return Quantizer{Scale: scale, Bias: lo}
}

// Encode quantizes one float32 value to its uint8 code.
func (q Quantizer) Encode(x float32) uint8 {
	v := math.Round(float64((x - q.Bias) / q.Scale))
	if v < 0 {
		v = 0
	}
	if v > 255 {
		v = 255
	}
	return uint8(v)
}

// EncodeVec quantizes src into dst (same length).
func (q Quantizer) EncodeVec(dst []uint8, src []float32) {
	_ = dst[len(src)-1]
	for i, x := range src {
		dst[i] = q.Encode(x)
	}
}

// EncodeAll quantizes a whole flat float32 corpus into a fresh uint8 corpus.
func (q Quantizer) EncodeAll(src []float32) []uint8 {
	dst := make([]uint8, len(src))
	q.EncodeVec(dst, src)
	return dst
}

// U8ToF32 widens a uint8 vector to float32 without rescaling; used when the
// corpus is already natively uint8 (e.g. SIFT).
func U8ToF32(dst []float32, src []uint8) {
	_ = dst[len(src)-1]
	for i, c := range src {
		dst[i] = float32(c)
	}
}

// ADCF32 accumulates an asymmetric PQ distance from a float32 lookup table.
// lut holds M contiguous rows of cb entries; code holds M entries indexing
// into the corresponding row.
func ADCF32(lut []float32, code []uint16, cb int) float32 {
	var sum float32
	for m, c := range code {
		sum += lut[m*cb+int(c)]
	}
	return sum
}

// ADCU32 is the integer-domain twin of ADCF32 used on the PIM path.
func ADCU32(lut []uint32, code []uint16, cb int) uint32 {
	var sum uint32
	for m, c := range code {
		sum += lut[m*cb+int(c)]
	}
	return sum
}

// qeSumM8 gathers the per-query decomposition term Σ_m qe[m*cb+code_m] for
// one M=8 code row (int32 domain, four accumulators).
func qeSumM8(qe []int32, code []uint16, cb int) int32 {
	_ = code[7]
	s0 := qe[int(code[0])] + qe[4*cb+int(code[4])]
	s1 := qe[cb+int(code[1])] + qe[5*cb+int(code[5])]
	s2 := qe[2*cb+int(code[2])] + qe[6*cb+int(code[6])]
	s3 := qe[3*cb+int(code[3])] + qe[7*cb+int(code[7])]
	return (s0 + s1) + (s2 + s3)
}

// qeSumM16 is qeSumM8 for M=16.
func qeSumM16(qe []int32, code []uint16, cb int) int32 {
	_ = code[15]
	s0 := qe[int(code[0])] + qe[4*cb+int(code[4])] +
		qe[8*cb+int(code[8])] + qe[12*cb+int(code[12])]
	s1 := qe[cb+int(code[1])] + qe[5*cb+int(code[5])] +
		qe[9*cb+int(code[9])] + qe[13*cb+int(code[13])]
	s2 := qe[2*cb+int(code[2])] + qe[6*cb+int(code[6])] +
		qe[10*cb+int(code[10])] + qe[14*cb+int(code[14])]
	s3 := qe[3*cb+int(code[3])] + qe[7*cb+int(code[7])] +
		qe[11*cb+int(code[11])] + qe[15*cb+int(code[15])]
	return (s0 + s1) + (s2 + s3)
}

// qeSum is the generic-width fallback of qeSumM8/qeSumM16.
func qeSum(qe []int32, code []uint16, cb int) int32 {
	var s int32
	for m, c := range code {
		s += qe[m*cb+int(c)]
	}
	return s
}

// qeSumM16CB256 is qeSumM16 further specialized for CB=256: each row is
// re-sliced to a provable length of 256 and indexed through a &255 mask, so
// the compiler drops every gather bounds check. Codes must be < 256 (the
// packing guarantees it for CB=256 indexes).
func qeSumM16CB256(qe []int32, code []uint16) int32 {
	_ = code[15]
	_ = qe[16*256-1]
	r0, r4 := qe[0*256:][:256], qe[4*256:][:256]
	r8, r12 := qe[8*256:][:256], qe[12*256:][:256]
	s0 := r0[code[0]&255] + r4[code[4]&255] + r8[code[8]&255] + r12[code[12]&255]
	r1, r5 := qe[1*256:][:256], qe[5*256:][:256]
	r9, r13 := qe[9*256:][:256], qe[13*256:][:256]
	s1 := r1[code[1]&255] + r5[code[5]&255] + r9[code[9]&255] + r13[code[13]&255]
	r2, r6 := qe[2*256:][:256], qe[6*256:][:256]
	r10, r14 := qe[10*256:][:256], qe[14*256:][:256]
	s2 := r2[code[2]&255] + r6[code[6]&255] + r10[code[10]&255] + r14[code[14]&255]
	r3, r7 := qe[3*256:][:256], qe[7*256:][:256]
	r11, r15 := qe[11*256:][:256], qe[15*256:][:256]
	s3 := r3[code[3]&255] + r7[code[7]&255] + r11[code[11]&255] + r15[code[15]&255]
	return (s0 + s1) + (s2 + s3)
}

// ADCResidualBatch fills dst[i] = uint32(base + bsum[i] - 2*Σ_m
// qe[m*cb+code_im]) — the algebraically decomposed twin of ADCU32: base is
// the per-(query, cluster) scalar term, bsum the precomputed static per-point
// term, and qe the per-query gather table (see ivf.LUTBuilder). Every partial
// sum stays far below int32 overflow, so the result is bit-identical to
// materializing the group's LUT and summing it with ADCU32 per point.
func ADCResidualBatch(dst []uint32, qe []int32, codes []uint16, bsum []int32, base int32, m, cb int) {
	_ = bsum[len(dst)-1]
	switch {
	case m == 16 && cb == 256:
		for i := range dst {
			dst[i] = uint32(base + bsum[i] - 2*qeSumM16CB256(qe, codes[i*16:i*16+16]))
		}
	case m == 8:
		for i := range dst {
			dst[i] = uint32(base + bsum[i] - 2*qeSumM8(qe, codes[i*8:i*8+8], cb))
		}
	case m == 16:
		for i := range dst {
			dst[i] = uint32(base + bsum[i] - 2*qeSumM16(qe, codes[i*16:i*16+16], cb))
		}
	default:
		for i := range dst {
			dst[i] = uint32(base + bsum[i] - 2*qeSum(qe, codes[i*m:(i+1)*m], cb))
		}
	}
}

// ADCPartialU32 adds to dst[i] the LUT entries point rows[i] of the packed
// code matrix reads in the listed subspaces: dst[i] += Σ_{s in subs}
// lut[s*cb+code_{rows[i],s}]. Summing it over a partition of the subspaces,
// from zero, reproduces ADCU32 exactly — it is the partial distance a staged
// scan compares against a bound between stages.
func ADCPartialU32(dst []uint32, lut []uint32, codes []uint16, rows []int32, subs []uint16, m, cb int) {
	rows = rows[:len(dst)]
	switch {
	case len(subs) == m: // every subspace: the order is immaterial
		for i, r := range rows {
			dst[i] += ADCU32(lut, codes[int(r)*m:][:m], cb)
		}
		return
	case len(subs) == 2:
		s0, s1 := int(subs[0]), int(subs[1])
		r0, r1 := lut[s0*cb:][:cb], lut[s1*cb:][:cb]
		for i, r := range rows {
			code := codes[int(r)*m:][:m]
			dst[i] += r0[code[s0]] + r1[code[s1]]
		}
		return
	}
	for i := range dst {
		code := codes[int(rows[i])*m:][:m]
		var s uint32
		for _, sub := range subs {
			s += lut[int(sub)*cb+int(code[sub])]
		}
		dst[i] += s
	}
}

// ADCResidualPartial is ADCPartialU32 over the decomposed LUT (see
// ivf.LUTBuilder): an entry is p_s + b[s*cb+e] - 2*qe[s*cb+e], and base is
// Σ_{s in subs} p_s. Entries are squared distances, so each stage's sum is
// non-negative and the conversion to uint32 is exact.
func ADCResidualPartial(dst []uint32, qe, b []int32, codes []uint16, rows []int32, subs []uint16, base int32, m, cb int) {
	rows = rows[:len(dst)]
	switch {
	case len(subs) == m && m == 16 && cb == 256: // every subspace: the order is immaterial
		for i, r := range rows {
			code := codes[int(r)*16:][:16]
			dst[i] += uint32(base + qeSumM16CB256(b, code) - 2*qeSumM16CB256(qe, code))
		}
		return
	case len(subs) == m:
		for i, r := range rows {
			code := codes[int(r)*m:][:m]
			dst[i] += uint32(base + qeSum(b, code, cb) - 2*qeSum(qe, code, cb))
		}
		return
	case len(subs) == 2:
		s0, s1 := int(subs[0]), int(subs[1])
		q0, q1 := qe[s0*cb:][:cb], qe[s1*cb:][:cb]
		b0, b1 := b[s0*cb:][:cb], b[s1*cb:][:cb]
		for i, r := range rows {
			code := codes[int(r)*m:][:m]
			e0, e1 := code[s0], code[s1]
			dst[i] += uint32(base + (b0[e0] + b1[e1]) - 2*(q0[e0]+q1[e1]))
		}
		return
	}
	for i := range dst {
		code := codes[int(rows[i])*m:][:m]
		s := base
		for _, sub := range subs {
			o := int(sub)*cb + int(code[sub])
			s += b[o] - 2*qe[o]
		}
		dst[i] += uint32(s)
	}
}

// DotU8I32 returns the exact int32 inner product of two uint8 vectors of
// equal length (bounded by dim * 255^2, far below overflow for dim <= 2^15).
func DotU8I32(a, b []uint8) int32 {
	_ = b[len(a)-1]
	var s int32
	for i, av := range a {
		s += int32(av) * int32(b[i])
	}
	return s
}

// MeanVec computes the per-dimension mean of a flat corpus with n rows of
// length dim into a fresh vector.
func MeanVec(data []float32, dim int) []float32 {
	n := len(data) / dim
	mean := make([]float32, dim)
	if n == 0 {
		return mean
	}
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		for j, x := range row {
			mean[j] += x
		}
	}
	inv := 1 / float32(n)
	for j := range mean {
		mean[j] *= inv
	}
	return mean
}
