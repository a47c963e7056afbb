package vecmath

import (
	"fmt"
	"math"
	"slices"
)

// Transpose8 lays k rows of dim floats out for the float kernels: block b
// holds rows 8b to 8b+7 dimension-major, dimension j of row 8b+r at
// (b*dim+j)*8+r, and +Inf rows pad k to whole pairs of blocks, the kernels'
// step. A padding row is +Inf from every finite vector, so it never wins.
func Transpose8(rows []float32, dim int) []float32 {
	if dim <= 0 || len(rows)%dim != 0 {
		panic(fmt.Sprintf("vecmath: %d floats are not rows of %d", len(rows), dim))
	}
	k := len(rows) / dim
	t := slices.Repeat([]float32{float32(math.Inf(1))}, (k+15)/16*16*dim)
	for r := range k {
		for j, x := range rows[r*dim : (r+1)*dim] {
			t[(r/8*dim+j)*8+r%8] = x
		}
	}
	return t
}

// ArgMinL2F32T returns the index of the row of ct = Transpose8(centroids,
// dim) nearest to query and its squared distance, L2SquaredF32's bits: the
// first index wins a tie, and (0, MaxFloat32) comes back when no distance is
// below MaxFloat32. It panics if ct is empty or not whole pairs of blocks.
//
// Each lane keeps its strictly smaller distances, and a pass of two blocks
// is abandoned once every lane is above the least of the lanes' minima, which
// is never below the answer; the minimum of the lanes goes to its first index.
func ArgMinL2F32T(query, ct []float32, dim int) (int, float32) {
	if dim <= 0 || len(ct) == 0 || len(ct)%(16*dim) != 0 {
		panic(fmt.Sprintf("vecmath: bad transposed centroid matrix len=%d dim=%d", len(ct), dim))
	}
	const m = math.MaxFloat32
	dist, blk := [8]float32{m, m, m, m, m, m, m, m}, [8]int32{}
	argMin8T(&dist, &blk, ct, query[:dim])
	best, bestDist := 0, float32(m)
	for r, d := range dist {
		if i := int(blk[r])*8 + r; d < bestDist || d == bestDist && i < best {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

// MinL2F32T lowers d2[i] to the squared distance from v of row i of pt =
// Transpose8(points, len(v)), L2SquaredF32's bits, where that is strictly
// smaller; d2 holds one entry a row of pt, padding included. A pass is
// abandoned once every lane is above its d2, which it could not then lower.
// It panics if pt is not whole pairs of blocks or d2 is not one entry a row.
func MinL2F32T(d2, pt, v []float32) {
	if len(v) == 0 || len(pt)%(16*len(v)) != 0 || len(d2) != len(pt)/len(v) {
		panic(fmt.Sprintf("vecmath: %d distances for %d transposed floats of dim %d", len(d2), len(pt), len(v)))
	}
	minL2F32T(d2, pt, v)
}

// argMin8TGo is argMin8T's scalar twin, step for step: the least of the
// lanes' minima bounds each pass, and a pass summed to the end updates each
// lane from its first block, then its second, under a strict <.
func argMin8TGo(dist *[8]float32, blk *[8]int32, ct, q []float32) {
	var sum, bound [16]float32
	for b := 0; b*8*len(q) < len(ct); b += 2 {
		least := slices.Min(dist[:])
		for r := range bound {
			bound[r] = least
		}
		if !sumPair(&sum, ct[b*8*len(q):][:16*len(q)], q, &bound) {
			continue
		}
		for r, s := range sum {
			if s < dist[r%8] {
				dist[r%8], blk[r%8] = s, int32(b+r/8)
			}
		}
	}
}

// minL2F32TGo is minL2F32T's scalar twin, step for step.
func minL2F32TGo(d2, pt, v []float32) {
	var sum [16]float32
	for i := 0; i < len(d2); i += 16 {
		lanes := (*[16]float32)(d2[i:])
		sumPair(&sum, pt[i*len(v):][:16*len(v)], v, lanes)
		for r, s := range sum {
			if s < lanes[r] {
				lanes[r] = s
			}
		}
	}
}

// sumPair sets sum[r] to the squared distance from v of lane r of the two
// blocks in pair, summed in dimension order, and stops at a checkpoint
// (every AbandonStride dimensions, the last excepted) once no lane is at or
// under its bound. It reports whether it summed every dimension.
func sumPair(sum *[16]float32, pair, v []float32, bound *[16]float32) bool {
	*sum = [16]float32{}
	dim := len(v)
	for j := 0; j < dim; j += AbandonStride {
		end := min(j+AbandonStride, dim)
		sum8((*[8]float32)(sum[:8]), pair[8*j:8*end], v[j:end])
		sum8((*[8]float32)(sum[8:]), pair[8*(dim+j):8*(dim+end)], v[j:end])
		above := end < dim
		for r, s := range sum {
			above = above && !(s <= bound[r])
		}
		if above {
			return false
		}
	}
	return true
}

// sum8 adds to lane r of s, in dimension order, the squared differences from
// v of lane r of one block, dimension j at rows[8j+r], its sums in registers.
func sum8(s *[8]float32, rows, v []float32) {
	s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	for j, x := range v {
		r := (*[8]float32)(rows[8*j:])
		d0, d1, d2, d3, d4, d5, d6, d7 := x-r[0], x-r[1], x-r[2], x-r[3], x-r[4], x-r[5], x-r[6], x-r[7]
		s0, s1, s2, s3 = s0+d0*d0, s1+d1*d1, s2+d2*d2, s3+d3*d3
		s4, s5, s6, s7 = s4+d4*d4, s5+d5*d5, s6+d6*d6, s7+d7*d7
	}
	*s = [8]float32{s0, s1, s2, s3, s4, s5, s6, s7}
}
