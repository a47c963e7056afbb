//go:build !amd64 || purego

package vecmath

import "math"

// l2f32x8 is L2SquaredF32x8's scalar kernel: one L2SquaredF32Abandon a row.
func l2f32x8(dist *[8]float32, rows, v []float32, bound *[8]float32) {
	for r := range dist {
		dist[r], _ = L2SquaredF32Abandon(rows[r*len(v):][:len(v)], v, bound[r])
	}
}

// argMinBlocks scores four centroids per pass and returns the rows scanned,
// a multiple of four, and the best of them. A block is abandoned once all
// four partial sums exceed the best distance so far: none of the four could
// have won the strict <.
func argMinBlocks(query, centroids []float32, dim, k int) (i, best int, bestDist float32) {
	bestDist = math.MaxFloat32
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
	return i, best, bestDist
}
