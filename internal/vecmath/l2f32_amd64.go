//go:build !purego

package vecmath

import "math"

// l2f32x8 is L2SquaredF32x8's SSE2 kernel (l2f32_amd64.s).
//
//go:noescape
func l2f32x8(dist *[8]float32, rows, v []float32, bound *[8]float32)

// argMinBlocks scans eight centroids a call to l2f32x8, each lane bounded by
// the best distance so far, which only falls, and compares the lanes in index
// order under a strict <. It returns the rows scanned, a multiple of eight,
// and the best of them.
func argMinBlocks(query, centroids []float32, dim, k int) (n, best int, bestDist float32) {
	bestDist = math.MaxFloat32
	var dist, bound [8]float32
	for ; n+8 <= k; n += 8 {
		bound = [8]float32{bestDist, bestDist, bestDist, bestDist, bestDist, bestDist, bestDist, bestDist}
		l2f32x8(&dist, centroids[n*dim:(n+8)*dim], query, &bound)
		for r, d := range dist {
			if d < bestDist {
				best, bestDist = n+r, d
			}
		}
	}
	return n, best, bestDist
}
