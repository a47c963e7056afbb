//go:build !purego

package vecmath

// l2f32x8 is L2SquaredF32x8's SSE2 kernel (l2f32_amd64.s).
//
//go:noescape
func l2f32x8(dist *[8]float32, rows, v []float32, bound *[8]float32)

// argMin8T is ArgMinL2F32T's SSE2 kernel (l2f32_amd64.s).
//
//go:noescape
func argMin8T(dist *[8]float32, blk *[8]int32, ct, q []float32)
