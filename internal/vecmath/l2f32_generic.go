//go:build !amd64 || purego

package vecmath

// useAVX2 is false where the AVX2 kernels are not built.
var useAVX2 = false

func argMin8T(dist *[8]float32, blk *[8]int32, ct, q []float32) { argMin8TGo(dist, blk, ct, q) }

func minL2F32T(d2, pt, v []float32) { minL2F32TGo(d2, pt, v) }

func dotRows8AVX2(out []int32, rows []int16, q *[8]uint8) { panic("vecmath: no AVX2 kernels") }

func l2u8RowsAVX2(sums []uint32, q, base []uint8, off *[8]int, bound, first *[8]uint32) int {
	panic("vecmath: no AVX2 kernels")
}
