//go:build !purego

package vecmath

// l2u8 is L2SquaredU8Bounded's SSE2 kernel (l2u8_amd64.s); len(b) >= len(a) > 0.
//
//go:noescape
func l2u8(a, b []uint8, bound uint32) (sum uint32, dims int)
