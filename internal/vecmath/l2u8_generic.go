//go:build !amd64 || purego

package vecmath

// l2u8 is L2SquaredU8Bounded's scalar kernel; len(b) >= len(a).
func l2u8(a, b []uint8, bound uint32) (uint32, int) {
	b = b[:len(a)]
	var sum uint32
	lo := 0
	for ; lo+AbandonStride <= len(a); lo += AbandonStride {
		sum += l2u8Block((*[AbandonStride]uint8)(a[lo:]), (*[AbandonStride]uint8)(b[lo:]))
		if sum > bound {
			return sum, lo + AbandonStride
		}
	}
	for i, xv := range a[lo:] {
		d := int32(xv) - int32(b[lo+i])
		sum += uint32(d * d)
	}
	return sum, len(a)
}

// l2u8Block is one block of l2u8, over four accumulators (uint32 addition is
// associative, so the sum is the same).
func l2u8Block(x, y *[AbandonStride]uint8) uint32 {
	var s0, s1, s2, s3 uint32
	for i := 0; i < AbandonStride; i += 4 {
		d0, d1 := int32(x[i])-int32(y[i]), int32(x[i+1])-int32(y[i+1])
		d2, d3 := int32(x[i+2])-int32(y[i+2]), int32(x[i+3])-int32(y[i+3])
		s0 += uint32(d0 * d0)
		s1 += uint32(d1 * d1)
		s2 += uint32(d2 * d2)
		s3 += uint32(d3 * d3)
	}
	return (s0 + s1) + (s2 + s3)
}
