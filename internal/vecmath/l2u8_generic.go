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
