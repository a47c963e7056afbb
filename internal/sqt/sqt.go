// Package sqt implements the squaring lookup tables (SQTs) of DRIM-ANN's
// multiplier-less conversion (paper §3.1). UPMEM DPUs have no hardware
// multiplier, so a multiplication costs ~32 add-equivalent cycles; the L2
// kernels only ever square values, so a table indexed by |a-b| replaces each
// multiplication with one absolute value and one load, losslessly.
//
// The engine quantizes to 8 bits, so operands are differences of
// 8-bit-quantized values, |d| <= 510, and the full table SQT8 (511 x 4 B ≈
// 2 KB) fits in WRAM.
package sqt

// MaxDiff8 is the largest |a-b| when a and b are differences of two
// uint8-quantized values (residual minus codebook entry, both in
// [-255, 255]).
const MaxDiff8 = 510

// SQT8 is a full squaring table for the 8-bit quantization mode.
type SQT8 struct {
	table [MaxDiff8 + 1]uint32
}

// NewSQT8 builds the full 8-bit-mode squaring table.
func NewSQT8() *SQT8 {
	t := &SQT8{}
	for d := 0; d <= MaxDiff8; d++ {
		t.table[d] = uint32(d * d)
	}
	return t
}

// Square returns d*d via table lookup. d must be in [-MaxDiff8, MaxDiff8].
func (t *SQT8) Square(d int32) uint32 {
	if d < 0 {
		d = -d
	}
	return t.table[d]
}
