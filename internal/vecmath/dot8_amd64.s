//go:build !purego

#include "textflag.h"

// func dotRows8AVX2(out []int32, rows []int16, q *[8]uint8)
//
// One subspace of DotRows8, eight rows a pass; len(out) is a positive
// multiple of eight. VPMADDWD pairs two rows' products with the query's
// bytes (int16, both lanes) into four int32 a row, two VPHADDD rounds finish
// the sums, and VPERMD puts them in row order.
TEXT ·dotRows8AVX2(SB), NOSPLIT, $0-56
	MOVQ        out_base+0(FP), DI
	MOVQ        out_len+8(FP), CX
	MOVQ        rows_base+24(FP), SI
	MOVQ        q+48(FP), DX
	VPMOVZXBW   (DX), X0
	VINSERTI128 $1, X0, Y0, Y0
	VMOVDQU     rowOrder<>(SB), Y5

pass:
	VPMADDWD (SI), Y0, Y1 // rows 0 | 1
	VPMADDWD 32(SI), Y0, Y2
	VPMADDWD 64(SI), Y0, Y3
	VPMADDWD 96(SI), Y0, Y4
	VPHADDD  Y2, Y1, Y1
	VPHADDD  Y4, Y3, Y3
	VPHADDD  Y3, Y1, Y1   // rows 0 2 4 6 | 1 3 5 7
	VPERMD   Y1, Y5, Y1
	VMOVDQU  Y1, (DI)
	ADDQ     $128, SI
	ADDQ     $32, DI
	SUBQ     $8, CX
	JNZ      pass
	VZEROUPPER
	RET
DATA rowOrder<>+0(SB)/8, $0x0000000400000000
DATA rowOrder<>+8(SB)/8, $0x0000000500000001
DATA rowOrder<>+16(SB)/8, $0x0000000600000002
DATA rowOrder<>+24(SB)/8, $0x0000000700000003
GLOBL rowOrder<>(SB), RODATA|NOPTR, $32
