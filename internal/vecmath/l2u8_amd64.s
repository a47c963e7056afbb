//go:build !purego

#include "textflag.h"

// func l2u8(a, b []uint8, bound uint32) (sum uint32, dims int)
//
// The SSE2 body of L2SquaredU8Bounded; b is at least as long as a. Each
// 16-byte block (one AbandonStride) widens both vectors to 16-bit lanes,
// subtracts, and squares and pairs the differences into four 32-bit lanes
// with PMADDWL; the lanes are folded into the running sum after every block,
// which stops the scan once it is strictly above bound. The len(a)%16 tail
// is summed a byte at a time and never checked.
TEXT ·l2u8(SB), NOSPLIT, $0-72
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	MOVL bound+48(FP), DX
	XORL AX, AX // running sum
	XORL BX, BX // dimensions summed
	PXOR X0, X0
	MOVQ CX, R9
	ANDQ $~15, R9 // dimensions in whole blocks
	JZ   tail

block:
	MOVOU     (SI)(BX*1), X1
	MOVOU     (DI)(BX*1), X3
	MOVO      X1, X2
	MOVO      X3, X4
	PUNPCKLBW X0, X1
	PUNPCKHBW X0, X2
	PUNPCKLBW X0, X3
	PUNPCKHBW X0, X4
	PSUBW     X3, X1
	PSUBW     X4, X2
	PMADDWL   X1, X1
	PMADDWL   X2, X2
	PADDL     X2, X1
	PSHUFD    $0x4e, X1, X2
	PADDL     X2, X1
	PSHUFD    $0xb1, X1, X2
	PADDL     X2, X1
	MOVL      X1, R8
	ADDL      R8, AX
	ADDQ      $16, BX
	CMPL      AX, DX
	JHI       done
	CMPQ      BX, R9
	JLT       block

tail:
	CMPQ    BX, CX
	JGE     done
	MOVBLZX (SI)(BX*1), R8
	MOVBLZX (DI)(BX*1), R10
	SUBL    R10, R8
	IMULL   R8, R8
	ADDL    R8, AX
	INCQ    BX
	JMP     tail

done:
	MOVL AX, sum+56(FP)
	MOVQ BX, dims+64(FP)
	RET
