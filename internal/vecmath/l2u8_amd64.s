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

// ROW squares and pairs the differences of q's block, Y8, from the block of
// the row at base, into Y.
#define ROW(base, Y) \
	VPMOVZXBW (base)(BX*1), Y; \
	VPSUBW    Y, Y8, Y; \
	VPMADDWD  Y, Y, Y

// func l2u8RowsAVX2(sums []uint32, q, base []uint8, off *[8]int, bound, first *[8]uint32) (blocks int)
//
// The whole blocks of L2U8Rows.Run, eight rows a pass, row r at base+off[r];
// len(q) >= 16. Each lane's squared differences are paired by VPMADDWD, one
// VPHADDD tree sums all eight lanes' blocks, and the running sums are stored
// after every block. first counts, per lane, the blocks before its sum first
// passes its bound (unsigned: at or under while max(sum, bound) == bound);
// the pass stops, the last block excepted, once every lane has passed.
TEXT ·l2u8RowsAVX2(SB), NOSPLIT, $0-104
	MOVQ     sums_base+0(FP), DI
	MOVQ     q_base+24(FP), SI
	MOVQ     base_base+48(FP), AX
	MOVQ     off+72(FP), R13
	MOVQ     8(R13), DX
	ADDQ     AX, DX
	MOVQ     16(R13), R8
	ADDQ     AX, R8
	MOVQ     24(R13), R9
	ADDQ     AX, R9
	MOVQ     32(R13), R10
	ADDQ     AX, R10
	MOVQ     40(R13), R11
	ADDQ     AX, R11
	MOVQ     48(R13), R12
	ADDQ     AX, R12
	MOVQ     56(R13), CX
	ADDQ     AX, CX
	ADDQ     (R13), AX
	MOVQ     CX, R13
	MOVQ     q_len+32(FP), CX
	ANDQ     $~15, CX      // bytes in whole blocks
	MOVQ     bound+80(FP), BX
	VMOVDQU  (BX), Y15
	VPXOR    Y14, Y14, Y14 // running sums
	VPXOR    Y12, Y12, Y12 // blocks before each lane passed its bound
	VPCMPEQD Y13, Y13, Y13 // lanes not yet past their bound
	XORQ     BX, BX        // the block's first byte

block:
	VPMOVZXBW  (SI)(BX*1), Y8
	ROW(AX, Y0)
	ROW(DX, Y1)
	ROW(R8, Y2)
	ROW(R9, Y3)
	ROW(R10, Y4)
	ROW(R11, Y5)
	ROW(R12, Y6)
	ROW(R13, Y7)
	VPHADDD    Y1, Y0, Y0 // rows 0 1, quarter sums
	VPHADDD    Y3, Y2, Y2
	VPHADDD    Y5, Y4, Y4
	VPHADDD    Y7, Y6, Y6
	VPHADDD    Y2, Y0, Y0 // rows 0 1 2 3 | 0 1 2 3, half sums
	VPHADDD    Y6, Y4, Y4 // rows 4 5 6 7 | 4 5 6 7
	VPERM2I128 $0x20, Y4, Y0, Y1
	VPERM2I128 $0x31, Y4, Y0, Y2
	VPADDD     Y2, Y1, Y1
	VPADDD     Y1, Y14, Y14
	VMOVDQU    Y14, (DI)
	VPMAXUD    Y15, Y14, Y0
	VPCMPEQD   Y15, Y0, Y0 // lanes at or under their bound
	VPAND      Y0, Y13, Y13
	VPSUBD     Y13, Y12, Y12
	ADDQ       $32, DI
	ADDQ       $16, BX
	CMPQ       BX, CX
	JEQ        done
	VPTEST     Y13, Y13
	JNZ        block

done:
	MOVQ    first+88(FP), DI
	VMOVDQU Y12, (DI)
	SHRQ    $4, BX
	MOVQ    BX, blocks+96(FP)
	VZEROUPPER
	RET
