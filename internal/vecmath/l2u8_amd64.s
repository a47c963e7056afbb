//go:build !purego

#include "textflag.h"

// ROW squares and pairs the differences of q's block, Y8, from the block of
// the row at base, into Y.
#define ROW(base, Y) \
	VPMOVZXBW (base)(BX*1), Y; \
	VPSUBW    Y, Y8, Y; \
	VPMADDWD  Y, Y, Y

// TAILROW is ROW on the words the mask Y9 keeps.
#define TAILROW(base, Y) \
	VPMOVZXBW (base)(BX*1), Y; \
	VPSUBW    Y, Y8, Y; \
	VPAND     Y9, Y, Y; \
	VPMADDWD  Y, Y, Y

// tailMask<>+2n masks a tail of n bytes summed as the last 16: the first
// 16-n words, summed in the block before, are zero.
DATA  tailMask<>+32(SB)/8, $-1
DATA  tailMask<>+40(SB)/8, $-1
DATA  tailMask<>+48(SB)/8, $-1
DATA  tailMask<>+56(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func l2u8RowsAVX2(sums []uint32, q, base []uint8, off *[8]int, bound, first *[8]uint32) (blocks int)
//
// The blocks of L2U8Rows.Run, eight rows a pass, row r at base+off[r];
// len(q) >= 16. Each lane's squared differences are paired by VPMADDWD, one
// VPHADDD tree sums all eight lanes' blocks, and the running sums are stored
// after every block. A len(q)%16 tail is one more block, the last 16 bytes
// masked to the words the whole blocks left, so no row is read past its end.
// first counts, per lane, the blocks before its sum first passes its bound
// (unsigned: at or under while max(sum, bound) == bound); the pass stops, the
// last whole block and the tail excepted, once every lane has passed.
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

sum:
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
	JEQ        tail
	VPTEST     Y13, Y13
	JNZ        block
	JMP        done

tail:
	MOVQ      q_len+32(FP), BX
	CMPQ      BX, CX
	JEQ       done               // no tail, or the tail summed
	SUBQ      CX, BX             // the tail's bytes
	LEAQ      tailMask<>(SB), CX
	VMOVDQU   (CX)(BX*2), Y9
	MOVQ      q_len+32(FP), CX
	LEAQ      -16(CX), BX        // the last 16 bytes
	VPMOVZXBW (SI)(BX*1), Y8
	TAILROW(AX, Y0)
	TAILROW(DX, Y1)
	TAILROW(R8, Y2)
	TAILROW(R9, Y3)
	TAILROW(R10, Y4)
	TAILROW(R11, Y5)
	TAILROW(R12, Y6)
	TAILROW(R13, Y7)
	JMP       sum

done:
	MOVQ    first+88(FP), DI
	VMOVDQU Y12, (DI)
	ADDQ    $15, BX
	SHRQ    $4, BX
	MOVQ    BX, blocks+96(FP)
	VZEROUPPER
	RET
