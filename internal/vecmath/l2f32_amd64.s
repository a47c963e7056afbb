//go:build !purego

#include "textflag.h"

// func hasAVX2() bool
//
// CPUID leaf 1 must report AVX and OSXSAVE, XGETBV the XMM and YMM state
// enabled, and leaf 7 AVX2.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	SHRL  $5, BX
	ANDL  $1, BX
	MOVB  BX, ret+0(FP)

no:
	RET

// PAIR adds dimension R9 of the vector at DI to the lanes of the pair of
// blocks at SI and SI+R8, Y0 and Y1, with a separate subtract, multiply and
// add, then steps SI and R9 to the next dimension.
#define PAIR \
	VBROADCASTSS (DI)(R9*4), Y8; \
	VSUBPS       (SI), Y8, Y2; \
	VSUBPS       (SI)(R8*1), Y8, Y3; \
	VMULPS       Y2, Y2, Y2; \
	VMULPS       Y3, Y3, Y3; \
	VADDPS       Y2, Y0, Y0; \
	VADDPS       Y3, Y1, Y1; \
	ADDQ         $32, SI; \
	INCQ         R9

// UNDER sets R11 to the mask of lanes of Y0 at or under b0 and of Y1 at or
// under b1, NaN lanes excluded.
#define UNDER(b0, b1) \
	VCMPPS    $2, b0, Y0, Y4; \
	VCMPPS    $2, b1, Y1, Y5; \
	VORPS     Y5, Y4, Y4; \
	VMOVMSKPS Y4, R11

// KEEP keeps in each lane of Y10 the smaller of it and sum under a strict <,
// setting that lane of Y11 to the block number in Y9 where sum is kept.
#define KEEP(sum) \
	VCMPPS    $1, Y10, sum, Y4; \
	VMINPS    Y10, sum, Y10; \
	VBLENDVPS Y4, Y9, Y11, Y11

// LEAST sets every lane of Y12 to the least lane of Y10.
#define LEAST \
	VPERM2F128 $1, Y10, Y10, Y12; \
	VMINPS     Y12, Y10, Y12; \
	VPERMILPS  $0x4e, Y12, Y13; \
	VMINPS     Y13, Y12, Y12; \
	VPERMILPS  $0xb1, Y12, Y13; \
	VMINPS     Y13, Y12, Y12

// func argMin8TAVX2(dist *[8]float32, blk *[8]int32, ct, q []float32)
//
// The AVX2 body of ArgMinL2F32T over ct's whole pairs of blocks of len(q) > 0
// dimensions. dist and blk carry each lane's minimum and its block in and
// out. After every AbandonStride dimensions but the last, a pass stops if no
// lane is at or under the least of the lanes' minima; a pass summed to the
// end keeps its first block's lanes, then its second's.
TEXT ·argMin8TAVX2(SB), NOSPLIT, $0-64
	MOVQ     dist+0(FP), AX
	MOVQ     blk+8(FP), BX
	MOVQ     ct_base+16(FP), SI
	MOVQ     ct_len+24(FP), DX
	MOVQ     q_base+40(FP), DI
	MOVQ     q_len+48(FP), CX
	VMOVUPS  (AX), Y10         // each lane's minimum
	VMOVDQU  (BX), Y11         // and its block
	LEAQ     (SI)(DX*4), DX    // end of ct
	MOVQ     CX, R8
	SHLQ     $5, R8            // bytes in a block
	VPXOR    Y9, Y9, Y9        // the pass's first block, every lane
	VPCMPEQD Y15, Y15, Y15     // -1, every lane
	LEAST

pass:
	CMPQ   SI, DX
	JGE    out
	MOVQ   SI, R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ   R9, R9

dim:
	PAIR
	CMPQ  R9, CX
	JEQ   keep
	TESTQ $15, R9
	JNZ   dim
	UNDER(Y12, Y12)
	TESTL R11, R11
	JNZ   dim
	VPSUBD Y15, Y9, Y9
	JMP   next

keep:
	KEEP(Y0)
	VPSUBD Y15, Y9, Y9
	KEEP(Y1)
	LEAST

next:
	VPSUBD Y15, Y9, Y9
	LEAQ   (R10)(R8*2), SI
	JMP    pass

out:
	VMOVUPS Y10, (AX)
	VMOVDQU Y11, (BX)
	VZEROUPPER
	RET

// func minL2F32TAVX2(d2, pt, v []float32)
//
// The AVX2 body of MinL2F32T over pt's whole pairs of blocks of len(v) > 0
// dimensions, each lane bounded by its own d2 entry. After every
// AbandonStride dimensions but the last, a pass stops if no lane is at or
// under its bound; either way each d2 entry keeps the smaller of it and its
// lane under a strict <, and a stopped lane is above it.
TEXT ·minL2F32TAVX2(SB), NOSPLIT, $0-72
	MOVQ d2_base+0(FP), AX
	MOVQ pt_base+24(FP), SI
	MOVQ pt_len+32(FP), DX
	MOVQ v_base+48(FP), DI
	MOVQ v_len+56(FP), CX
	LEAQ (SI)(DX*4), DX // end of pt
	MOVQ CX, R8
	SHLQ $5, R8         // bytes in a block

pass:
	CMPQ    SI, DX
	JGE     out
	MOVQ    SI, R10
	VMOVUPS (AX), Y12
	VMOVUPS 32(AX), Y13
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	XORQ    R9, R9

dim:
	PAIR
	CMPQ  R9, CX
	JEQ   keep
	TESTQ $15, R9
	JNZ   dim
	UNDER(Y12, Y13)
	TESTL R11, R11
	JNZ   dim

keep:
	VMINPS  Y12, Y0, Y12
	VMINPS  Y13, Y1, Y13
	VMOVUPS Y12, (AX)
	VMOVUPS Y13, 32(AX)
	ADDQ    $64, AX
	LEAQ    (R10)(R8*2), SI
	JMP     pass

out:
	VZEROUPPER
	RET
