//go:build !purego

#include "textflag.h"

// QUAD adds dimensions j..j+3 of the four rows at base (row stride R8, three
// strides R9) to the lanes of acc; v[j:j+4] is in X8. Each row's differences
// are squared in its own register, then the squares are transposed 4x4 so
// that X0, X2, X4 and X5 hold dimensions j to j+3, added in that order.
#define QUAD(base, acc) \
	MOVUPS   (base), X0; \
	MOVUPS   (base)(R8*1), X1; \
	MOVUPS   (base)(R8*2), X2; \
	MOVUPS   (base)(R9*1), X3; \
	SUBPS    X8, X0; \
	SUBPS    X8, X1; \
	SUBPS    X8, X2; \
	SUBPS    X8, X3; \
	MULPS    X0, X0; \
	MULPS    X1, X1; \
	MULPS    X2, X2; \
	MULPS    X3, X3; \
	MOVAPS   X0, X4; \
	UNPCKLPS X1, X0; \
	UNPCKHPS X1, X4; \
	MOVAPS   X2, X5; \
	UNPCKLPS X3, X2; \
	UNPCKHPS X3, X5; \
	MOVAPS   X0, X1; \
	MOVLHPS  X2, X0; \
	MOVHLPS  X1, X2; \
	MOVAPS   X4, X3; \
	MOVLHPS  X5, X4; \
	MOVHLPS  X3, X5; \
	ADDPS    X0, acc; \
	ADDPS    X2, acc; \
	ADDPS    X4, acc; \
	ADDPS    X5, acc

// ONE adds dimension j of the four rows at base to the lanes of acc; v[j]
// is broadcast in X8.
#define ONE(base, acc) \
	MOVSS    (base), X0; \
	MOVSS    (base)(R8*1), X1; \
	MOVSS    (base)(R8*2), X2; \
	MOVSS    (base)(R9*1), X3; \
	UNPCKLPS X1, X0; \
	UNPCKLPS X3, X2; \
	MOVLHPS  X2, X0; \
	SUBPS    X8, X0; \
	MULPS    X0, X0; \
	ADDPS    X0, acc

// func l2f32x8(dist *[8]float32, rows, v []float32, bound *[8]float32)
//
// The SSE2 body of L2SquaredF32x8; rows holds at least 8*len(v) floats.
// Lane r sums row r's squared differences in dimension order with separate
// SUBPS, MULPS and ADDPS, as L2SquaredF32 does. After every AbandonStride
// dimensions the scan stops if every lane is strictly above its bound. The
// len(v)%4 tail is gathered one dimension at a time and never checked.
TEXT ·l2f32x8(SB), NOSPLIT, $0-64
	MOVQ rows_base+8(FP), SI
	MOVQ v_base+32(FP), DI
	MOVQ v_len+40(FP), CX
	MOVQ bound+56(FP), DX
	MOVQ CX, R8
	SHLQ $2, R8            // row stride in bytes
	LEAQ (R8)(R8*2), R9    // three strides
	LEAQ (SI)(R8*4), R10   // row 4
	XORPS X12, X12         // lanes 0-3
	XORPS X13, X13         // lanes 4-7
	XORQ BX, BX            // dimensions summed
	MOVQ CX, R11
	ANDQ $~3, R11          // dimensions in whole quads
	JZ   tail

quad:
	MOVUPS (DI)(BX*4), X8
	QUAD(SI, X12)
	QUAD(R10, X13)
	ADDQ   $16, SI
	ADDQ   $16, R10
	ADDQ   $4, BX
	TESTQ  $15, BX
	JNZ    next
	MOVUPS (DX), X6
	MOVUPS 16(DX), X7
	CMPPS  X12, X6, $1     // bound < sum, lanes 0-3
	CMPPS  X13, X7, $1
	ANDPS  X7, X6
	MOVMSKPS X6, AX
	CMPL   AX, $15
	JEQ    done

next:
	CMPQ BX, R11
	JLT  quad

tail:
	CMPQ   BX, CX
	JGE    done
	MOVSS  (DI)(BX*4), X8
	SHUFPS $0, X8, X8
	ONE(SI, X12)
	ONE(R10, X13)
	ADDQ   $4, SI
	ADDQ   $4, R10
	INCQ   BX
	JMP    tail

done:
	MOVQ   dist+0(FP), AX
	MOVUPS X12, (AX)
	MOVUPS X13, 16(AX)
	RET

// LANES keeps in each lane of min the smaller of it and sum under a strict <
// (a tie or a NaN keeps the earlier block) and, where sum is kept, sets that
// lane of idx to this block's number, X9. X4 and X5 are scratch.
#define LANES(sum, min, idx) \
	MOVAPS X9, X5; \
	MOVAPS sum, X4; \
	CMPPS  min, X4, $1; \
	MINPS  min, sum; \
	MOVAPS sum, min; \
	PAND   X4, X5; \
	PANDN  idx, X4; \
	POR    X5, X4; \
	MOVAPS X4, idx

// func argMin8T(dist *[8]float32, blk *[8]int32, ct, q []float32)
//
// The SSE2 body of ArgMinL2F32T over blocks of eight rows of len(q) > 0
// floats, dimension-major. Lane r sums row r's squared differences from zero
// in dimension order with separate SUBPS, MULPS and ADDPS, as L2SquaredF32
// does; dist and blk carry each lane's minimum and its block in and out.
TEXT ·argMin8T(SB), NOSPLIT, $0-64
	MOVQ    dist+0(FP), AX
	MOVQ    blk+8(FP), BX
	MOVQ    ct_base+16(FP), SI
	MOVQ    ct_len+24(FP), DX
	MOVQ    q_base+40(FP), DI
	MOVQ    q_len+48(FP), CX
	MOVUPS  (AX), X10      // minimum, lanes 0-3
	MOVUPS  16(AX), X11    // lanes 4-7
	MOVUPS  (BX), X12      // its block, lanes 0-3
	MOVUPS  16(BX), X13    // lanes 4-7
	LEAQ    (SI)(DX*4), DX // end of ct
	PXOR    X9, X9         // this block, every lane
	PCMPEQL X15, X15       // -1, every lane

block:
	CMPQ  SI, DX
	JGE   out
	XORPS X0, X0
	XORPS X1, X1
	XORQ  R9, R9

dim:
	MOVSS  (DI)(R9*4), X8
	SHUFPS $0, X8, X8
	MOVUPS (SI), X2
	MOVUPS 16(SI), X3
	SUBPS  X8, X2
	SUBPS  X8, X3
	MULPS  X2, X2
	MULPS  X3, X3
	ADDPS  X2, X0
	ADDPS  X3, X1
	ADDQ   $32, SI
	INCQ   R9
	CMPQ   R9, CX
	JLT    dim

	LANES(X0, X10, X12)
	LANES(X1, X11, X13)
	PSUBL X15, X9
	JMP   block

out:
	MOVUPS X10, (AX)
	MOVUPS X11, 16(AX)
	MOVUPS X12, (BX)
	MOVUPS X13, 16(BX)
	RET
