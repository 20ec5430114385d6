#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID                     // EAX: the highest basic leaf
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27 | 1<<28), CX // OSXSAVE, AVX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV                    // XCR0 into DX:AX
	ANDL $6, AX               // SSE and AVX (YMM) state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX               // leaf 7 EBX bit 5: AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
no:
	RET

// func projectAVX2(out, wt, x []float64)
//
// For each block of 32 columns, eight YMM accumulators start at +0 and
// take, for i = 0…len(x)−1, x[i] broadcast times the block's slice of row
// i. A multiply then an add, never a fused multiply-add, and the
// accumulator is the add's first operand: each lane rounds exactly as the
// scalar s += w·v.
TEXT ·projectAVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), DX
	MOVQ wt_base+24(FP), SI
	MOVQ x_base+48(FP), R8
	MOVQ x_len+56(FP), CX
	MOVQ DX, R9
	SHRQ $5, R9               // blocks of 32 columns
	JZ   done
	SHLQ $3, DX               // row stride in bytes

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R10            // &wt[i·len(out)+j], i = 0
	MOVQ   R8, R11            // &x[i]
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     store

	PCALIGN $32
row:
	VBROADCASTSD (R11), Y15
	VMULPD       (R10), Y15, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       32(R10), Y15, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       64(R10), Y15, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       96(R10), Y15, Y11
	VADDPD       Y11, Y3, Y3
	VMULPD       128(R10), Y15, Y12
	VADDPD       Y12, Y4, Y4
	VMULPD       160(R10), Y15, Y13
	VADDPD       Y13, Y5, Y5
	VMULPD       192(R10), Y15, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       224(R10), Y15, Y8
	VADDPD       Y8, Y7, Y7
	ADDQ         $8, R11
	ADDQ         DX, R10
	DECQ         R12
	JNZ          row

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	DECQ    R9
	JNZ     block
	VZEROUPPER

done:
	RET

// LANES updates four lanes of the row at R10 and adds their score terms:
// t = float64(w·c) + float64(a·x[i]) (c in Y12, x[i] in Y13) is stored
// over w, then t·xn[i] (Y14) is added to acc. A multiply then an add,
// never a fused multiply-add, and the accumulator is the add's first
// operand, as in projectAVX2.
#define LANES(off, a, acc) \
	VMULPD  off(R10), Y12, Y8; \
	VMULPD  a, Y13, Y9;        \
	VADDPD  Y9, Y8, Y8;        \
	VMOVUPD Y8, off(R10);      \
	VMULPD  Y14, Y8, Y9;       \
	VADDPD  Y9, acc, acc

// BEGIN zeroes the four accumulators and points R10, R11, R12 at row 0's
// lanes of this pass, x[0] and xn[0], with R14 rows to go.
#define BEGIN \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	MOVQ   SI, R10;    \
	MOVQ   R8, R11;    \
	MOVQ   R9, R12;    \
	MOVQ   CX, R14

// ROW loads x[i] and xn[i]; NEXT steps to row i+1 and counts R14 down.
#define ROW \
	VBROADCASTSD (R11), Y13; \
	VBROADCASTSD (R12), Y14

#define NEXT \
	ADDQ $8, R11;   \
	ADDQ $8, R12;   \
	ADDQ R13, R10;  \
	DECQ R14

// func updateScoreAVX2(w []float64, c float64, a, x, xn, s []float64)
//
// Passes of 16 lanes (four YMM accumulators) while 16 or more are left,
// then one pass of the remaining 12, 8 or 4. Each pass runs i =
// 0…len(x)−1 over its lanes of row i, with the lanes' steps held in
// Y4–Y7, and stores its sums to s.
TEXT ·updateScoreAVX2(SB), NOSPLIT, $0-128
	MOVQ         w_base+0(FP), SI
	MOVQ         a_base+32(FP), BX
	MOVQ         a_len+40(FP), DX
	MOVQ         x_base+56(FP), R8
	MOVQ         x_len+64(FP), CX
	MOVQ         xn_base+80(FP), R9
	MOVQ         s_base+104(FP), DI
	VBROADCASTSD c+24(FP), Y12
	MOVQ         DX, R13
	SHLQ         $3, R13      // row stride in bytes

pass16:
	CMPQ    DX, $16
	JB      tail
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD 64(BX), Y6
	VMOVUPD 96(BX), Y7
	BEGIN
	TESTQ   R14, R14
	JZ      store16

	PCALIGN $32
loop16:
	ROW
	LANES(0, Y4, Y0)
	LANES(32, Y5, Y1)
	LANES(64, Y6, Y2)
	LANES(96, Y7, Y3)
	NEXT
	JNZ loop16

store16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, BX
	ADDQ    $128, DI
	SUBQ    $16, DX
	JMP     pass16

tail:
	CMPQ  DX, $8
	JA    tail12
	JE    tail8
	TESTQ DX, DX
	JZ    done

	VMOVUPD (BX), Y4
	BEGIN
	TESTQ   R14, R14
	JZ      store4

	PCALIGN $32
loop4:
	ROW
	LANES(0, Y4, Y0)
	NEXT
	JNZ loop4

store4:
	VMOVUPD Y0, (DI)
	JMP     done

tail8:
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	BEGIN
	TESTQ   R14, R14
	JZ      store8

	PCALIGN $32
loop8:
	ROW
	LANES(0, Y4, Y0)
	LANES(32, Y5, Y1)
	NEXT
	JNZ loop8

store8:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	JMP     done

tail12:
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD 64(BX), Y6
	BEGIN
	TESTQ   R14, R14
	JZ      store12

	PCALIGN $32
loop12:
	ROW
	LANES(0, Y4, Y0)
	LANES(32, Y5, Y1)
	LANES(64, Y6, Y2)
	NEXT
	JNZ loop12

store12:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)

done:
	VZEROUPPER
	RET
