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
