#include "textflag.h"

// func blockSlowdownsAVX2(out, w, rho *float64, nblk, n int, servers float64)
//
// Register use: DI out, SI block pair base, DX rho, CX blocks left, BX n,
// R8 bytes per block (32·n), R9/R10 the two blocks' j cursors, R11 the ρ
// cursor, R12 j left. Y0/Y1 hold the first block's even-j/odd-j
// accumulators, Y2/Y3 the second's; Y14 is 1.0 and Y15 the server count in
// every lane.
TEXT ·blockSlowdownsAVX2(SB), NOSPLIT, $0-48
	MOVQ         out+0(FP), DI
	MOVQ         w+8(FP), SI
	MOVQ         rho+16(FP), DX
	MOVQ         nblk+24(FP), CX
	MOVQ         n+32(FP), BX
	VBROADCASTSD servers+40(FP), Y15
	MOVQ         $0x3ff0000000000000, AX
	MOVQ         AX, X14
	VBROADCASTSD X14, Y14
	MOVQ         BX, R8
	SHLQ         $5, R8

pair:
	CMPQ   CX, $2
	JLT    single
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R9
	LEAQ   (SI)(R8*1), R10
	MOVQ   DX, R11
	MOVQ   BX, R12

pairj:
	CMPQ         R12, $2
	JLT          pairtail
	VBROADCASTSD (R11), Y4
	VBROADCASTSD 8(R11), Y5
	VMULPD       (R9), Y4, Y6
	VMULPD       (R10), Y4, Y7
	VMULPD       32(R9), Y5, Y8
	VMULPD       32(R10), Y5, Y9
	VADDPD       Y6, Y0, Y0
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y1, Y1
	VADDPD       Y9, Y3, Y3
	ADDQ         $64, R9
	ADDQ         $64, R10
	ADDQ         $16, R11
	SUBQ         $2, R12
	JMP          pairj

pairtail:
	TESTQ        R12, R12
	JZ           pairdone
	VBROADCASTSD (R11), Y4
	VMULPD       (R9), Y4, Y6
	VMULPD       (R10), Y4, Y7
	VADDPD       Y6, Y0, Y0
	VADDPD       Y7, Y2, Y2

pairdone:
	// (1 + (even + odd)) / servers, then max(1, ·): VMAXPD returns its
	// second source unless the first (1.0) is greater, so a NaN passes
	// through exactly as in the scalar clamp.
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VADDPD  Y14, Y0, Y0
	VADDPD  Y14, Y2, Y2
	VDIVPD  Y15, Y0, Y0
	VDIVPD  Y15, Y2, Y2
	VMAXPD  Y0, Y14, Y0
	VMAXPD  Y2, Y14, Y2
	VMOVUPD Y0, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, DI
	LEAQ    (SI)(R8*2), SI
	SUBQ    $2, CX
	JMP     pair

single:
	TESTQ  CX, CX
	JZ     done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, R9
	MOVQ   DX, R11
	MOVQ   BX, R12

singlej:
	CMPQ         R12, $2
	JLT          singletail
	VBROADCASTSD (R11), Y4
	VBROADCASTSD 8(R11), Y5
	VMULPD       (R9), Y4, Y6
	VMULPD       32(R9), Y5, Y8
	VADDPD       Y6, Y0, Y0
	VADDPD       Y8, Y1, Y1
	ADDQ         $64, R9
	ADDQ         $16, R11
	SUBQ         $2, R12
	JMP          singlej

singletail:
	TESTQ        R12, R12
	JZ           singledone
	VBROADCASTSD (R11), Y4
	VMULPD       (R9), Y4, Y6
	VADDPD       Y6, Y0, Y0

singledone:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y14, Y0, Y0
	VDIVPD  Y15, Y0, Y0
	VMAXPD  Y0, Y14, Y0
	VMOVUPD Y0, (DI)

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
