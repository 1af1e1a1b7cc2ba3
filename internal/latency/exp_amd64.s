#include "textflag.h"

// expc holds the kernel's constants, each repeated in the four lanes of a
// ymm word: archExp's (math/exp_amd64.s), spelled as there.
#define CONST4(off, v) DATA expc<>+(off)(SB)/8, v; DATA expc<>+(off+8)(SB)/8, v; DATA expc<>+(off+16)(SB)/8, v; DATA expc<>+(off+24)(SB)/8, v

CONST4(0, $0x7fffffffffffffff)                                 // sign mask
CONST4(32, $700.0)                                             // expMax
CONST4(64, $1.4426950408889634073599246810018920)              // LOG2E
CONST4(96, $6755399441055744.0)                                // 1.5·2^52
CONST4(128, $0.69314718055966295651160180568695068359375)      // LN2U
CONST4(160, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
CONST4(192, $0.0625)
CONST4(224, $2.4801587301587301587e-5)                         // 1/8!
CONST4(256, $1.9841269841269841270e-4)                         // 1/7!
CONST4(288, $1.3888888888888888889e-3)                         // 1/6!
CONST4(320, $8.3333333333333333333e-3)                         // 1/5!
CONST4(352, $4.1666666666666666667e-2)                         // 1/4!
CONST4(384, $1.6666666666666666667e-1)                         // 1/3!
CONST4(416, $0.5)                                              // 1/2!
CONST4(448, $1.0)                                              // 1/1!
CONST4(480, $2.0)
CONST4(512, $1023)                                             // exponent bias
GLOBL expc<>(SB), RODATA|NOPTR, $544

// func expGroups(p *float64, groups int) int
TEXT ·expGroups(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), DI
	MOVQ groups+8(FP), CX
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (DI), Y0

	// Stop at a group with a lane outside (−700, 700) or a NaN: |x| < 700
	// (ordered, so false for NaN) must hold in all four lanes.
	VANDPD    expc<>+0(SB), Y0, Y1
	VCMPPD    $0x11, expc<>+32(SB), Y1, Y1
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       done

	// k = x·log2e rounded to an integer, ties to even (MULSD, CVTSD2SL,
	// CVTSL2SD).
	VMULPD expc<>+64(SB), Y0, Y1
	VADDPD expc<>+96(SB), Y1, Y1
	VSUBPD expc<>+96(SB), Y1, Y1

	// r = (x − k·ln 2)/16, ln 2 in two parts (VFNMADD231SD ×2, MULSD).
	VFNMADD231PD expc<>+128(SB), Y1, Y0
	VFNMADD231PD expc<>+160(SB), Y1, Y0
	VMULPD       expc<>+192(SB), Y0, Y0

	// e^r − 1 = r·p(r), p by Horner's rule (VFMADD213SD ×7, MULSD).
	VMOVUPD     expc<>+224(SB), Y2
	VFMADD213PD expc<>+256(SB), Y0, Y2
	VFMADD213PD expc<>+288(SB), Y0, Y2
	VFMADD213PD expc<>+320(SB), Y0, Y2
	VFMADD213PD expc<>+352(SB), Y0, Y2
	VFMADD213PD expc<>+384(SB), Y0, Y2
	VFMADD213PD expc<>+416(SB), Y0, Y2
	VFMADD213PD expc<>+448(SB), Y0, Y2
	VMULPD      Y2, Y0, Y0

	// Square back up sixteenfold, e^2r − 1 = (e^r − 1)(e^r − 1 + 2): three
	// times on their own (VADDSD, MULSD), the fourth fused with the final
	// + 1 (VADDSD, VFMADD213SD).
	VADDPD      expc<>+480(SB), Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      expc<>+480(SB), Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      expc<>+480(SB), Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      expc<>+480(SB), Y0, Y2
	VFMADD213PD expc<>+448(SB), Y2, Y0

	// Scale by 2^k, its exponent field set directly (archExp's ldexp step:
	// inside the range every 2^k is normal), then MULSD.
	VCVTTPD2DQY Y1, X3
	VPMOVSXDQ   X3, Y3
	VPADDQ      expc<>+512(SB), Y3, Y3
	VPSLLQ      $52, Y3, Y3
	VMULPD      Y3, Y0, Y0

	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	INCQ    AX
	JMP     loop

done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
