#include "textflag.h"

// func cpuAVX() bool
TEXT ·cpuAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV               // XCR0: the OS saves XMM (bit 1) and YMM (bit 2)
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func cpuidLeaf7EBX() uint32
TEXT ·cpuidLeaf7EBX(SB), NOSPLIT, $0-4
	XORL AX, AX
	CPUID                // EAX: the highest standard leaf
	CMPL AX, $7
	JLT  noleaf7
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ret+0(FP)
	RET

noleaf7:
	MOVL $0, ret+0(FP)
	RET
