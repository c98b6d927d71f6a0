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

// func sweepF64AVX(acc *[32][8]float64, pw *[8]float64, bias *[8]float64, list *f64Entry, k int, cnt *[32]int, rows int)
//
// Rows go in pairs, A and B: A's list starts at AX and B's one list
// (R8 bytes) later. Both lists run together for as many entries as the
// shorter has, B's entry R8 bytes past A's, then each finishes alone.
// A's outputs are Y0 (lanes 0-3) and Y1 (lanes 4-7), B's Y2 and Y3. An
// odd last row runs as a pair whose B list is empty and whose B outputs
// are not stored.
TEXT ·sweepF64AVX(SB), NOSPLIT, $0-56
	MOVQ    acc+0(FP), DI
	MOVQ    pw+8(FP), BX
	MOVQ    bias+16(FP), AX
	VMOVUPD 0(AX), Y10
	VMOVUPD 32(AX), Y11
	MOVQ    list+24(FP), AX
	MOVQ    k+32(FP), R8
	SHLQ    $4, R8              // bytes per row list: 16 per entry
	MOVQ    cnt+40(FP), R9
	MOVQ    rows+48(FP), R10

pair:
	TESTQ   R10, R10
	JLE     done
	MOVQ    0(R9), CX           // A's count
	XORQ    R11, R11            // B's count
	CMPQ    R10, $1
	JEQ     counted
	MOVQ    8(R9), R11

counted:
	VMOVAPD Y10, Y0
	VMOVAPD Y11, Y1
	VMOVAPD Y10, Y2
	VMOVAPD Y11, Y3
	MOVQ    AX, SI
	MOVQ    CX, R12
	CMPQ    R11, R12
	CMOVQLT R11, R12            // R12 = min(A's count, B's count)
	SUBQ    R12, CX
	SUBQ    R12, R11
	TESTQ   R12, R12
	JEQ     restA

both:
	MOVQ         0(SI), R13
	SHLQ         $6, R13        // 64 bytes per panel row
	VBROADCASTSD 8(SI), Y4
	MOVQ         0(SI)(R8*1), DX
	SHLQ         $6, DX
	VBROADCASTSD 8(SI)(R8*1), Y5
	VMOVUPD      0(BX)(R13*1), Y6
	VMOVUPD      32(BX)(R13*1), Y7
	VMOVUPD      0(BX)(DX*1), Y8
	VMOVUPD      32(BX)(DX*1), Y9
	VMULPD       Y4, Y6, Y6     // weight * value
	VMULPD       Y4, Y7, Y7
	VMULPD       Y5, Y8, Y8
	VMULPD       Y5, Y9, Y9
	VADDPD       Y6, Y0, Y0     // acc + product
	VADDPD       Y7, Y1, Y1
	VADDPD       Y8, Y2, Y2
	VADDPD       Y9, Y3, Y3
	ADDQ         $16, SI
	DECQ         R12
	JNE          both

restA:
	LEAQ  (SI)(R8*1), DX        // B's next entry
	TESTQ CX, CX
	JEQ   restB

loopA:
	MOVQ         0(SI), R13
	SHLQ         $6, R13
	VBROADCASTSD 8(SI), Y4
	VMOVUPD      0(BX)(R13*1), Y6
	VMOVUPD      32(BX)(R13*1), Y7
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VADDPD       Y6, Y0, Y0
	VADDPD       Y7, Y1, Y1
	ADDQ         $16, SI
	DECQ         CX
	JNE          loopA

restB:
	TESTQ R11, R11
	JEQ   store

loopB:
	MOVQ         0(DX), R13
	SHLQ         $6, R13
	VBROADCASTSD 8(DX), Y5
	VMOVUPD      0(BX)(R13*1), Y8
	VMOVUPD      32(BX)(R13*1), Y9
	VMULPD       Y5, Y8, Y8
	VMULPD       Y5, Y9, Y9
	VADDPD       Y8, Y2, Y2
	VADDPD       Y9, Y3, Y3
	ADDQ         $16, DX
	DECQ         R11
	JNE          loopB

store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	CMPQ    R10, $1
	JEQ     done
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $16, R9
	LEAQ    (AX)(R8*2), AX
	SUBQ    $2, R10
	JMP     pair

done:
	VZEROUPPER
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

// func sweepI8AVX2(out *int32, stride int, pw *i8PanelRow, base *[16]int32, list *i8Entry, pairs int, cnt *[32]int, rows int)
//
// The f64 sweep's pairing over int16 pair rows: rows go in pairs, A and
// B, A's list at AX and B's one list (R8 bytes) later, both lists run
// together for as many entries as the shorter has, then each finishes
// alone. An entry is 8 bytes, its pair index at 0 and its dword of two
// centred codes at 4; a panel row is 64 bytes. A's outputs are Y0
// (columns 0-7) and Y1 (8-15), B's Y2 and Y3, all starting from base.
// A's row is stored at DI and B's one output row (R14 bytes) later. An
// odd last row runs as a pair whose B list is empty and whose B outputs
// are not stored.
TEXT ·sweepI8AVX2(SB), NOSPLIT, $0-64
	MOVQ    out+0(FP), DI
	MOVQ    stride+8(FP), R14
	SHLQ    $2, R14             // bytes per output row: 4 per column
	MOVQ    pw+16(FP), BX
	MOVQ    base+24(FP), AX
	VMOVDQU 0(AX), Y10
	VMOVDQU 32(AX), Y11
	MOVQ    list+32(FP), AX
	MOVQ    pairs+40(FP), R8
	SHLQ    $3, R8              // bytes per row list: 8 per entry
	MOVQ    cnt+48(FP), R9
	MOVQ    rows+56(FP), R10

pair:
	TESTQ   R10, R10
	JLE     done
	MOVQ    0(R9), CX           // A's count
	XORQ    R11, R11            // B's count
	CMPQ    R10, $1
	JEQ     counted
	MOVQ    8(R9), R11

counted:
	VMOVDQA Y10, Y0
	VMOVDQA Y11, Y1
	VMOVDQA Y10, Y2
	VMOVDQA Y11, Y3
	MOVQ    AX, SI
	MOVQ    CX, R12
	CMPQ    R11, R12
	CMOVQLT R11, R12            // R12 = min(A's count, B's count)
	SUBQ    R12, CX
	SUBQ    R12, R11
	TESTQ   R12, R12
	JEQ     restA

both:
	MOVL         0(SI), R13
	SHLQ         $6, R13        // 64 bytes per panel row
	VPBROADCASTD 4(SI), Y4
	MOVL         0(SI)(R8*1), DX
	SHLQ         $6, DX
	VPBROADCASTD 4(SI)(R8*1), Y5
	VPMADDWD     0(BX)(R13*1), Y4, Y6
	VPMADDWD     32(BX)(R13*1), Y4, Y7
	VPMADDWD     0(BX)(DX*1), Y5, Y8
	VPMADDWD     32(BX)(DX*1), Y5, Y9
	VPADDD       Y6, Y0, Y0
	VPADDD       Y7, Y1, Y1
	VPADDD       Y8, Y2, Y2
	VPADDD       Y9, Y3, Y3
	ADDQ         $8, SI
	DECQ         R12
	JNE          both

restA:
	LEAQ  (SI)(R8*1), DX        // B's next entry
	TESTQ CX, CX
	JEQ   restB

loopA:
	MOVL         0(SI), R13
	SHLQ         $6, R13
	VPBROADCASTD 4(SI), Y4
	VPMADDWD     0(BX)(R13*1), Y4, Y6
	VPMADDWD     32(BX)(R13*1), Y4, Y7
	VPADDD       Y6, Y0, Y0
	VPADDD       Y7, Y1, Y1
	ADDQ         $8, SI
	DECQ         CX
	JNE          loopA

restB:
	TESTQ R11, R11
	JEQ   store

loopB:
	MOVL         0(DX), R13
	SHLQ         $6, R13
	VPBROADCASTD 4(DX), Y5
	VPMADDWD     0(BX)(R13*1), Y5, Y8
	VPMADDWD     32(BX)(R13*1), Y5, Y9
	VPADDD       Y8, Y2, Y2
	VPADDD       Y9, Y3, Y3
	ADDQ         $8, DX
	DECQ         R11
	JNE          loopB

store:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	CMPQ    R10, $1
	JEQ     done
	VMOVDQU Y2, 0(DI)(R14*1)
	VMOVDQU Y3, 32(DI)(R14*1)
	LEAQ    (DI)(R14*2), DI
	ADDQ    $16, R9
	LEAQ    (AX)(R8*2), AX
	SUBQ    $2, R10
	JMP     pair

done:
	VZEROUPPER
	RET
