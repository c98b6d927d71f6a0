#include "textflag.h"

// func listF64Asm(list *f64Entry, a *float64, n int) int
//
// listNonzero over float64: entry kk, its index at 0 and a[kk] at 8, is
// stored at DI unconditionally, and DI moves past it only when a[kk] is
// not zero. UCOMISD against +0 clears ZF for any other ordered value
// and sets PF for NaN, so ±0 alone are skipped. The count is the
// distance DI moved, in entries.
TEXT ·listF64Asm(SB), NOSPLIT, $0-32
	MOVQ  list+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  n+16(FP), CX
	MOVQ  DI, R8                // the list's start
	XORQ  DX, DX                // kk
	XORPS X1, X1                // +0
	TESTQ CX, CX
	JLE   listed

	PCALIGN $64
list:
	MOVSD   (SI)(DX*8), X0
	MOVL    DX, 0(DI)
	MOVSD   X0, 8(DI)
	LEAQ    16(DI), R9
	UCOMISD X1, X0
	CMOVQNE R9, DI              // nonzero
	CMOVQPS R9, DI              // NaN
	INCQ    DX
	CMPQ    DX, CX
	JLT     list

listed:
	SUBQ R8, DI
	SHRQ $4, DI                 // 16 bytes per entry
	MOVQ DI, ret+24(FP)
	RET

// func sweepF64AVX(out *float64, stride int, pw *[8]float64, bias *[8]float64, list *f64Entry, k int, cnt *[32]int, rows int, relu bool)
//
// Rows go in pairs, A and B: A's list starts at AX and B's one list
// (R8 bytes) later. Both lists run together for as many entries as the
// shorter has, B's entry R8 bytes past A's, then each finishes alone.
// A's outputs are Y0 (lanes 0-3) and Y1 (lanes 4-7), B's Y2 and Y3.
// With relu set they go through VMAXPD with Y12 = +0 as the second
// source before the store. A's row is stored at DI and B's one output
// row (R14 bytes) later. An odd last row runs as a pair whose B list is
// empty and whose B outputs are not stored.
TEXT ·sweepF64AVX(SB), NOSPLIT, $0-65
	MOVQ    out+0(FP), DI
	MOVQ    stride+8(FP), R14
	SHLQ    $3, R14             // bytes per output row: 8 per column
	MOVQ    pw+16(FP), BX
	MOVQ    bias+24(FP), AX
	VMOVUPD 0(AX), Y10
	VMOVUPD 32(AX), Y11
	VXORPD  Y12, Y12, Y12       // +0 in every lane
	MOVQ    list+32(FP), AX
	MOVQ    k+40(FP), R8
	SHLQ    $4, R8              // bytes per row list: 16 per entry
	MOVQ    cnt+48(FP), R9
	MOVQ    rows+56(FP), R10

	PCALIGN $64
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

	PCALIGN $64
both:
	MOVL         0(SI), R13
	SHLQ         $6, R13        // 64 bytes per panel row
	VBROADCASTSD 8(SI), Y4
	MOVL         0(SI)(R8*1), DX
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

	PCALIGN $64
loopA:
	MOVL         0(SI), R13
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

	PCALIGN $64
loopB:
	MOVL         0(DX), R13
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
	CMPB    relu+64(FP), $0
	JEQ     write
	VMAXPD  Y12, Y0, Y0         // max(acc, +0), +0 the second source
	VMAXPD  Y12, Y1, Y1
	VMAXPD  Y12, Y2, Y2
	VMAXPD  Y12, Y3, Y3

write:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	CMPQ    R10, $1
	JEQ     done
	VMOVUPD Y2, 0(DI)(R14*1)
	VMOVUPD Y3, 32(DI)(R14*1)
	LEAQ    (DI)(R14*2), DI
	ADDQ    $16, R9
	LEAQ    (AX)(R8*2), AX
	SUBQ    $2, R10
	JMP     pair

done:
	VZEROUPPER
	RET

// func listF32Asm(list *f32Entry, a *float32, n int) int
//
// listF64Asm over float32: an entry is 8 bytes, its index at 0 and
// a[kk] at 4, and UCOMISS tests the value.
TEXT ·listF32Asm(SB), NOSPLIT, $0-32
	MOVQ  list+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  n+16(FP), CX
	MOVQ  DI, R8                // the list's start
	XORQ  DX, DX                // kk
	XORPS X1, X1                // +0
	TESTQ CX, CX
	JLE   listed

	PCALIGN $64
list:
	MOVSS   (SI)(DX*4), X0
	MOVL    DX, 0(DI)
	MOVSS   X0, 4(DI)
	LEAQ    8(DI), R9
	UCOMISS X1, X0
	CMOVQNE R9, DI              // nonzero
	CMOVQPS R9, DI              // NaN
	INCQ    DX
	CMPQ    DX, CX
	JLT     list

listed:
	SUBQ R8, DI
	SHRQ $3, DI                 // 8 bytes per entry
	MOVQ DI, ret+24(FP)
	RET

// func sweepF32AVX(out *float32, stride int, pw *[16]float32, bias *[16]float32, list *f32Entry, k int, cnt *[32]int, rows int, relu bool)
//
// sweepI8AVX2's pairing over float32 panel rows: rows go in pairs, A
// and B, A's list at AX and B's one list (R8 bytes) later, both lists
// run together for as many entries as the shorter has, then each
// finishes alone. An entry is 8 bytes, its index at 0 and its value at
// 4; a panel row is 64 bytes. A's outputs are Y0 (columns 0-7) and Y1
// (8-15), B's Y2 and Y3, all starting at +0. The bias (Y10, Y11) is
// added after the list; with relu set each sum then goes through
// VMAXPS with Y12 = +0 as the second source. A's row is stored at DI
// and B's one output row (R14 bytes) later. An odd last row runs as a
// pair whose B list is empty and whose B outputs are not stored.
TEXT ·sweepF32AVX(SB), NOSPLIT, $0-65
	MOVQ    out+0(FP), DI
	MOVQ    stride+8(FP), R14
	SHLQ    $2, R14             // bytes per output row: 4 per column
	MOVQ    pw+16(FP), BX
	MOVQ    bias+24(FP), AX
	VMOVUPS 0(AX), Y10
	VMOVUPS 32(AX), Y11
	VXORPS  Y12, Y12, Y12       // +0 in every lane
	MOVQ    list+32(FP), AX
	MOVQ    k+40(FP), R8
	SHLQ    $3, R8              // bytes per row list: 8 per entry
	MOVQ    cnt+48(FP), R9
	MOVQ    rows+56(FP), R10

	PCALIGN $64
pair:
	TESTQ   R10, R10
	JLE     done
	MOVQ    0(R9), CX           // A's count
	XORQ    R11, R11            // B's count
	CMPQ    R10, $1
	JEQ     counted
	MOVQ    8(R9), R11

counted:
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	MOVQ    AX, SI
	MOVQ    CX, R12
	CMPQ    R11, R12
	CMOVQLT R11, R12            // R12 = min(A's count, B's count)
	SUBQ    R12, CX
	SUBQ    R12, R11
	TESTQ   R12, R12
	JEQ     restA

	PCALIGN $64
both:
	MOVL         0(SI), R13
	SHLQ         $6, R13        // 64 bytes per panel row
	VBROADCASTSS 4(SI), Y4
	MOVL         0(SI)(R8*1), DX
	SHLQ         $6, DX
	VBROADCASTSS 4(SI)(R8*1), Y5
	VMOVUPS      0(BX)(R13*1), Y6
	VMOVUPS      32(BX)(R13*1), Y7
	VMOVUPS      0(BX)(DX*1), Y8
	VMOVUPS      32(BX)(DX*1), Y9
	VMULPS       Y4, Y6, Y6     // weight * value
	VMULPS       Y4, Y7, Y7
	VMULPS       Y5, Y8, Y8
	VMULPS       Y5, Y9, Y9
	VADDPS       Y6, Y0, Y0     // acc + product
	VADDPS       Y7, Y1, Y1
	VADDPS       Y8, Y2, Y2
	VADDPS       Y9, Y3, Y3
	ADDQ         $8, SI
	DECQ         R12
	JNE          both

restA:
	LEAQ  (SI)(R8*1), DX        // B's next entry
	TESTQ CX, CX
	JEQ   restB

	PCALIGN $64
loopA:
	MOVL         0(SI), R13
	SHLQ         $6, R13
	VBROADCASTSS 4(SI), Y4
	VMOVUPS      0(BX)(R13*1), Y6
	VMOVUPS      32(BX)(R13*1), Y7
	VMULPS       Y4, Y6, Y6
	VMULPS       Y4, Y7, Y7
	VADDPS       Y6, Y0, Y0
	VADDPS       Y7, Y1, Y1
	ADDQ         $8, SI
	DECQ         CX
	JNE          loopA

restB:
	TESTQ R11, R11
	JEQ   store

	PCALIGN $64
loopB:
	MOVL         0(DX), R13
	SHLQ         $6, R13
	VBROADCASTSS 4(DX), Y5
	VMOVUPS      0(BX)(R13*1), Y8
	VMOVUPS      32(BX)(R13*1), Y9
	VMULPS       Y5, Y8, Y8
	VMULPS       Y5, Y9, Y9
	VADDPS       Y8, Y2, Y2
	VADDPS       Y9, Y3, Y3
	ADDQ         $8, DX
	DECQ         R11
	JNE          loopB

store:
	VADDPS  Y10, Y0, Y0         // acc + bias
	VADDPS  Y11, Y1, Y1
	VADDPS  Y10, Y2, Y2
	VADDPS  Y11, Y3, Y3
	CMPB    relu+64(FP), $0
	JEQ     write
	VMAXPS  Y12, Y0, Y0         // max(sum, +0), +0 the second source
	VMAXPS  Y12, Y1, Y1
	VMAXPS  Y12, Y2, Y2
	VMAXPS  Y12, Y3, Y3

write:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	CMPQ    R10, $1
	JEQ     done
	VMOVUPS Y2, 0(DI)(R14*1)
	VMOVUPS Y3, 32(DI)(R14*1)
	LEAQ    (DI)(R14*2), DI
	ADDQ    $16, R9
	LEAQ    (AX)(R8*2), AX
	SUBQ    $2, R10
	JMP     pair

done:
	VZEROUPPER
	RET

// func listPairsAsm(list *i8Entry, a *int8, pairs int, c int32) int
//
// listPairsGo: pair pp's two codes, less c, are packed into one dword
// (the first in the low 16 bits) and stored with pp at DI
// unconditionally; DI moves past the entry only when the dword is not
// zero. The count is the distance DI moved, in entries.
TEXT ·listPairsAsm(SB), NOSPLIT, $0-40
	MOVQ  list+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  pairs+16(FP), CX
	MOVL  c+24(FP), R10
	MOVQ  DI, R8                // the list's start
	XORQ  DX, DX                // pp
	TESTQ CX, CX
	JLE   listed

	PCALIGN $64
list:
	MOVBLSX 0(SI)(DX*2), AX
	MOVBLSX 1(SI)(DX*2), BX
	SUBL    R10, AX
	SUBL    R10, BX
	MOVWLZX AX, AX              // the first centred code, as a uint16
	SHLL    $16, BX
	ORL     BX, AX
	MOVL    DX, 0(DI)
	MOVL    AX, 4(DI)
	LEAQ    8(DI), R9
	TESTL   AX, AX
	CMOVQNE R9, DI
	INCQ    DX
	CMPQ    DX, CX
	JLT     list

listed:
	SUBQ R8, DI
	SHRQ $3, DI                 // 8 bytes per entry
	MOVQ DI, ret+32(FP)
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

	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
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
