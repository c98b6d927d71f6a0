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

// func listF64AVX512(list *f64Entry, a *float64, k int, rows int, cnt *int)
//
// listF64Asm eight activations a step, on CPUs with AVX-512, over a
// block of rows: row r's k activations start at a + 8*r*k, its list at
// list + 16*r*k, and its count is stored at cnt + 8*r. The tables and
// the +0 are loaded once per call. VCMPPD $4 (NEQ_UQ) against +0 sets
// K1's bit for every lane but ±0, NaN included, as UCOMISD does.
// VPCOMPRESSQ packs the listed values and their indices (Z4, kk to
// kk+7) into the low lanes, two VPERMI2Q interleave them into eight
// 16-byte entries, and all 128 bytes are stored at DI, which then moves
// on POPCNT(K1) entries. DI is never past entry kk, so the stores stay
// inside the row's list. A row's last k mod 8 activations take
// listF64Asm's loop in VEX encoding, which leaves the ZMM registers'
// upper halves alone, so no VZEROUPPER is needed until the block ends.
TEXT ·listF64AVX512(SB), NOSPLIT, $0-40
	MOVQ          list+0(FP), R13           // the row's list
	MOVQ          a+8(FP), SI               // the row's activations
	MOVQ          k+16(FP), CX
	MOVQ          rows+24(FP), R11
	MOVQ          cnt+32(FP), R12
	MOVQ          CX, R8
	SHLQ          $4, R8                    // bytes per row list: 16 per entry
	MOVQ          CX, R10
	ANDQ          $~7, R10                  // the vector steps' end
	VPXORQ        Z1, Z1, Z1                // +0
	VPMOVZXBQ     listF64Tables<>+0(SB), Z10 // 0 to 7
	VPMOVZXBQ     listF64Tables<>+8(SB), Z2
	VPMOVZXBQ     listF64Tables<>+16(SB), Z3
	MOVL          $8, R9
	VPBROADCASTQ  R9, Z5
	TESTQ         R11, R11
	JLE           done

	PCALIGN $64
row:
	MOVQ          R13, DI
	XORQ          DX, DX                    // kk
	VMOVDQA64     Z10, Z4                   // kk to kk+7
	TESTQ         R10, R10
	JEQ           tail

	PCALIGN $64
step:
	VMOVUPD       (SI)(DX*8), Z0
	VCMPPD        $4, Z1, Z0, K1            // a[kk] != +0, or NaN
	KMOVW         K1, R9
	POPCNTL       R9, R9
	VPCOMPRESSQ.Z Z0, K1, Z6                // the listed values
	VPCOMPRESSQ.Z Z4, K1, Z7                // and their indices
	VMOVDQA64     Z2, Z8
	VPERMI2Q      Z6, Z7, Z8                // entries 0 to 3
	VMOVDQA64     Z3, Z9
	VPERMI2Q      Z6, Z7, Z9                // entries 4 to 7
	VMOVDQU64     Z8, 0(DI)
	VMOVDQU64     Z9, 64(DI)
	SHLQ          $4, R9                    // 16 bytes per entry
	ADDQ          R9, DI
	VPADDQ        Z5, Z4, Z4
	ADDQ          $8, DX
	CMPQ          DX, R10
	JLT           step

tail:
	CMPQ DX, CX
	JGE  listed

	PCALIGN $64
list:
	VMOVSD   (SI)(DX*8), X0
	MOVL     DX, 0(DI)
	VMOVSD   X0, 8(DI)
	LEAQ     16(DI), R9
	VUCOMISD X1, X0
	CMOVQNE  R9, DI             // nonzero
	CMOVQPS  R9, DI             // NaN
	INCQ     DX
	CMPQ     DX, CX
	JLT      list

listed:
	MOVQ DI, R9
	SUBQ R13, R9
	SHRQ $4, R9                 // 16 bytes per entry
	MOVQ R9, 0(R12)
	ADDQ $8, R12                // the next row's count
	LEAQ (SI)(CX*8), SI         // activations
	ADDQ R8, R13                // and list
	DECQ R11
	JNE  row

done:
	VZEROUPPER
	RET

// listF64Tables holds byte lanes that VPMOVZXBQ widens to quadwords:
// the indices 0 to 7, then the VPERMI2Q tables that interleave indices
// (0-7) with values (8-15) into entries 0 to 3 and 4 to 7.
DATA  listF64Tables<>+0(SB)/8, $0x0706050403020100
DATA  listF64Tables<>+8(SB)/8, $0x0b030a0209010800  // 0, 8, 1, 9, 2, 10, 3, 11
DATA  listF64Tables<>+16(SB)/8, $0x0f070e060d050c04 // 4, 12, 5, 13, 6, 14, 7, 15
GLOBL listF64Tables<>(SB), RODATA|NOPTR, $24

// func sweepF64AVX(out *float64, stride int, pw *[8]float64, bias *[8]float64, list *f64Entry, k int, cnt *int, rows int, relu bool)
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

// func listF32AVX512(list *f32Entry, a *float32, k int, rows int, cnt *int)
//
// listF64AVX512 over float32, sixteen activations a step: row r's
// activations start at a + 4*r*k and its list at list + 8*r*k.
// VCMPPS $4 against +0 into K1, VPCOMPRESSD of the values and their
// indices (Z4, kk to kk+15), two VPERMI2D into sixteen 8-byte entries,
// all 128 bytes stored at DI and DI moved on POPCNT(K1) entries. A
// row's last k mod 16 activations take listF32Asm's loop in VEX
// encoding.
TEXT ·listF32AVX512(SB), NOSPLIT, $0-40
	MOVQ          list+0(FP), R13           // the row's list
	MOVQ          a+8(FP), SI               // the row's activations
	MOVQ          k+16(FP), CX
	MOVQ          rows+24(FP), R11
	MOVQ          cnt+32(FP), R12
	MOVQ          CX, R8
	SHLQ          $3, R8                    // bytes per row list: 8 per entry
	MOVQ          CX, R10
	ANDQ          $~15, R10                 // the vector steps' end
	VPXORQ        Z1, Z1, Z1                // +0
	VPMOVZXBD     listF32Tables<>+0(SB), Z10 // 0 to 15
	VPMOVZXBD     listF32Tables<>+16(SB), Z2
	VPMOVZXBD     listF32Tables<>+32(SB), Z3
	MOVL          $16, R9
	VPBROADCASTD  R9, Z5
	TESTQ         R11, R11
	JLE           done

	PCALIGN $64
row:
	MOVQ          R13, DI
	XORQ          DX, DX                    // kk
	VMOVDQA32     Z10, Z4                   // kk to kk+15
	TESTQ         R10, R10
	JEQ           tail

	PCALIGN $64
step:
	VMOVUPS       (SI)(DX*4), Z0
	VCMPPS        $4, Z1, Z0, K1            // a[kk] != +0, or NaN
	KMOVW         K1, R9
	POPCNTL       R9, R9
	VPCOMPRESSD.Z Z0, K1, Z6                // the listed values
	VPCOMPRESSD.Z Z4, K1, Z7                // and their indices
	VMOVDQA32     Z2, Z8
	VPERMI2D      Z6, Z7, Z8                // entries 0 to 7
	VMOVDQA32     Z3, Z9
	VPERMI2D      Z6, Z7, Z9                // entries 8 to 15
	VMOVDQU32     Z8, 0(DI)
	VMOVDQU32     Z9, 64(DI)
	SHLQ          $3, R9                    // 8 bytes per entry
	ADDQ          R9, DI
	VPADDD        Z5, Z4, Z4
	ADDQ          $16, DX
	CMPQ          DX, R10
	JLT           step

tail:
	CMPQ DX, CX
	JGE  listed

	PCALIGN $64
list:
	VMOVSS   (SI)(DX*4), X0
	MOVL     DX, 0(DI)
	VMOVSS   X0, 4(DI)
	LEAQ     8(DI), R9
	VUCOMISS X1, X0
	CMOVQNE  R9, DI             // nonzero
	CMOVQPS  R9, DI             // NaN
	INCQ     DX
	CMPQ     DX, CX
	JLT      list

listed:
	MOVQ DI, R9
	SUBQ R13, R9
	SHRQ $3, R9                 // 8 bytes per entry
	MOVQ R9, 0(R12)
	ADDQ $8, R12                // the next row's count
	LEAQ (SI)(CX*4), SI         // activations
	ADDQ R8, R13                // and list
	DECQ R11
	JNE  row

done:
	VZEROUPPER
	RET

// listF32Tables holds byte lanes that VPMOVZXBD widens to doublewords:
// the indices 0 to 15, then the VPERMI2D tables that interleave indices
// (0-15) with values (16-31) into entries 0 to 7 and 8 to 15.
DATA  listF32Tables<>+0(SB)/8, $0x0706050403020100
DATA  listF32Tables<>+8(SB)/8, $0x0f0e0d0c0b0a0908
DATA  listF32Tables<>+16(SB)/8, $0x1303120211011000 // 0, 16, 1, 17, 2, 18, 3, 19
DATA  listF32Tables<>+24(SB)/8, $0x1707160615051404 // 4, 20, 5, 21, 6, 22, 7, 23
DATA  listF32Tables<>+32(SB)/8, $0x1b0b1a0a19091808 // 8, 24, 9, 25, 10, 26, 11, 27
DATA  listF32Tables<>+40(SB)/8, $0x1f0f1e0e1d0d1c0c // 12, 28, 13, 29, 14, 30, 15, 31
GLOBL listF32Tables<>(SB), RODATA|NOPTR, $48

// func sweepF32AVX(out *float32, stride int, pw *[16]float32, bias *[16]float32, list *f32Entry, k int, cnt *int, rows int, relu bool)
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

// func sweepF64AVX512(out *float64, stride int, pw *[8]float64, bias *[8]float64, list *f64Entry, k int, cnt *int, rows int, relu bool)
//
// sweepF64AVX's contract in 512-bit registers, for a row count that is a
// multiple of four. Rows go in fours, A to D: A's list starts at AX,
// B's one list (R8 bytes) later, C's two and D's three (R12 bytes). The
// four lists run together for as many entries as the shortest has, B's
// to D's entries R8, 2*R8 and R12 bytes past A's, then each row
// finishes its own list alone. An entry is 16 bytes, its index at 0
// and its value at 8; a panel row is 64 bytes, one ZMM register. Each
// product is the panel row, the first source, times the entry's value,
// broadcast by the multiply itself. A's outputs are Z0, B's Z1, C's Z2
// and D's Z3, each starting from the bias (Z13). The finish loop runs
// four times on Z0: it ends the row's list, goes through VMAXPD with
// Z12 = +0 as the second source if relu is set, stores the row at DI,
// then moves Z1 to Z3 down one register and SI, R9 and DI on one row.
TEXT ·sweepF64AVX512(SB), NOSPLIT, $0-65
	MOVQ        out+0(FP), DI
	MOVQ        stride+8(FP), R14
	SHLQ        $3, R14                  // bytes per output row: 8 per column
	MOVQ        pw+16(FP), BX
	MOVQ        bias+24(FP), AX
	VMOVUPD     0(AX), Z13
	VPXORQ      Z12, Z12, Z12            // +0 in every lane
	MOVQ        list+32(FP), AX
	MOVQ        k+40(FP), R8
	SHLQ        $4, R8                   // bytes per row list: 16 per entry
	MOVQ        cnt+48(FP), R9
	MOVQ        rows+56(FP), R10
	TESTQ       R10, R10
	JLE         done

	PCALIGN $64
group:
	LEAQ        (R8)(R8*2), R12          // three row lists
	MOVQ        0(R9), CX                // the shared count: the fewest of the four
	CMPQ        8(R9), CX
	CMOVQLT     8(R9), CX
	CMPQ        16(R9), CX
	CMOVQLT     16(R9), CX
	CMPQ        24(R9), CX
	CMOVQLT     24(R9), CX
	VMOVAPD     Z13, Z0
	VMOVAPD     Z13, Z1
	VMOVAPD     Z13, Z2
	VMOVAPD     Z13, Z3
	MOVQ        AX, SI
	MOVQ        CX, R11
	TESTQ       CX, CX
	JEQ         rest

	PCALIGN $64
four:
	MOVL        0(SI), DX
	SHLQ        $6, DX                   // 64 bytes per panel row
	VMOVUPD     0(BX)(DX*1), Z4
	MOVL        0(SI)(R8*1), R13
	SHLQ        $6, R13
	VMOVUPD     0(BX)(R13*1), Z5
	MOVL        0(SI)(R8*2), DX
	SHLQ        $6, DX
	VMOVUPD     0(BX)(DX*1), Z6
	MOVL        0(SI)(R12*1), R13
	SHLQ        $6, R13
	VMOVUPD     0(BX)(R13*1), Z7
	VMULPD.BCST 8(SI), Z4, Z4            // weight * value
	VMULPD.BCST 8(SI)(R8*1), Z5, Z5
	VMULPD.BCST 8(SI)(R8*2), Z6, Z6
	VMULPD.BCST 8(SI)(R12*1), Z7, Z7
	VADDPD      Z4, Z0, Z0               // acc + product
	VADDPD      Z5, Z1, Z1
	VADDPD      Z6, Z2, Z2
	VADDPD      Z7, Z3, Z3
	ADDQ        $16, SI
	DECQ        CX
	JNE         four

rest:
	MOVQ        $4, R12                  // rows of the group left to finish

	PCALIGN $64
finish:
	MOVQ        SI, DX                   // this row's next entry
	MOVQ        0(R9), CX
	SUBQ        R11, CX                  // its entries left
	JEQ         store

	PCALIGN $64
lone:
	MOVL        0(DX), R13
	SHLQ        $6, R13
	VMOVUPD     0(BX)(R13*1), Z4
	VMULPD.BCST 8(DX), Z4, Z4
	VADDPD      Z4, Z0, Z0
	ADDQ        $16, DX
	DECQ        CX
	JNE         lone

store:
	CMPB        relu+64(FP), $0
	JEQ         write
	VMAXPD      Z12, Z0, Z0              // max(acc, +0), +0 the second source

write:
	VMOVUPD     Z0, 0(DI)
	VMOVAPD     Z1, Z0                   // the next row's accumulator moves up
	VMOVAPD     Z2, Z1
	VMOVAPD     Z3, Z2
	ADDQ        R8, SI                   // the next row's list
	ADDQ        $8, R9
	ADDQ        R14, DI
	DECQ        R12
	JNE         finish
	LEAQ        (AX)(R8*4), AX
	SUBQ        $4, R10
	JNE         group

done:
	VZEROUPPER
	RET

// func sweepF32AVX512(out *float32, stride int, pw *[16]float32, bias *[16]float32, list *f32Entry, k int, cnt *int, rows int, relu bool)
//
// sweepF32AVX's contract in 512-bit registers, for a row count that is a
// multiple of four. Rows go in fours, A to D: A's list starts at AX,
// B's one list (R8 bytes) later, C's two and D's three (R12 bytes). The
// four lists run together for as many entries as the shortest has, B's
// to D's entries R8, 2*R8 and R12 bytes past A's, then each row
// finishes its own list alone. An entry is 8 bytes, its index at 0
// and its value at 4; a panel row is 64 bytes, one ZMM register. Each
// product is the panel row, the first source, times the entry's value,
// broadcast by the multiply itself. A's outputs are Z0, B's Z1, C's Z2
// and D's Z3, each starting at +0. The finish loop runs four times on
// Z0: it ends the row's list, adds the bias (Z13), goes through VMAXPS
// with Z12 = +0 as the second source if relu is set, stores the row at
// DI, then moves Z1 to Z3 down one register and SI, R9 and DI on one
// row.
TEXT ·sweepF32AVX512(SB), NOSPLIT, $0-65
	MOVQ        out+0(FP), DI
	MOVQ        stride+8(FP), R14
	SHLQ        $2, R14                  // bytes per output row: 4 per column
	MOVQ        pw+16(FP), BX
	MOVQ        bias+24(FP), AX
	VMOVUPS     0(AX), Z13
	VPXORQ      Z12, Z12, Z12            // +0 in every lane
	MOVQ        list+32(FP), AX
	MOVQ        k+40(FP), R8
	SHLQ        $3, R8                   // bytes per row list: 8 per entry
	MOVQ        cnt+48(FP), R9
	MOVQ        rows+56(FP), R10
	TESTQ       R10, R10
	JLE         done

	PCALIGN $64
group:
	LEAQ        (R8)(R8*2), R12          // three row lists
	MOVQ        0(R9), CX                // the shared count: the fewest of the four
	CMPQ        8(R9), CX
	CMOVQLT     8(R9), CX
	CMPQ        16(R9), CX
	CMOVQLT     16(R9), CX
	CMPQ        24(R9), CX
	CMOVQLT     24(R9), CX
	VMOVAPS     Z12, Z0
	VMOVAPS     Z12, Z1
	VMOVAPS     Z12, Z2
	VMOVAPS     Z12, Z3
	MOVQ        AX, SI
	MOVQ        CX, R11
	TESTQ       CX, CX
	JEQ         rest

	PCALIGN $64
four:
	MOVL        0(SI), DX
	SHLQ        $6, DX                   // 64 bytes per panel row
	VMOVUPS     0(BX)(DX*1), Z4
	MOVL        0(SI)(R8*1), R13
	SHLQ        $6, R13
	VMOVUPS     0(BX)(R13*1), Z5
	MOVL        0(SI)(R8*2), DX
	SHLQ        $6, DX
	VMOVUPS     0(BX)(DX*1), Z6
	MOVL        0(SI)(R12*1), R13
	SHLQ        $6, R13
	VMOVUPS     0(BX)(R13*1), Z7
	VMULPS.BCST 4(SI), Z4, Z4            // weight * value
	VMULPS.BCST 4(SI)(R8*1), Z5, Z5
	VMULPS.BCST 4(SI)(R8*2), Z6, Z6
	VMULPS.BCST 4(SI)(R12*1), Z7, Z7
	VADDPS      Z4, Z0, Z0               // acc + product
	VADDPS      Z5, Z1, Z1
	VADDPS      Z6, Z2, Z2
	VADDPS      Z7, Z3, Z3
	ADDQ        $8, SI
	DECQ        CX
	JNE         four

rest:
	MOVQ        $4, R12                  // rows of the group left to finish

	PCALIGN $64
finish:
	MOVQ        SI, DX                   // this row's next entry
	MOVQ        0(R9), CX
	SUBQ        R11, CX                  // its entries left
	JEQ         store

	PCALIGN $64
lone:
	MOVL        0(DX), R13
	SHLQ        $6, R13
	VMOVUPS     0(BX)(R13*1), Z4
	VMULPS.BCST 4(DX), Z4, Z4
	VADDPS      Z4, Z0, Z0
	ADDQ        $8, DX
	DECQ        CX
	JNE         lone

store:
	VADDPS      Z13, Z0, Z0              // acc + bias
	CMPB        relu+64(FP), $0
	JEQ         write
	VMAXPS      Z12, Z0, Z0              // max(sum, +0), +0 the second source

write:
	VMOVUPS     Z0, 0(DI)
	VMOVAPS     Z1, Z0                   // the next row's accumulator moves up
	VMOVAPS     Z2, Z1
	VMOVAPS     Z3, Z2
	ADDQ        R8, SI                   // the next row's list
	ADDQ        $8, R9
	ADDQ        R14, DI
	DECQ        R12
	JNE         finish
	LEAQ        (AX)(R8*4), AX
	SUBQ        $4, R10
	JNE         group

done:
	VZEROUPPER
	RET

// func sweepF64AVX512x2(out *float64, stride int, pw *[8]float64, bias *[8]float64, list *f64Entry, k int, cnt *int, rows int, relu bool)
//
// sweepF64AVX512 over two adjacent panels in one pass, for a row count
// that is a multiple of four. pw and bias are the first panel's; the
// second panel's rows start k panel rows later (R15) and its bias 64
// bytes later. Each row keeps one accumulator per panel: A's are Z0
// and Z1, B's Z2 and Z3, C's Z4 and Z5, D's Z6 and Z7, each starting
// from its panel's bias (Z13, Z14). Each entry's index and value are
// loaded once for both panels: the value is broadcast into a register
// (Z8 or Z11) and multiplies the two panel rows it indexes, each panel
// row the first source, and the products are added as acc + product,
// with no FMA. The four lists run together for as many entries as the
// shortest has, then the finish loop runs four times on Z0 and Z1: it
// ends the row's list, goes through VMAXPD against +0 (Z8) as the
// second source if relu is set, stores the row's two panels at DI and
// DI + 64, then moves Z2 to Z7 down two registers and SI, R9 and DI on
// one row.
TEXT ·sweepF64AVX512x2(SB), NOSPLIT, $0-65
	MOVQ         out+0(FP), DI
	MOVQ         stride+8(FP), R14
	SHLQ         $3, R14             // bytes per output row: 8 per column
	MOVQ         pw+16(FP), BX
	MOVQ         k+40(FP), R8
	SHLQ         $6, R8              // bytes per panel: 64 per panel row
	LEAQ         (BX)(R8*1), R15     // the second panel
	SHRQ         $2, R8              // bytes per row list: 16 per entry
	MOVQ         bias+24(FP), AX
	VMOVUPD      0(AX), Z13          // the first panel's bias
	VMOVUPD      64(AX), Z14         // the second's
	MOVQ         list+32(FP), AX
	MOVQ         cnt+48(FP), R9
	MOVQ         rows+56(FP), R10
	TESTQ        R10, R10
	JLE          done

	PCALIGN $64
group:
	LEAQ         (R8)(R8*2), R12     // three row lists
	MOVQ         0(R9), CX           // the shared count: the fewest of the four
	CMPQ         8(R9), CX
	CMOVQLT      8(R9), CX
	CMPQ         16(R9), CX
	CMOVQLT      16(R9), CX
	CMPQ         24(R9), CX
	CMOVQLT      24(R9), CX
	VMOVAPD      Z13, Z0
	VMOVAPD      Z14, Z1
	VMOVAPD      Z13, Z2
	VMOVAPD      Z14, Z3
	VMOVAPD      Z13, Z4
	VMOVAPD      Z14, Z5
	VMOVAPD      Z13, Z6
	VMOVAPD      Z14, Z7
	MOVQ         AX, SI
	MOVQ         CX, R11
	TESTQ        CX, CX
	JEQ          rest

	PCALIGN $64
four:
	MOVL         0(SI), DX
	SHLQ         $6, DX              // 64 bytes per panel row
	VBROADCASTSD 8(SI), Z8
	VMOVUPD      0(BX)(DX*1), Z9
	VMOVUPD      0(R15)(DX*1), Z10
	MOVL         0(SI)(R8*1), R13
	SHLQ         $6, R13
	VBROADCASTSD 8(SI)(R8*1), Z11
	VMOVUPD      0(BX)(R13*1), Z12
	VMOVUPD      0(R15)(R13*1), Z15
	VMULPD       Z8, Z9, Z9          // weight * value
	VMULPD       Z8, Z10, Z10
	VMULPD       Z11, Z12, Z12
	VMULPD       Z11, Z15, Z15
	VADDPD       Z9, Z0, Z0          // acc + product
	VADDPD       Z10, Z1, Z1
	VADDPD       Z12, Z2, Z2
	VADDPD       Z15, Z3, Z3
	MOVL         0(SI)(R8*2), DX
	SHLQ         $6, DX
	VBROADCASTSD 8(SI)(R8*2), Z8
	VMOVUPD      0(BX)(DX*1), Z9
	VMOVUPD      0(R15)(DX*1), Z10
	MOVL         0(SI)(R12*1), R13
	SHLQ         $6, R13
	VBROADCASTSD 8(SI)(R12*1), Z11
	VMOVUPD      0(BX)(R13*1), Z12
	VMOVUPD      0(R15)(R13*1), Z15
	VMULPD       Z8, Z9, Z9
	VMULPD       Z8, Z10, Z10
	VMULPD       Z11, Z12, Z12
	VMULPD       Z11, Z15, Z15
	VADDPD       Z9, Z4, Z4
	VADDPD       Z10, Z5, Z5
	VADDPD       Z12, Z6, Z6
	VADDPD       Z15, Z7, Z7
	ADDQ         $16, SI
	DECQ         CX
	JNE          four

rest:
	MOVQ         $4, R12             // rows of the group left to finish

	PCALIGN $64
finish:
	MOVQ         SI, DX              // this row's next entry
	MOVQ         0(R9), CX
	SUBQ         R11, CX             // its entries left
	JEQ          store

	PCALIGN $64
lone:
	MOVL         0(DX), R13
	SHLQ         $6, R13
	VBROADCASTSD 8(DX), Z8
	VMOVUPD      0(BX)(R13*1), Z9
	VMOVUPD      0(R15)(R13*1), Z10
	VMULPD       Z8, Z9, Z9
	VMULPD       Z8, Z10, Z10
	VADDPD       Z9, Z0, Z0
	VADDPD       Z10, Z1, Z1
	ADDQ         $16, DX
	DECQ         CX
	JNE          lone

store:
	CMPB         relu+64(FP), $0
	JEQ          write
	VPXORQ       Z8, Z8, Z8          // +0 in every lane
	VMAXPD       Z8, Z0, Z0          // max(acc, +0), +0 the second source
	VMAXPD       Z8, Z1, Z1

write:
	VMOVUPD      Z0, 0(DI)
	VMOVUPD      Z1, 64(DI)
	VMOVAPD      Z2, Z0              // the next row's accumulators move up
	VMOVAPD      Z3, Z1
	VMOVAPD      Z4, Z2
	VMOVAPD      Z5, Z3
	VMOVAPD      Z6, Z4
	VMOVAPD      Z7, Z5
	ADDQ         R8, SI              // the next row's list
	ADDQ         $8, R9
	ADDQ         R14, DI
	DECQ         R12
	JNE          finish
	LEAQ         (AX)(R8*4), AX
	SUBQ         $4, R10
	JNE          group

done:
	VZEROUPPER
	RET

// func sweepF32AVX512x2(out *float32, stride int, pw *[16]float32, bias *[16]float32, list *f32Entry, k int, cnt *int, rows int, relu bool)
//
// sweepF64AVX512x2's pairing in sweepF32AVX512's arithmetic, for a row
// count that is a multiple of four: an entry is 8 bytes, its value at
// 4, and each of a row's two accumulators (A's Z0 and Z1 to D's Z6 and
// Z7) starts at +0. The finish loop adds the first panel's bias (Z13)
// to Z0 and the second's (Z14) to Z1 after the row's list, as
// acc + bias, before the relu and the store.
TEXT ·sweepF32AVX512x2(SB), NOSPLIT, $0-65
	MOVQ         out+0(FP), DI
	MOVQ         stride+8(FP), R14
	SHLQ         $2, R14             // bytes per output row: 4 per column
	MOVQ         pw+16(FP), BX
	MOVQ         k+40(FP), R8
	SHLQ         $6, R8              // bytes per panel: 64 per panel row
	LEAQ         (BX)(R8*1), R15     // the second panel
	SHRQ         $3, R8              // bytes per row list: 8 per entry
	MOVQ         bias+24(FP), AX
	VMOVUPS      0(AX), Z13          // the first panel's bias
	VMOVUPS      64(AX), Z14         // the second's
	MOVQ         list+32(FP), AX
	MOVQ         cnt+48(FP), R9
	MOVQ         rows+56(FP), R10
	TESTQ        R10, R10
	JLE          done

	PCALIGN $64
group:
	LEAQ         (R8)(R8*2), R12     // three row lists
	MOVQ         0(R9), CX           // the shared count: the fewest of the four
	CMPQ         8(R9), CX
	CMOVQLT      8(R9), CX
	CMPQ         16(R9), CX
	CMOVQLT      16(R9), CX
	CMPQ         24(R9), CX
	CMOVQLT      24(R9), CX
	VPXORQ       Z0, Z0, Z0
	VPXORQ       Z1, Z1, Z1
	VPXORQ       Z2, Z2, Z2
	VPXORQ       Z3, Z3, Z3
	VPXORQ       Z4, Z4, Z4
	VPXORQ       Z5, Z5, Z5
	VPXORQ       Z6, Z6, Z6
	VPXORQ       Z7, Z7, Z7
	MOVQ         AX, SI
	MOVQ         CX, R11
	TESTQ        CX, CX
	JEQ          rest

	PCALIGN $64
four:
	MOVL         0(SI), DX
	SHLQ         $6, DX              // 64 bytes per panel row
	VBROADCASTSS 4(SI), Z8
	VMOVUPS      0(BX)(DX*1), Z9
	VMOVUPS      0(R15)(DX*1), Z10
	MOVL         0(SI)(R8*1), R13
	SHLQ         $6, R13
	VBROADCASTSS 4(SI)(R8*1), Z11
	VMOVUPS      0(BX)(R13*1), Z12
	VMOVUPS      0(R15)(R13*1), Z15
	VMULPS       Z8, Z9, Z9          // weight * value
	VMULPS       Z8, Z10, Z10
	VMULPS       Z11, Z12, Z12
	VMULPS       Z11, Z15, Z15
	VADDPS       Z9, Z0, Z0          // acc + product
	VADDPS       Z10, Z1, Z1
	VADDPS       Z12, Z2, Z2
	VADDPS       Z15, Z3, Z3
	MOVL         0(SI)(R8*2), DX
	SHLQ         $6, DX
	VBROADCASTSS 4(SI)(R8*2), Z8
	VMOVUPS      0(BX)(DX*1), Z9
	VMOVUPS      0(R15)(DX*1), Z10
	MOVL         0(SI)(R12*1), R13
	SHLQ         $6, R13
	VBROADCASTSS 4(SI)(R12*1), Z11
	VMOVUPS      0(BX)(R13*1), Z12
	VMOVUPS      0(R15)(R13*1), Z15
	VMULPS       Z8, Z9, Z9
	VMULPS       Z8, Z10, Z10
	VMULPS       Z11, Z12, Z12
	VMULPS       Z11, Z15, Z15
	VADDPS       Z9, Z4, Z4
	VADDPS       Z10, Z5, Z5
	VADDPS       Z12, Z6, Z6
	VADDPS       Z15, Z7, Z7
	ADDQ         $8, SI
	DECQ         CX
	JNE          four

rest:
	MOVQ         $4, R12             // rows of the group left to finish

	PCALIGN $64
finish:
	MOVQ         SI, DX              // this row's next entry
	MOVQ         0(R9), CX
	SUBQ         R11, CX             // its entries left
	JEQ          store

	PCALIGN $64
lone:
	MOVL         0(DX), R13
	SHLQ         $6, R13
	VBROADCASTSS 4(DX), Z8
	VMOVUPS      0(BX)(R13*1), Z9
	VMOVUPS      0(R15)(R13*1), Z10
	VMULPS       Z8, Z9, Z9
	VMULPS       Z8, Z10, Z10
	VADDPS       Z9, Z0, Z0
	VADDPS       Z10, Z1, Z1
	ADDQ         $8, DX
	DECQ         CX
	JNE          lone

store:
	VADDPS       Z13, Z0, Z0         // acc + bias
	VADDPS       Z14, Z1, Z1
	CMPB         relu+64(FP), $0
	JEQ          write
	VPXORQ       Z8, Z8, Z8          // +0 in every lane
	VMAXPS       Z8, Z0, Z0          // max(sum, +0), +0 the second source
	VMAXPS       Z8, Z1, Z1

write:
	VMOVUPS      Z0, 0(DI)
	VMOVUPS      Z1, 64(DI)
	VMOVAPS      Z2, Z0              // the next row's accumulators move up
	VMOVAPS      Z3, Z1
	VMOVAPS      Z4, Z2
	VMOVAPS      Z5, Z3
	VMOVAPS      Z6, Z4
	VMOVAPS      Z7, Z5
	ADDQ         R8, SI              // the next row's list
	ADDQ         $8, R9
	ADDQ         R14, DI
	DECQ         R12
	JNE          finish
	LEAQ         (AX)(R8*4), AX
	SUBQ         $4, R10
	JNE          group

done:
	VZEROUPPER
	RET
