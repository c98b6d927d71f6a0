#include "textflag.h"

// func induct4(vals *float64, pw *float64, c *coeffs, steps int)
//
// PriceAmericanCall's backward induction, one option per lane. Step
// `step` sweeps nodes 0..step: DI walks vals a row (32 bytes) a node and
// R10 walks the step's node prices, pw row steps-step+2j, two rows a
// node. Y0 holds vals[j] and Y1 vals[j+1], which becomes the next
// node's vals[j], so each node loads one value row and one price row.
// The operands of each multiply and add are in the order the compiled
// scalar loop has them (value * coefficient, product + product,
// sum * rInv), which decides the NaN a lane keeps when two differ.
TEXT ·induct4(SB), NOSPLIT, $0-32
	MOVQ    vals+0(FP), DI
	MOVQ    pw+8(FP), SI
	MOVQ    c+16(FP), AX
	MOVQ    steps+24(FP), BX // the node count of the next step: step+1
	VMOVUPD 0(AX), Y12       // x
	VMOVUPD 32(AX), Y13      // rInv
	VMOVUPD 64(AX), Y14      // pu
	VMOVUPD 96(AX), Y15      // pd
	LEAQ    32(SI), R8       // the first step's prices: pw row 1
	TESTQ   BX, BX
	JLE     done

	PCALIGN $64
step:
	MOVQ    DI, R9
	MOVQ    R8, R10
	MOVQ    BX, CX
	VMOVUPD (R9), Y0 // vals[0]

	PCALIGN $64
node:
	VMOVUPD 32(R9), Y1  // vals[j+1]
	VMULPD  Y14, Y1, Y2 // vals[j+1] * pu
	VMULPD  Y15, Y0, Y3 // vals[j] * pd
	VADDPD  Y3, Y2, Y2  // product + product
	VMULPD  Y13, Y2, Y2 // * rInv: cont
	VMOVUPD (R10), Y3
	VSUBPD  Y12, Y3, Y3 // price - x: exercise
	VMAXPD  Y2, Y3, Y2  // exercise > cont ? exercise : cont
	VMOVUPD Y2, (R9)
	VMOVAPD Y1, Y0
	ADDQ    $32, R9
	ADDQ    $64, R10
	DECQ    CX
	JNZ     node

	ADDQ $32, R8
	DECQ BX
	JNZ  step

done:
	VZEROUPPER
	RET
