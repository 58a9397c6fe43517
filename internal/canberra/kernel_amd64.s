//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 Canberra kernels. Bit-exact translations of the scalar kernels
// in kernel.go — see kernel_amd64.go for the accumulation-order
// contract. Shared register conventions:
//
//   BX  = &recipSum[0] (512-entry float64 reciprocal table)
//   Y1  = float64 abs mask (sign bit cleared): 0x7FFFFFFFFFFFFFFF ×4
//   X2  = int32 index mask: 511 ×4
//   Y0  = vector accumulator (4 chains / 4 windows)
//   Y9  = gather completion mask (consumed by VGATHERDPD, reset per use)
//
// One Canberra term per lane:
//   Y4 = a, Y5 = b
//   Y7 = |a−b|        (VSUBPD + VANDPD)
//   X8 = int32(a+b) & 511
//   Y10 = recipSum[X8] (VGATHERDPD)
//   Y0 += Y7·Y10       (VFMADD231PD — the one rounding math.FMA does)

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func canberraDistBatchAVX2(x *float64, n int, ys []View, out *float64, fls float64)
//
// out[j] = (raw Canberra distance between x[0:n] and ys[j][0:n]) / fls
// for every j; callers wanting the raw sum pass fls = 1 (division by
// one is exact). The batch loop lives here so a tile row of short
// segments pays the call overhead once, and pairs are processed two at
// a time — both pairs share the x load and their gather/FMA chains are
// independent, which hides the gather latency that dominates a single
// short pair. Per pair: main loop of 4 elements per iteration into 4
// accumulator lanes, reduce (s0+s2)+(s1+s3), then a sequential scalar
// tail over the n&3 remainder — the exact shape of distScalar.
//
// VEX-encoded throughout, including the scalar reduce/tail: one
// legacy-SSE instruction here, with the ymm uppers dirty, forces an
// SSE/AVX state transition on every pair (measured ~20× slowdown).
TEXT ·canberraDistBatchAVX2(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), R15
	MOVQ n+8(FP), R11
	MOVQ ys_base+16(FP), R12
	MOVQ ys_len+24(FP), R13
	MOVQ out+40(FP), R14
	VMOVSD fls+48(FP), X15

	LEAQ ·recipSum(SB), BX
	VPCMPEQQ Y1, Y1, Y1
	VPSRLQ $1, Y1, Y1
	VPCMPEQD X2, X2, X2
	VPSRLD $23, X2, X2

pairloop2:
	CMPQ R13, $2
	JB pairloop1
	MOVQ (R12), DX   // ys[j] data pointer (slice header word 0)
	MOVQ 24(R12), DI // ys[j+1] data pointer
	MOVQ R15, SI
	VXORPD Y0, Y0, Y0
	VXORPD Y3, Y3, Y3
	MOVQ R11, CX
	SHRQ $2, CX
	JE reduce2

vecloop2:
	VMOVUPD (SI), Y4
	VMOVUPD (DX), Y5
	VMOVUPD (DI), Y6

	VSUBPD Y5, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y5, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0

	VSUBPD Y6, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y6, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y3

	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNE vecloop2

reduce2:
	// sum = (s0+s2) + (s1+s3) per pair, the distScalar reduce order.
	VEXTRACTF128 $1, Y0, X11
	VADDPD X11, X0, X12
	VUNPCKHPD X12, X12, X13
	VADDSD X13, X12, X12
	VEXTRACTF128 $1, Y3, X11
	VADDPD X11, X3, X14
	VUNPCKHPD X14, X14, X13
	VADDSD X13, X14, X14

	MOVQ R11, R10
	ANDQ $3, R10
	JE store2
	MOVQ SI, R9 // tail start within x, shared by both pairs

tailloop2a:
	VMOVSD (SI), X4
	VMOVSD (DX), X5
	VSUBSD X5, X4, X7
	VANDPD X1, X7, X7
	VADDSD X5, X4, X8
	VCVTTSD2SIQ X8, AX
	ANDQ $511, AX
	VMOVSD (BX)(AX*8), X10
	VFMADD231SD X10, X7, X12
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ R10
	JNE tailloop2a

	MOVQ R9, SI
	MOVQ R11, R10
	ANDQ $3, R10

tailloop2b:
	VMOVSD (SI), X4
	VMOVSD (DI), X5
	VSUBSD X5, X4, X7
	VANDPD X1, X7, X7
	VADDSD X5, X4, X8
	VCVTTSD2SIQ X8, AX
	ANDQ $511, AX
	VMOVSD (BX)(AX*8), X10
	VFMADD231SD X10, X7, X14
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ R10
	JNE tailloop2b

store2:
	VDIVSD X15, X12, X12
	VDIVSD X15, X14, X14
	VMOVSD X12, (R14)
	VMOVSD X14, 8(R14)
	ADDQ $48, R12 // two slice headers (ptr+len+cap each)
	ADDQ $16, R14
	SUBQ $2, R13
	JMP pairloop2

pairloop1:
	TESTQ R13, R13
	JE done
	MOVQ (R12), DX
	MOVQ R15, SI
	VXORPD Y0, Y0, Y0
	MOVQ R11, CX
	SHRQ $2, CX
	JE reduce1

vecloop1:
	VMOVUPD (SI), Y4
	VMOVUPD (DX), Y5
	VSUBPD Y5, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y5, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNE vecloop1

reduce1:
	VEXTRACTF128 $1, Y0, X11
	VADDPD X11, X0, X12
	VUNPCKHPD X12, X12, X13
	VADDSD X13, X12, X12

	MOVQ R11, R10
	ANDQ $3, R10
	JE store1

tailloop1:
	VMOVSD (SI), X4
	VMOVSD (DX), X5
	VSUBSD X5, X4, X7
	VANDPD X1, X7, X7
	VADDSD X5, X4, X8
	VCVTTSD2SIQ X8, AX
	ANDQ $511, AX
	VMOVSD (BX)(AX*8), X10
	VFMADD231SD X10, X7, X12
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ R10
	JNE tailloop1

store1:
	VDIVSD X15, X12, X12
	VMOVSD X12, (R14)
	ADDQ $24, R12
	ADDQ $8, R14
	DECQ R13
	JMP pairloop1

done:
	VZEROUPPER
	RET

// func canberraAbandon4AVX2(s *float64, n int, t *float64, bound float64, sums *[4]float64)
//
// Four adjacent sliding windows as four lanes: at element i, lane j
// accumulates term(s[i], t[i+j]) — the four t values are contiguous, so
// one unaligned load feeds all lanes and s[i] broadcasts. Each lane is
// one accumulation chain in element order (bit-identical to a solo
// abandonScalar scan). The abandon test runs once per 4 elements and
// stops only when every lane has reached bound; a lane past bound keeps
// accumulating, which is harmless because sums only grow and the caller
// discards any sum ≥ bound.
TEXT ·canberraAbandon4AVX2(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ t+16(FP), DX

	LEAQ ·recipSum(SB), BX
	VPCMPEQQ Y1, Y1, Y1
	VPSRLQ $1, Y1, Y1
	VPCMPEQD X2, X2, X2
	VPSRLD $23, X2, X2
	VBROADCASTSD bound+24(FP), Y11
	VXORPD Y0, Y0, Y0

	MOVQ CX, R10
	SHRQ $2, R10
	JE remsetup

grouploop:
	// element i
	VBROADCASTSD (SI), Y4
	VMOVUPD (DX), Y5
	VSUBPD Y5, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y5, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0

	// element i+1
	VBROADCASTSD 8(SI), Y4
	VMOVUPD 8(DX), Y5
	VSUBPD Y5, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y5, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0

	// element i+2
	VBROADCASTSD 16(SI), Y4
	VMOVUPD 16(DX), Y5
	VSUBPD Y5, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y5, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0

	// element i+3
	VBROADCASTSD 24(SI), Y4
	VMOVUPD 24(DX), Y5
	VSUBPD Y5, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y5, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0

	ADDQ $32, SI
	ADDQ $32, DX

	// abandon when all four lanes ≥ bound
	VCMPPD $0x0D, Y11, Y0, Y12
	VMOVMSKPD Y12, AX
	CMPQ AX, $15
	JE store
	DECQ R10
	JNE grouploop

remsetup:
	MOVQ CX, R10
	ANDQ $3, R10
	JE store

remloop:
	VBROADCASTSD (SI), Y4
	VMOVUPD (DX), Y5
	VSUBPD Y5, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y5, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ R10
	JNE remloop

store:
	MOVQ sums+32(FP), AX
	VMOVUPD Y0, (AX)
	VZEROUPPER
	RET

// func canberraAbandon8F32AVX2(s *float32, n int, t *float32, bound float32, sums *[8]float32)
//
// Float32 screening twin of canberraAbandon4AVX2: eight adjacent
// sliding windows as eight single-precision lanes against the
// recipSum32 table. Screening sums are not part of the bit-identity
// contract — the caller re-confirms candidate windows in float64 — so
// this loop uses fused float32 FMA terms and only has to stay within
// the f32Inflate error margin of the float64 sums.
TEXT ·canberraAbandon8F32AVX2(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ t+16(FP), DX

	LEAQ ·recipSum32(SB), BX
	VPCMPEQD Y1, Y1, Y1
	VPSRLD $1, Y1, Y1  // float32 abs mask
	VPCMPEQD Y2, Y2, Y2
	VPSRLD $23, Y2, Y2 // int32 index mask: 511 ×8
	VBROADCASTSS bound+24(FP), Y11
	VXORPS Y0, Y0, Y0

	MOVQ CX, R10
	SHRQ $2, R10
	JE remsetup

grouploop:
	// element i
	VBROADCASTSS (SI), Y4
	VMOVUPS (DX), Y5
	VSUBPS Y5, Y4, Y7
	VANDPS Y1, Y7, Y7
	VADDPS Y5, Y4, Y8
	VCVTTPS2DQ Y8, Y8
	VPAND Y2, Y8, Y8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPS Y9, (BX)(Y8*4), Y10
	VFMADD231PS Y10, Y7, Y0

	// element i+1
	VBROADCASTSS 4(SI), Y4
	VMOVUPS 4(DX), Y5
	VSUBPS Y5, Y4, Y7
	VANDPS Y1, Y7, Y7
	VADDPS Y5, Y4, Y8
	VCVTTPS2DQ Y8, Y8
	VPAND Y2, Y8, Y8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPS Y9, (BX)(Y8*4), Y10
	VFMADD231PS Y10, Y7, Y0

	// element i+2
	VBROADCASTSS 8(SI), Y4
	VMOVUPS 8(DX), Y5
	VSUBPS Y5, Y4, Y7
	VANDPS Y1, Y7, Y7
	VADDPS Y5, Y4, Y8
	VCVTTPS2DQ Y8, Y8
	VPAND Y2, Y8, Y8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPS Y9, (BX)(Y8*4), Y10
	VFMADD231PS Y10, Y7, Y0

	// element i+3
	VBROADCASTSS 12(SI), Y4
	VMOVUPS 12(DX), Y5
	VSUBPS Y5, Y4, Y7
	VANDPS Y1, Y7, Y7
	VADDPS Y5, Y4, Y8
	VCVTTPS2DQ Y8, Y8
	VPAND Y2, Y8, Y8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPS Y9, (BX)(Y8*4), Y10
	VFMADD231PS Y10, Y7, Y0

	ADDQ $16, SI
	ADDQ $16, DX

	// abandon when all eight lanes ≥ bound
	VCMPPS $0x0D, Y11, Y0, Y12
	VMOVMSKPS Y12, AX
	CMPQ AX, $255
	JE store
	DECQ R10
	JNE grouploop

remsetup:
	MOVQ CX, R10
	ANDQ $3, R10
	JE store

remloop:
	VBROADCASTSS (SI), Y4
	VMOVUPS (DX), Y5
	VSUBPS Y5, Y4, Y7
	VANDPS Y1, Y7, Y7
	VADDPS Y5, Y4, Y8
	VCVTTPS2DQ Y8, Y8
	VPAND Y2, Y8, Y8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPS Y9, (BX)(Y8*4), Y10
	VFMADD231PS Y10, Y7, Y0
	ADDQ $4, SI
	ADDQ $4, DX
	DECQ R10
	JNE remloop

store:
	MOVQ sums+32(FP), AX
	VMOVUPS Y0, (AX)
	VZEROUPPER
	RET

// func canberraMinLanes4AVX2(b *float64, bStep int, ts *View, tStep int, n, windows int, out *[4]float64)
//
// Partner lanes: lane k compares the broadcast view b with partner
// ts[k] over windows consecutive windows of n elements and keeps the
// minimum raw window sum. Between windows, b advances by bStep bytes
// and every partner by tStep bytes — (0, 8) slides b over the
// partners, (8, 0) slides the partners over b. Each window is one
// accumulation chain in element order, exactly abandonScalar run to the
// end, so every lane's minimum is a window sum the scalar kernel
// computes bit for bit. The four partner elements of a step are
// gathered from four independent slices (absolute addresses in Y5).
TEXT ·canberraMinLanes4AVX2(SB), NOSPLIT, $0-56
	MOVQ b+0(FP), SI
	MOVQ ts+16(FP), R12
	MOVQ n+32(FP), R11
	MOVQ windows+40(FP), R10

	LEAQ ·recipSum(SB), BX
	XORQ R8, R8 // gather base: Y5 holds absolute addresses
	VPCMPEQQ Y1, Y1, Y1
	VPSRLQ $1, Y1, Y1
	VPCMPEQD X2, X2, X2
	VPSRLD $23, X2, X2

	// Y3 = the four partner data pointers (slice header word 0).
	MOVQ 0(R12), AX
	VMOVQ AX, X3
	MOVQ 24(R12), AX
	VPINSRQ $1, AX, X3, X3
	MOVQ 48(R12), AX
	VMOVQ AX, X4
	MOVQ 72(R12), AX
	VPINSRQ $1, AX, X4, X4
	VINSERTI128 $1, X4, Y3, Y3

	MOVQ tStep+24(FP), AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ $8, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ $0x7FF0000000000000, AX // +Inf
	VMOVQ AX, X12
	VPBROADCASTQ X12, Y12
	MOVQ bStep+8(FP), R9

windowloop:
	MOVQ SI, DI
	VMOVDQU Y3, Y5
	VXORPD Y0, Y0, Y0
	MOVQ R11, CX

elemloop:
	VBROADCASTSD (DI), Y4
	VPCMPEQD Y9, Y9, Y9
	VGATHERQPD Y9, (R8)(Y5*1), Y6
	VSUBPD Y6, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y6, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0
	ADDQ $8, DI
	VPADDQ Y14, Y5, Y5
	DECQ CX
	JNE elemloop

	VMINPD Y0, Y12, Y12
	ADDQ R9, SI
	VPADDQ Y13, Y3, Y3
	DECQ R10
	JNE windowloop

	MOVQ out+48(FP), AX
	VMOVUPD Y12, (AX)
	VZEROUPPER
	RET
