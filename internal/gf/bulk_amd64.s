//go:build amd64 && !purego

#include "textflag.h"

// AVX2 block kernels over the nibble-split tables (see nibble.go for the
// table layout, which these kernels index by fixed byte offsets).
//
// GF(2^8), per 32-byte block (32 symbols):
//   c*s = lo[s&0xf] ^ hi[s>>4], one VPSHUFB per table half.
//
// GF(2^16), per 32-byte block (16 little-endian words): extract the four
// nibbles of every word in place — no byte deinterleave needed. For
// nibble k the index vector qk holds the nibble value in each word's low
// byte and zero in the high byte, so VPSHUFB against the 16-entry tables
// yields the contribution's low product bytes in even positions (and
// table[0] = 0 in odd ones); the high product bytes are shuffled the same
// way and moved into the odd positions with a word shift:
//   contribution_k = PSHUFB(lo[k], qk) ^ (PSHUFB(hi[k], qk) << 8)
//   c*s            = contribution_0 ^ ... ^ contribution_3

// 0x0f in every byte: per-byte nibble mask for the GF(2^8) kernels.
DATA byteNibMask<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA byteNibMask<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA byteNibMask<>+0x10(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA byteNibMask<>+0x18(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL byteNibMask<>(SB), RODATA|NOPTR, $32

// 0x000f in every word: per-word nibble mask for the GF(2^16) kernels.
DATA wordNibMask<>+0x00(SB)/8, $0x000f000f000f000f
DATA wordNibMask<>+0x08(SB)/8, $0x000f000f000f000f
DATA wordNibMask<>+0x10(SB)/8, $0x000f000f000f000f
DATA wordNibMask<>+0x18(SB)/8, $0x000f000f000f000f
GLOBL wordNibMask<>(SB), RODATA|NOPTR, $32

// func gf8AddMulAVX2(dst, src *uint8, blocks int, t *nib8)
// dst[i] ^= c*src[i] over blocks*32 bytes.
TEXT ·gf8AddMulAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ t+24(FP), DX
	VBROADCASTI128 (DX), Y0      // lo nibble table in both lanes
	VBROADCASTI128 16(DX), Y1    // hi nibble table in both lanes
	VMOVDQU byteNibMask<>(SB), Y2

gf8addmul_loop:
	VMOVDQU (SI), Y3
	VPSRLW  $4, Y3, Y4
	VPAND   Y2, Y3, Y3           // low nibbles
	VPAND   Y2, Y4, Y4           // high nibbles
	VPSHUFB Y3, Y0, Y3           // lo[low nibble]
	VPSHUFB Y4, Y1, Y4           // hi[high nibble]
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     gf8addmul_loop
	VZEROUPPER
	RET

// func gf8MulAVX2(dst, src *uint8, blocks int, t *nib8)
// dst[i] = c*src[i] over blocks*32 bytes.
TEXT ·gf8MulAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ t+24(FP), DX
	VBROADCASTI128 (DX), Y0
	VBROADCASTI128 16(DX), Y1
	VMOVDQU byteNibMask<>(SB), Y2

gf8mul_loop:
	VMOVDQU (SI), Y3
	VPSRLW  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     gf8mul_loop
	VZEROUPPER
	RET

// gf16 kernel body shared by the add-mul and mul variants: computes
// c*src-block into Y12 from the block in Y9. Tables: Y0-Y3 = lo[0..3],
// Y4-Y7 = hi[0..3], Y8 = word nibble mask. Clobbers Y10, Y11.
#define GF16BLOCK \
	VPAND   Y8, Y9, Y10   \ // q0: nibble 0
	VPSHUFB Y10, Y0, Y12  \
	VPSHUFB Y10, Y4, Y11  \
	VPSLLW  $8, Y11, Y11  \
	VPXOR   Y11, Y12, Y12 \
	VPSRLW  $4, Y9, Y10   \ // q1: nibble 1
	VPAND   Y8, Y10, Y10  \
	VPSHUFB Y10, Y1, Y11  \
	VPXOR   Y11, Y12, Y12 \
	VPSHUFB Y10, Y5, Y11  \
	VPSLLW  $8, Y11, Y11  \
	VPXOR   Y11, Y12, Y12 \
	VPSRLW  $8, Y9, Y10   \ // q2: nibble 2
	VPAND   Y8, Y10, Y10  \
	VPSHUFB Y10, Y2, Y11  \
	VPXOR   Y11, Y12, Y12 \
	VPSHUFB Y10, Y6, Y11  \
	VPSLLW  $8, Y11, Y11  \
	VPXOR   Y11, Y12, Y12 \
	VPSRLW  $12, Y9, Y10  \ // q3: nibble 3 (shift clears all other bits)
	VPSHUFB Y10, Y3, Y11  \
	VPXOR   Y11, Y12, Y12 \
	VPSHUFB Y10, Y7, Y11  \
	VPSLLW  $8, Y11, Y11  \
	VPXOR   Y11, Y12, Y12

#define GF16LOADTABLES \
	VBROADCASTI128 (DX), Y0     \
	VBROADCASTI128 16(DX), Y1   \
	VBROADCASTI128 32(DX), Y2   \
	VBROADCASTI128 48(DX), Y3   \
	VBROADCASTI128 64(DX), Y4   \
	VBROADCASTI128 80(DX), Y5   \
	VBROADCASTI128 96(DX), Y6   \
	VBROADCASTI128 112(DX), Y7  \
	VMOVDQU wordNibMask<>(SB), Y8

// func gf16AddMulAVX2(dst, src *uint16, blocks int, t *nib16)
// dst[i] ^= c*src[i] over blocks*16 words.
TEXT ·gf16AddMulAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ t+24(FP), DX
	GF16LOADTABLES

gf16addmul_loop:
	VMOVDQU (SI), Y9
	GF16BLOCK
	VPXOR   (DI), Y12, Y12
	VMOVDQU Y12, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     gf16addmul_loop
	VZEROUPPER
	RET

// func gf16MulAVX2(dst, src *uint16, blocks int, t *nib16)
// dst[i] = c*src[i] over blocks*16 words.
TEXT ·gf16MulAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ t+24(FP), DX
	GF16LOADTABLES

gf16mul_loop:
	VMOVDQU (SI), Y9
	GF16BLOCK
	VMOVDQU Y12, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     gf16mul_loop
	VZEROUPPER
	RET

// Fused multi-source kernels. The single-source kernels above walk the
// accumulator once per (coefficient, src) term: an N-term combination
// loads and stores dst N times. The fused kernels keep a 128-byte strip
// of the accumulator in four YMM registers across 2 or 4 terms, so dst
// traffic (and loop overhead) is paid once per strip instead of once per
// term:
//
//   - GF(2^8): the 2 nibble tables of every term stay resident (2 terms =
//     4 table registers, 4 terms = 8), so a strip costs one dst load/store
//     plus per term: 4 src loads and 8 shuffles. Accumulators live in
//     Y12-Y15.
//   - GF(2^16): a byte-planar scheme (see the comment further down) that
//     halves the shuffle count per symbol; one term's 8 tables fill half
//     the register file, so they are (re)broadcast from L1 at each strip,
//     which the 4-block strip amortizes. Accumulator planes live in
//     Y8-Y11.
//
// All fused kernels share one signature shape:
//
//   func gfNAddMulKAVX2(dst *T, srcs **T, strips int, ts *nibN)
//
// srcs points at an array of K source pointers, ts at K contiguous nibble
// tables (the routing layer passes stack arrays), and strips counts
// 128-byte units. The routing layer guarantees strips >= 1 and finishes
// tails with the portable fused nibble loops over the same tables.

// GF8ACC computes one 32-byte block's contribution c*src and XORs it into
// the accumulator register: src block in Y9, nibble mask in Y8, tables in
// lo/hi. Clobbers Y10, Y11.
#define GF8ACC(lo, hi, acc) \
	VPSRLW  $4, Y9, Y10   \
	VPAND   Y8, Y9, Y11   \
	VPAND   Y8, Y10, Y10  \
	VPSHUFB Y11, lo, Y11  \
	VPXOR   Y11, acc, acc \
	VPSHUFB Y10, hi, Y10  \
	VPXOR   Y10, acc, acc

// GF8STRIPTERM processes one term across the four blocks of a strip:
// src base register in sreg, tables in lo/hi, accumulators Y12-Y15.
#define GF8STRIPTERM(sreg, lo, hi) \
	VMOVDQU (sreg), Y9    \
	GF8ACC(lo, hi, Y12)   \
	VMOVDQU 32(sreg), Y9  \
	GF8ACC(lo, hi, Y13)   \
	VMOVDQU 64(sreg), Y9  \
	GF8ACC(lo, hi, Y14)   \
	VMOVDQU 96(sreg), Y9  \
	GF8ACC(lo, hi, Y15)

// LOADACC / STOREACC move one 128-byte dst strip in and out of Y12-Y15.
#define LOADACC \
	VMOVDQU (DI), Y12   \
	VMOVDQU 32(DI), Y13 \
	VMOVDQU 64(DI), Y14 \
	VMOVDQU 96(DI), Y15

#define STOREACC \
	VMOVDQU Y12, (DI)   \
	VMOVDQU Y13, 32(DI) \
	VMOVDQU Y14, 64(DI) \
	VMOVDQU Y15, 96(DI)

// func gf8AddMul2AVX2(dst *uint8, srcs **uint8, strips int, ts *nib8)
// dst[i] ^= c0*src0[i] ^ c1*src1[i] over strips*128 bytes.
TEXT ·gf8AddMul2AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ srcs+8(FP), AX
	MOVQ (AX), R8
	MOVQ 8(AX), R9
	MOVQ strips+16(FP), CX
	MOVQ ts+24(FP), DX
	VBROADCASTI128 (DX), Y0     // lo tables, term 0
	VBROADCASTI128 16(DX), Y1   // hi tables, term 0
	VBROADCASTI128 32(DX), Y2   // term 1
	VBROADCASTI128 48(DX), Y3
	VMOVDQU byteNibMask<>(SB), Y8

gf8addmul2_loop:
	LOADACC
	GF8STRIPTERM(R8, Y0, Y1)
	GF8STRIPTERM(R9, Y2, Y3)
	STOREACC
	ADDQ $128, DI
	ADDQ $128, R8
	ADDQ $128, R9
	DECQ CX
	JNZ  gf8addmul2_loop
	VZEROUPPER
	RET

// func gf8AddMul4AVX2(dst *uint8, srcs **uint8, strips int, ts *nib8)
// dst[i] ^= c0*src0[i] ^ ... ^ c3*src3[i] over strips*128 bytes.
TEXT ·gf8AddMul4AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ srcs+8(FP), AX
	MOVQ (AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ strips+16(FP), CX
	MOVQ ts+24(FP), DX
	VBROADCASTI128 (DX), Y0     // term 0
	VBROADCASTI128 16(DX), Y1
	VBROADCASTI128 32(DX), Y2   // term 1
	VBROADCASTI128 48(DX), Y3
	VBROADCASTI128 64(DX), Y4   // term 2
	VBROADCASTI128 80(DX), Y5
	VBROADCASTI128 96(DX), Y6   // term 3
	VBROADCASTI128 112(DX), Y7
	VMOVDQU byteNibMask<>(SB), Y8

gf8addmul4_loop:
	LOADACC
	GF8STRIPTERM(R8, Y0, Y1)
	GF8STRIPTERM(R9, Y2, Y3)
	GF8STRIPTERM(R10, Y4, Y5)
	GF8STRIPTERM(R11, Y6, Y7)
	STOREACC
	ADDQ $128, DI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	ADDQ $128, R11
	DECQ CX
	JNZ  gf8addmul4_loop
	VZEROUPPER
	RET

// The fused GF(2^16) kernels work on a byte-planar view of each strip:
// the 64 interleaved little-endian words are deinterleaved into a plane
// of 64 low bytes and a plane of 64 high bytes (two YMM each). In planar
// form one VPSHUFB covers a nibble of 32 symbols instead of 16, halving
// the shuffle count per symbol — the layout idea the fastest
// Reed-Solomon GF(2^16) kernels use — which is what lifts the compute
// ceiling far enough above the interleaved single-source kernel for
// fusion's memory savings to show. The deinterleave costs 8 ops per 32
// words (shuffle to [evens|odds] per lane, VPERMQ to planar halves,
// VPERM2I128 to full planes) and is amortized over all nibble positions
// of a term; the accumulator planes convert once per strip.
//
// Register budget (exactly 16): Y0-Y3 lo tables, Y4-Y7 hi tables,
// Y8-Y11 accumulator planes (L0, H0, L1, H1), Y12-Y15 transient
// (deinterleave staging, source planes, shuffle temporaries). The byte
// nibble mask and the deinterleave pattern come in as memory operands.

// deintPat gathers the even bytes then the odd bytes of each 128-bit
// lane: the word-to-plane shuffle.
DATA deintPat<>+0x00(SB)/8, $0x0e0c0a0806040200
DATA deintPat<>+0x08(SB)/8, $0x0f0d0b0907050301
DATA deintPat<>+0x10(SB)/8, $0x0e0c0a0806040200
DATA deintPat<>+0x18(SB)/8, $0x0f0d0b0907050301
GLOBL deintPat<>(SB), RODATA|NOPTR, $32

// GF16DEINT loads 32 interleaved words at off(sreg) and produces their
// low-byte plane in outL and high-byte plane in outH, staging through tA
// and tB.
#define GF16DEINT(off, sreg, outL, outH, tA, tB) \
	VMOVDQU    off+0(sreg), tA          \
	VMOVDQU    off+32(sreg), tB         \
	VPSHUFB    deintPat<>(SB), tA, tA   \
	VPSHUFB    deintPat<>(SB), tB, tB   \
	VPERMQ     $0xd8, tA, tA            \
	VPERMQ     $0xd8, tB, tB            \
	VPERM2I128 $0x20, tB, tA, outL      \
	VPERM2I128 $0x31, tB, tA, outH

// GF16REINT interleaves the contribution planes aL/aH back into two
// 32-word blocks, XORs them into dst at off(DI), and stores. The
// accumulators start zeroed each strip, so dst itself never needs
// deinterleaving — it is folded in here, in interleaved form.
#define GF16REINT(off, aL, aH, tA, tB) \
	VPUNPCKLBW aH, aL, tA          \
	VPUNPCKHBW aH, aL, tB          \
	VPERM2I128 $0x20, tB, tA, aL   \
	VPERM2I128 $0x31, tB, tA, aH   \
	VPXOR      off+0(DI), aL, aL   \
	VPXOR      off+32(DI), aH, aH  \
	VMOVDQU    aL, off+0(DI)       \
	VMOVDQU    aH, off+32(DI)

// GF16ZEROACC clears the four accumulator planes for a new strip.
#define GF16ZEROACC \
	VPXOR Y8, Y8, Y8    \
	VPXOR Y9, Y9, Y9    \
	VPXOR Y10, Y10, Y10 \
	VPXOR Y11, Y11, Y11

// GF16PLANARTERM accumulates one term's contribution for 32 words: source
// planes in Y14 (low bytes) and Y15 (high bytes), tables in Y0-Y7,
// accumulator planes aL/aH. Destroys Y14, Y15; clobbers Y12, Y13. Each
// nibble position k contributes shuffle(lo_k) to the low plane and
// shuffle(hi_k) to the high plane. The odd nibbles come from
// (plane ^ low_nibbles) >> 4: the word-wise shift of plane & 0xf0 leaves
// bits 4-7 of every byte zero (the neighbor byte's contribution was
// masked off before the shift), so the result is a clean VPSHUFB index
// with one register XOR instead of a second mask load.
#define GF16PLANARTERM(aL, aH) \
	VPAND   byteNibMask<>(SB), Y14, Y12 \ // nibble 0: low bytes & 0xf
	VPSHUFB Y12, Y0, Y13                \
	VPXOR   Y13, aL, aL                 \
	VPSHUFB Y12, Y4, Y13                \
	VPXOR   Y13, aH, aH                 \
	VPXOR   Y12, Y14, Y14               \ // nibble 1: (low & 0xf0) >> 4
	VPSRLW  $4, Y14, Y14                \
	VPSHUFB Y14, Y1, Y13                \
	VPXOR   Y13, aL, aL                 \
	VPSHUFB Y14, Y5, Y13                \
	VPXOR   Y13, aH, aH                 \
	VPAND   byteNibMask<>(SB), Y15, Y12 \ // nibble 2: high bytes & 0xf
	VPSHUFB Y12, Y2, Y13                \
	VPXOR   Y13, aL, aL                 \
	VPSHUFB Y12, Y6, Y13                \
	VPXOR   Y13, aH, aH                 \
	VPXOR   Y12, Y15, Y15               \ // nibble 3: (high & 0xf0) >> 4
	VPSRLW  $4, Y15, Y15                \
	VPSHUFB Y15, Y3, Y13                \
	VPXOR   Y13, aL, aL                 \
	VPSHUFB Y15, Y7, Y13                \
	VPXOR   Y13, aH, aH

// GF16TABS broadcasts one term's eight nibble tables from off(DX).
#define GF16TABS(off) \
	VBROADCASTI128 off+0(DX), Y0    \
	VBROADCASTI128 off+16(DX), Y1   \
	VBROADCASTI128 off+32(DX), Y2   \
	VBROADCASTI128 off+48(DX), Y3   \
	VBROADCASTI128 off+64(DX), Y4   \
	VBROADCASTI128 off+80(DX), Y5   \
	VBROADCASTI128 off+96(DX), Y6   \
	VBROADCASTI128 off+112(DX), Y7

// GF16PLANARSTRIPTERM processes one whole strip (both 32-word halves) of
// one term: tables at off(DX), source strip at sreg.
#define GF16PLANARSTRIPTERM(sreg, off) \
	GF16TABS(off)                          \
	GF16DEINT(0, sreg, Y14, Y15, Y12, Y13) \
	GF16PLANARTERM(Y8, Y9)                 \
	GF16DEINT(64, sreg, Y14, Y15, Y12, Y13) \
	GF16PLANARTERM(Y10, Y11)

// func gf16AddMul2AVX2(dst *uint16, srcs **uint16, strips int, ts *nib16)
// dst[i] ^= c0*src0[i] ^ c1*src1[i] over strips*64 words.
TEXT ·gf16AddMul2AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ srcs+8(FP), AX
	MOVQ (AX), R8
	MOVQ 8(AX), R9
	MOVQ strips+16(FP), CX
	MOVQ ts+24(FP), DX

gf16addmul2_loop:
	GF16ZEROACC
	GF16PLANARSTRIPTERM(R8, 0)
	GF16PLANARSTRIPTERM(R9, 128)
	GF16REINT(0, Y8, Y9, Y12, Y13)
	GF16REINT(64, Y10, Y11, Y12, Y13)
	ADDQ $128, DI
	ADDQ $128, R8
	ADDQ $128, R9
	DECQ CX
	JNZ  gf16addmul2_loop
	VZEROUPPER
	RET

// func gf16AddMul4AVX2(dst *uint16, srcs **uint16, strips int, ts *nib16)
// dst[i] ^= c0*src0[i] ^ ... ^ c3*src3[i] over strips*64 words.
TEXT ·gf16AddMul4AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ srcs+8(FP), AX
	MOVQ (AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ strips+16(FP), CX
	MOVQ ts+24(FP), DX

gf16addmul4_loop:
	GF16ZEROACC
	GF16PLANARSTRIPTERM(R8, 0)
	GF16PLANARSTRIPTERM(R9, 128)
	GF16PLANARSTRIPTERM(R10, 256)
	GF16PLANARSTRIPTERM(R11, 384)
	GF16REINT(0, Y8, Y9, Y12, Y13)
	GF16REINT(64, Y10, Y11, Y12, Y13)
	ADDQ $128, DI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	ADDQ $128, R11
	DECQ CX
	JNZ  gf16addmul4_loop
	VZEROUPPER
	RET

// func gf16AddMulPlanarAVX2(dst, src *uint16, strips int, t *nib16)
// dst[i] ^= c*src[i] over strips*64 words — the single-source kernel in
// the fused kernels' byte-planar layout. With only one coefficient in
// play its eight tables are broadcast ONCE and stay resident in Y0-Y7
// for the whole call (the fused kernels must re-broadcast per strip),
// so a strip costs just the deinterleave, 2x20 planar-term ops and the
// reinterleave: ~36 ops per 32 words against ~54 on the interleaved
// GF16BLOCK path. Accumulator planes in Y8-Y11, transients Y12-Y15 —
// the same register budget as the fused kernels.
TEXT ·gf16AddMulPlanarAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ strips+16(FP), CX
	MOVQ t+24(FP), DX
	GF16TABS(0)

gf16planar_loop:
	GF16ZEROACC
	GF16DEINT(0, SI, Y14, Y15, Y12, Y13)
	GF16PLANARTERM(Y8, Y9)
	GF16DEINT(64, SI, Y14, Y15, Y12, Y13)
	GF16PLANARTERM(Y10, Y11)
	GF16REINT(0, Y8, Y9, Y12, Y13)
	GF16REINT(64, Y10, Y11, Y12, Y13)
	ADDQ $128, DI
	ADDQ $128, SI
	DECQ CX
	JNZ  gf16planar_loop
	VZEROUPPER
	RET

// Byte-pair swap pattern for VPSHUFB: output byte 2k takes input byte
// 2k+1 and vice versa, in each 16-byte lane.
DATA swap16Pattern<>+0x00(SB)/8, $0x0607040502030001
DATA swap16Pattern<>+0x08(SB)/8, $0x0e0f0c0d0a0b0809
DATA swap16Pattern<>+0x10(SB)/8, $0x0607040502030001
DATA swap16Pattern<>+0x18(SB)/8, $0x0e0f0c0d0a0b0809
GLOBL swap16Pattern<>(SB), RODATA|NOPTR, $32

// func symbols16AVX2(dst *uint16, src *uint8, blocks int)
// dst[i] = src[2i]<<8 | src[2i+1] over blocks*32 bytes: big-endian byte
// pairs into native little-endian words, one VPSHUFB per 16 symbols.
TEXT ·symbols16AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	VMOVDQU swap16Pattern<>(SB), Y1

symbols16Loop:
	VMOVDQU (SI), Y0
	VPSHUFB Y1, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     symbols16Loop
	VZEROUPPER
	RET

// func bytes16AVX2(dst *uint8, src *uint16, blocks int)
// The inverse conversion is the same byte-pair swap.
TEXT ·bytes16AVX2(SB), NOSPLIT, $0-24
	JMP ·symbols16AVX2(SB)

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
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
