//go:build arm64 && !purego

package gf

// pickKernels is the arm64 dispatch point. The nib8/nib16 table layout is
// deliberately sized for NEON: one 16-entry table is one TBL source
// register, so an arm64 backend mirrors bulk_amd64.s instruction for
// instruction (TBL for VPSHUFB, USHR/AND for the nibble extraction), and
// the fused strip kernels translate the same way — NEON's 32 vector
// registers actually fit both GF(2^16) terms' tables resident, where AVX2
// has to rebroadcast per strip. No NEON assembly is wired yet — shipping
// vector kernels this repository's CI can only compile, never execute,
// would be an untested-correctness hazard — so dispatch selects the
// portable generic layer. A NEON backend plugs in here exactly like the
// avx2 one: return kernels{name: "neon", accel: true} and route the
// arch* shims below to the NEON routines (single-source blocks of
// kernelBlockBytes, fused strips of fusedStripBytes).
func pickKernels() kernels { return kernels{name: "generic"} }

// Arch shim stubs; unreachable while pickKernels selects generic.

func archAddMul8(dst, src *uint8, blocks int, t *nib8)    { panic("gf: no arch kernel") }
func archMul8(dst, src *uint8, blocks int, t *nib8)       { panic("gf: no arch kernel") }
func archAddMul16(dst, src *uint16, blocks int, t *nib16) { panic("gf: no arch kernel") }
func archMul16(dst, src *uint16, blocks int, t *nib16)    { panic("gf: no arch kernel") }

// No planar single-source kernel without NEON; the routing layer keeps
// the interleaved block path (unreachable while accel is false anyway).
const planar16 = false

func archAddMulPlanar16(dst, src *uint16, strips int, t *nib16) { panic("gf: no arch kernel") }

func archAddMul2x8(dst *uint8, srcs **uint8, strips int, ts *nib8) {
	panic("gf: no arch kernel")
}

func archAddMul4x8(dst *uint8, srcs **uint8, strips int, ts *nib8) {
	panic("gf: no arch kernel")
}

func archAddMul2x16(dst *uint16, srcs **uint16, strips int, ts *nib16) {
	panic("gf: no arch kernel")
}

func archAddMul4x16(dst *uint16, srcs **uint16, strips int, ts *nib16) {
	panic("gf: no arch kernel")
}

// No conversion kernel: Symbols16Into and Bytes16Into stay on their
// word-wise loops.
const symbols16Accel = false

func archSymbols16(dst *uint16, src *uint8, blocks int) { panic("gf: no arch kernel") }
func archBytes16(dst *uint8, src *uint16, blocks int)   { panic("gf: no arch kernel") }
