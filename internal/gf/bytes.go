package gf

import "encoding/binary"

// SymbolsPerByte conversions: packet payloads travel as bytes but all
// coding operates on field symbols. GF(2^8) symbols map one-to-one onto
// bytes; GF(2^16) symbols pack two big-endian bytes each (payloads with odd
// length are zero-padded by the caller before conversion).

// Symbols16 converts a byte payload into GF(2^16) symbols. The payload
// length must be even.
func Symbols16(b []byte) []uint16 {
	if len(b)%2 != 0 {
		panic("gf: Symbols16 requires an even-length payload")
	}
	out := make([]uint16, len(b)/2)
	Symbols16Into(out, b)
	return out
}

// Symbols16Into converts a byte payload into GF(2^16) symbols written to
// dst[:len(b)/2]. The payload length must be even and dst must hold
// len(b)/2 symbols; the rest of dst is untouched. Callers that convert a
// whole round of payloads use it to fill one contiguous arena instead of
// allocating a slice per packet. Whole 32-byte blocks go through the
// arch conversion kernel where one is wired (one byte shuffle per 16
// symbols on AVX2); the rest is converted word-wise, one 64-bit
// big-endian load per four symbols.
func Symbols16Into(dst []uint16, b []byte) {
	if len(b)%2 != 0 {
		panic("gf: Symbols16Into requires an even-length payload")
	}
	n := len(b) / 2
	if len(dst) < n {
		panic("gf: Symbols16Into destination too short")
	}
	dst = dst[:n]
	i := 0
	if blocks := n / (kernelBlockBytes / 2); symbols16Accel && blocks > 0 {
		archSymbols16(&dst[0], &b[0], blocks)
		i = blocks * (kernelBlockBytes / 2)
	}
	for ; i+4 <= n; i += 4 {
		v := binary.BigEndian.Uint64(b[2*i:])
		d := dst[i : i+4 : i+4]
		d[0] = uint16(v >> 48)
		d[1] = uint16(v >> 32)
		d[2] = uint16(v >> 16)
		d[3] = uint16(v)
	}
	for ; i < n; i++ {
		dst[i] = binary.BigEndian.Uint16(b[2*i:])
	}
}

// Bytes16 converts GF(2^16) symbols back into a byte payload.
func Bytes16(s []uint16) []byte {
	out := make([]byte, 2*len(s))
	Bytes16Into(out, s)
	return out
}

// Bytes16Into is the inverse of Symbols16Into: it writes s as big-endian
// byte pairs to dst[:2*len(s)], which must be long enough. The byte-pair
// swap is its own inverse, so whole blocks go through the same arch
// kernel.
func Bytes16Into(dst []byte, s []uint16) {
	if len(dst) < 2*len(s) {
		panic("gf: Bytes16Into destination too short")
	}
	i := 0
	if blocks := len(s) / (kernelBlockBytes / 2); symbols16Accel && blocks > 0 {
		archBytes16(&dst[0], &s[0], blocks)
		i = blocks * (kernelBlockBytes / 2)
	}
	for ; i+4 <= len(s); i += 4 {
		binary.BigEndian.PutUint64(dst[2*i:], uint64(s[i])<<48|uint64(s[i+1])<<32|uint64(s[i+2])<<16|uint64(s[i+3]))
	}
	for ; i < len(s); i++ {
		binary.BigEndian.PutUint16(dst[2*i:], s[i])
	}
}

// Symbols8 converts a byte payload into GF(2^8) symbols (a copy).
func Symbols8(b []byte) []uint8 {
	out := make([]uint8, len(b))
	copy(out, b)
	return out
}

// Bytes8 converts GF(2^8) symbols back into a byte payload (a copy).
func Bytes8(s []uint8) []byte {
	out := make([]byte, len(s))
	copy(out, s)
	return out
}
