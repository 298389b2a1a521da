package gf

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTableSanity256(t *testing.T) {
	f := GF256()
	if f.Size() != 256 {
		t.Fatalf("size = %d, want 256", f.Size())
	}
	seen := make(map[uint8]bool)
	for i := 0; i < 255; i++ {
		v := f.exp[i]
		if v == 0 {
			t.Fatalf("exp[%d] = 0", i)
		}
		if seen[v] {
			t.Fatalf("exp[%d] = %d repeats", i, v)
		}
		seen[v] = true
	}
	if len(seen) != 255 {
		t.Fatalf("exp covers %d nonzero elements, want 255", len(seen))
	}
}

func TestTableSanity65536(t *testing.T) {
	f := GF65536()
	if f.Size() != 65536 {
		t.Fatalf("size = %d, want 65536", f.Size())
	}
	// log/exp must be mutually inverse on all nonzero elements.
	for _, x := range []uint16{1, 2, 3, 255, 256, 1027, 65535} {
		if got := f.exp[f.log[x]]; got != x {
			t.Fatalf("exp[log[%d]] = %d", x, got)
		}
	}
}

// fieldAxioms checks the ring/field laws on concrete triples.
func fieldAxioms[E Elem](t *testing.T, f *Field[E], a, b, c E) {
	t.Helper()
	if f.Add(a, b) != f.Add(b, a) {
		t.Fatalf("%s: add not commutative for %d,%d", f.Name(), a, b)
	}
	if f.Mul(a, b) != f.Mul(b, a) {
		t.Fatalf("%s: mul not commutative for %d,%d", f.Name(), a, b)
	}
	if f.Mul(a, f.Mul(b, c)) != f.Mul(f.Mul(a, b), c) {
		t.Fatalf("%s: mul not associative for %d,%d,%d", f.Name(), a, b, c)
	}
	left := f.Mul(a, f.Add(b, c))
	right := f.Add(f.Mul(a, b), f.Mul(a, c))
	if left != right {
		t.Fatalf("%s: distributivity fails for %d,%d,%d: %d != %d", f.Name(), a, b, c, left, right)
	}
	if f.Mul(a, 1) != a {
		t.Fatalf("%s: 1 is not multiplicative identity for %d", f.Name(), a)
	}
	if f.Add(a, 0) != a {
		t.Fatalf("%s: 0 is not additive identity for %d", f.Name(), a)
	}
	if f.Add(a, a) != 0 {
		t.Fatalf("%s: characteristic is not 2 for %d", f.Name(), a)
	}
	if a != 0 {
		if f.Mul(a, f.Inv(a)) != 1 {
			t.Fatalf("%s: a*Inv(a) != 1 for %d", f.Name(), a)
		}
		if f.Div(f.Mul(a, b), a) != b {
			t.Fatalf("%s: (a*b)/a != b for %d,%d", f.Name(), a, b)
		}
	}
}

func TestAxioms256(t *testing.T) {
	f := GF256()
	err := quick.Check(func(a, b, c uint8) bool {
		fieldAxioms(t, f, a, b, c)
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAxioms65536(t *testing.T) {
	f := GF65536()
	err := quick.Check(func(a, b, c uint16) bool {
		fieldAxioms(t, f, a, b, c)
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMulExhaustiveAgainstSlowRef256(t *testing.T) {
	f := GF256()
	// Carry-less multiply + reduction, independent of the tables.
	slow := func(a, b uint16) uint8 {
		var acc uint32
		x := uint32(a)
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				acc ^= x << i
			}
		}
		for i := 15; i >= 8; i-- {
			if acc&(1<<i) != 0 {
				acc ^= uint32(Poly8) << (i - 8)
			}
		}
		return uint8(acc)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := f.Mul(uint8(a), uint8(b)), slow(uint16(a), uint16(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestPow(t *testing.T) {
	for _, tc := range []struct {
		a    uint8
		k    int
		want uint8
	}{
		{0, 0, 1}, {0, 5, 0}, {1, 100, 1}, {2, 1, 2}, {2, 8, 0x1d},
	} {
		if got := GF256().Pow(tc.a, tc.k); got != tc.want {
			t.Errorf("Pow(%d,%d) = %d, want %d", tc.a, tc.k, got, tc.want)
		}
	}
	// a^(size-1) == 1 for all nonzero a (Lagrange).
	f := GF65536()
	for _, a := range []uint16{1, 2, 3, 9999, 65535} {
		if got := f.Pow(a, f.Size()-1); got != 1 {
			t.Errorf("%d^(q-1) = %d, want 1", a, got)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	GF256().Inv(0)
}

func TestDivZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(x,0) did not panic")
		}
	}()
	GF65536().Div(3, 0)
}

func TestAddMulSliceMatchesScalar(t *testing.T) {
	f := GF65536()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(64) + 1
		dst := make([]uint16, n)
		src := make([]uint16, n)
		for i := range dst {
			dst[i] = uint16(rng.Intn(65536))
			src[i] = uint16(rng.Intn(65536))
		}
		c := uint16(rng.Intn(65536))
		want := make([]uint16, n)
		for i := range want {
			want[i] = dst[i] ^ f.Mul(c, src[i])
		}
		f.AddMulSlice(dst, src, c)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("trial %d: AddMulSlice[%d] = %d, want %d (c=%d)", trial, i, dst[i], want[i], c)
			}
		}
	}
}

func TestAddMulSliceSpecialCases(t *testing.T) {
	f := GF256()
	dst := []uint8{1, 2, 3}
	f.AddMulSlice(dst, []uint8{9, 9, 9}, 0)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("c=0 modified dst: %v", dst)
	}
	f.AddMulSlice(dst, []uint8{1, 1, 1}, 1)
	if dst[0] != 0 || dst[1] != 3 || dst[2] != 2 {
		t.Fatalf("c=1 gave %v, want XOR", dst)
	}
}

func TestAddMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	GF256().AddMulSlice(make([]uint8, 3), make([]uint8, 4), 1)
}

func TestMulSlice(t *testing.T) {
	f := GF256()
	dst := []uint8{0, 1, 7, 255}
	orig := append([]uint8(nil), dst...)
	f.MulSlice(dst, 1)
	for i := range dst {
		if dst[i] != orig[i] {
			t.Fatalf("MulSlice by 1 changed dst")
		}
	}
	f.MulSlice(dst, 0)
	for _, v := range dst {
		if v != 0 {
			t.Fatalf("MulSlice by 0 gave %v", dst)
		}
	}
	dst = []uint8{3, 5}
	f.MulSlice(dst, 4)
	if dst[0] != f.Mul(3, 4) || dst[1] != f.Mul(5, 4) {
		t.Fatalf("MulSlice by 4 gave %v", dst)
	}
}

func TestDot(t *testing.T) {
	f := GF256()
	a := []uint8{1, 2, 0, 5}
	b := []uint8{7, 1, 9, 0}
	want := f.Mul(1, 7) ^ f.Mul(2, 1) ^ f.Mul(0, 9) ^ f.Mul(5, 0)
	if got := f.Dot(a, b); got != want {
		t.Fatalf("Dot = %d, want %d", got, want)
	}
}

func TestSymbolRoundTrip(t *testing.T) {
	b := []byte{0x12, 0x34, 0xab, 0xcd, 0x00, 0xff}
	s16 := Symbols16(b)
	if s16[0] != 0x1234 || s16[1] != 0xabcd || s16[2] != 0x00ff {
		t.Fatalf("Symbols16 = %v", s16)
	}
	if got := Bytes16(s16); string(got) != string(b) {
		t.Fatalf("Bytes16 round trip = %x, want %x", got, b)
	}
	s8 := Symbols8(b)
	if got := Bytes8(s8); string(got) != string(b) {
		t.Fatalf("Bytes8 round trip = %x, want %x", got, b)
	}
	// The conversions must copy, not alias.
	s8[0] = 0xEE
	if b[0] == 0xEE {
		t.Fatal("Symbols8 aliases its input")
	}
}

func TestSymbols16OddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd payload did not panic")
		}
	}()
	Symbols16([]byte{1, 2, 3})
}

// symbols16Ref is the per-symbol reference Symbols16Into must match.
func symbols16Ref(b []byte) []uint16 {
	out := make([]uint16, len(b)/2)
	for i := range out {
		out[i] = binary.BigEndian.Uint16(b[2*i:])
	}
	return out
}

// TestSymbols16IntoMatchesReference checks the word-wise conversion
// against a per-symbol loop for every symbol count 0..67 — every split
// into 16-symbol kernel blocks, four-symbol words and single-symbol tail
// — at unaligned source and destination offsets, and checks dst past the
// payload is untouched. Bytes16Into must invert it at the same offsets.
func TestSymbols16IntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const guard = 0xdead
	for n := 0; n <= 67; n++ {
		for so := 0; so < 8; so++ {
			for do := 0; do < 4; do++ {
				src := make([]byte, so+2*n)
				rng.Read(src)
				b := src[so:]
				dstBase := make([]uint16, do+n+3)
				for i := range dstBase {
					dstBase[i] = guard
				}
				Symbols16Into(dstBase[do:], b)
				want := symbols16Ref(b)
				for i := range dstBase {
					w := uint16(guard)
					if i >= do && i < do+n {
						w = want[i-do]
					}
					if dstBase[i] != w {
						t.Fatalf("n=%d so=%d do=%d: dst[%d] = %#04x, want %#04x", n, so, do, i, dstBase[i], w)
					}
				}
				if got := Symbols16(b); !slices.Equal(got, want) {
					t.Fatalf("n=%d so=%d: Symbols16 = %v, want %v", n, so, got, want)
				}
				back := make([]byte, so+2*n+1)
				back[len(back)-1] = 0x5a
				Bytes16Into(back[so:], dstBase[do:do+n])
				if !bytes.Equal(back[so:so+2*n], b) || back[len(back)-1] != 0x5a {
					t.Fatalf("n=%d so=%d do=%d: Bytes16Into = %x, want %x", n, so, do, back[so:], b)
				}
			}
		}
	}
}

func TestSymbols16IntoPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"odd payload": func() { Symbols16Into(make([]uint16, 2), []byte{1, 2, 3}) },
		"short dst":   func() { Symbols16Into(make([]uint16, 1), []byte{1, 2, 3, 4}) },
		"short bytes": func() { Bytes16Into(make([]byte, 3), []uint16{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

func BenchmarkAddMulSliceGF256(b *testing.B) {
	f := GF256()
	dst := make([]uint8, 1024)
	src := make([]uint8, 1024)
	for i := range src {
		src[i] = uint8(i*37 + 11)
	}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AddMulSlice(dst, src, uint8(i)|1)
	}
}

func BenchmarkAddMulSliceGF65536(b *testing.B) {
	f := GF65536()
	dst := make([]uint16, 512)
	src := make([]uint16, 512)
	for i := range src {
		src[i] = uint16(i*4099 + 17)
	}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AddMulSlice(dst, src, uint16(i)|1)
	}
}

func TestMulSampledAgainstSlowRef65536(t *testing.T) {
	// Carry-less multiply + reduction with Poly16, independent of tables.
	slow := func(a, b uint32) uint16 {
		var acc uint64
		x := uint64(a)
		for i := 0; i < 16; i++ {
			if b&(1<<i) != 0 {
				acc ^= x << i
			}
		}
		for i := 31; i >= 16; i-- {
			if acc&(1<<i) != 0 {
				acc ^= uint64(Poly16) << (i - 16)
			}
		}
		return uint16(acc)
	}
	f := GF65536()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20000; trial++ {
		a := uint16(rng.Intn(65536))
		b := uint16(rng.Intn(65536))
		if got, want := f.Mul(a, b), slow(uint32(a), uint32(b)); got != want {
			t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestInvExhaustive256(t *testing.T) {
	f := GF256()
	for a := 1; a < 256; a++ {
		if f.Mul(uint8(a), f.Inv(uint8(a))) != 1 {
			t.Fatalf("Inv(%d) wrong", a)
		}
	}
}
