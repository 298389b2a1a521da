package keystream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"
	"time"
)

// protoCfg is the small protocol-engine shape the differential suite
// runs: GF(2^16) rounds, small blocks so multi-block ranges stay cheap.
func protoCfg(seed int64) Config {
	return Config{
		Terminals:    3,
		XPerRound:    64,
		PayloadBytes: 16,
		Erasure:      0.45,
		Seed:         seed,
		Rotate:       true,
		BlockSize:    512,
		Timeout:      30 * time.Second,
	}
}

// readRef derives blocks [0, n) through the plain sequential oracle.
func readRef(t *testing.T, cfg Config, nblocks int) []byte {
	t.Helper()
	full := make([]byte, nblocks*cfg.BlockSize)
	for i := 0; i < nblocks; i++ {
		if err := ReferenceBlock(cfg, int64(i), full[i*cfg.BlockSize:(i+1)*cfg.BlockSize]); err != nil {
			t.Fatalf("reference block %d: %v", i, err)
		}
	}
	return full
}

// TestStreamMatchesReference: bytes produced by the pipelined engine —
// concurrent workers, overlapped exchange/elimination, soft report
// deadlines — are byte-identical to the plain sequential oracle.
func TestStreamMatchesReference(t *testing.T) {
	cfg := protoCfg(99)
	const nblocks = 6
	want := readRef(t, cfg, nblocks)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("pipelined stream bytes != sequential reference derivation")
	}
	st := s.Stats()
	if st.VerifyMismatch != 0 {
		t.Fatalf("verify mismatches with no fault injection: %+v", st)
	}
	if st.Blocks < nblocks {
		t.Fatalf("stats count %d blocks, want >= %d", st.Blocks, nblocks)
	}
}

// TestReferenceBlockKnownAnswer pins the stream bytes of the
// BENCH_stream session shape (3 terminals, 128 x-packets of 4 KiB per
// round, erasure 0.45, 128 KiB blocks, seed 4242): the SHA-256 of the
// first 256 bytes of block 0. A change to the x-payload generator,
// Delivered, BlockSeed or block framing, or a toolchain that moves any of
// them, fails here, and must bump DerivationVersion along with this
// value.
func TestReferenceBlockKnownAnswer(t *testing.T) {
	if DerivationVersion != 2 {
		t.Fatalf("DerivationVersion = %d: re-record this known answer for the new version", DerivationVersion)
	}
	cfg := Config{
		Terminals: 3, XPerRound: 128, PayloadBytes: 4096, Erasure: 0.45,
		Seed: 4242, Rotate: true, BlockSize: 128 << 10,
	}
	block := make([]byte, cfg.BlockSize)
	if err := ReferenceBlock(cfg, 0, block); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(block[:256])
	const want = "9a8d805d8ce5e2426880b4a34e9040aebfc9c768a8083a8abfbd22320afd4266"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("block 0 prefix SHA-256 = %s, want %s (derivation version %d)", got, want, DerivationVersion)
	}
}

// TestReadAtMatchesSequential: random-access reads at arbitrary
// (offset, length) — spanning block boundaries and short tails — return
// exactly the bytes a sequential read of the same range sees. Runs the
// protocol engine (GF(2^16)); TestReadAtMatchesSequentialGF8 covers the
// GF(2^8) source arm.
func TestReadAtMatchesSequential(t *testing.T) {
	cfg := protoCfg(7)
	const nblocks = 6
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	full := make([]byte, nblocks*cfg.BlockSize)
	if _, err := io.ReadFull(s, full); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 64; trial++ {
		off := rng.Int63n(int64(len(full) - 1))
		n := 1 + rng.Intn(len(full)-int(off))
		got := make([]byte, n)
		if _, err := s.ReadAt(got, off); err != nil {
			t.Fatalf("ReadAt(%d, %d): %v", off, n, err)
		}
		if !bytes.Equal(got, full[off:int(off)+n]) {
			t.Fatalf("ReadAt(%d, %d) != sequential bytes", off, n)
		}
	}

	// The deliberate edge shapes: exact block, boundary straddle, one-byte
	// tail, and a range ending exactly at a boundary.
	bsz := int64(cfg.BlockSize)
	for _, r := range []struct{ off, n int64 }{
		{0, bsz},
		{bsz - 1, 2},
		{bsz/2 + 1, bsz},
		{2*bsz - 1, 1},
		{bsz + 3, bsz - 3},
	} {
		got := make([]byte, r.n)
		if _, err := s.ReadAt(got, r.off); err != nil {
			t.Fatalf("ReadAt(%d, %d): %v", r.off, r.n, err)
		}
		if !bytes.Equal(got, full[r.off:r.off+r.n]) {
			t.Fatalf("ReadAt(%d, %d) != sequential bytes", r.off, r.n)
		}
	}
}

// TestReadAtMatchesSequentialGF8 is the property test on the GF(2^8)
// source arm: cheap enough to sweep many more random ranges over a much
// larger address space.
func TestReadAtMatchesSequentialGF8(t *testing.T) {
	cfg := Config{
		Terminals: 2, XPerRound: 4, PayloadBytes: 4,
		Seed:      21,
		BlockSize: 4096,
		Source:    XOFSource8(21),
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const total = 64 << 10
	full := make([]byte, total)
	if _, err := io.ReadFull(s, full); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		off := rng.Int63n(total - 1)
		n := 1 + rng.Intn(int(total-off))
		got := make([]byte, n)
		if _, err := s.ReadAt(got, off); err != nil {
			t.Fatalf("ReadAt(%d, %d): %v", off, n, err)
		}
		if !bytes.Equal(got, full[off:int(off)+n]) {
			t.Fatalf("ReadAt(%d, %d) != sequential bytes", off, n)
		}
	}
}

// TestRangeReader: the io.Reader view over [off, off+n) delivers exactly
// n bytes — including ranges that end mid-block — then io.EOF.
func TestRangeReader(t *testing.T) {
	cfg := protoCfg(42)
	const nblocks = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	full := make([]byte, nblocks*cfg.BlockSize)
	if _, err := s.ReadAt(full, 0); err != nil {
		t.Fatal(err)
	}
	bsz := int64(cfg.BlockSize)
	for _, r := range []struct{ off, n int64 }{
		{0, 2*bsz + 17},
		{bsz - 5, 11},
		{3 * bsz, 1},
	} {
		got, err := io.ReadAll(s.RangeReader(r.off, r.n))
		if err != nil {
			t.Fatalf("RangeReader(%d, %d): %v", r.off, r.n, err)
		}
		if int64(len(got)) != r.n {
			t.Fatalf("RangeReader(%d, %d): got %d bytes", r.off, r.n, len(got))
		}
		if !bytes.Equal(got, full[r.off:r.off+r.n]) {
			t.Fatalf("RangeReader(%d, %d) != sequential bytes", r.off, r.n)
		}
	}
}

// TestRotationChangesBlockBytes: with Rotate the leader differs per
// block, and the same (seed, index) under different rotation settings
// yields different blocks — a cheap guard that the leader schedule is
// actually wired into derivation.
func TestRotationChangesBlockBytes(t *testing.T) {
	with := protoCfg(5)
	without := protoCfg(5)
	without.Rotate = false
	a := make([]byte, with.BlockSize)
	b := make([]byte, without.BlockSize)
	// Block 1's leader is terminal 1 with rotation, 0 without.
	if err := ReferenceBlock(with, 1, a); err != nil {
		t.Fatal(err)
	}
	if err := ReferenceBlock(without, 1, b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("rotation did not change block 1's bytes")
	}
}
