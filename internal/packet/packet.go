// Package packet defines the data units of the protocol — x-packets and
// their reception bookkeeping — plus the compact ID-set bitmap used in
// acknowledgment reports.
package packet

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"
)

// ID identifies an x-packet within a round. IDs are dense: the leader
// transmits x-packets 0..N-1 each round.
type ID uint32

// Packet is one transmitted data unit: an identifier plus an opaque
// payload. Payload bytes are never interpreted by the protocol other than
// as GF(2^m) symbol vectors.
type Packet struct {
	ID      ID
	Payload []byte
}

// RandomPayload fills a fresh payload of n bytes from rng. The protocol's
// secrecy relies on x-payloads being uniform and independent; in a real
// deployment they come from a hardware RNG, in the simulator from the
// experiment's seeded source. The bytes come from the same keyed ChaCha8
// fill NewBatch uses.
func RandomPayload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	fill(rng, b)
	return b
}

// NewBatch creates packets 0..n-1 with independent random payloads of
// size bytes each. One ChaCha8 generator, keyed by four rng.Uint64 draws,
// fills a single n*size arena; the payloads are capped, disjoint
// sub-slices of it, so appending to one never overwrites the next. The
// batch is a deterministic function of rng's state, and rng advances by
// exactly four draws whatever n and size are.
func NewBatch(rng *rand.Rand, n, size int) []Packet {
	return NewBatchInto(make([]byte, n*size), rng, n, size)
}

// NewBatchInto is NewBatch generating into arena, which must hold at
// least n*size bytes: the same rng state gives the same payloads. A
// caller that makes a batch every round reuses one arena rather than
// allocating a fresh one per round; the payloads alias arena until it is
// reused.
func NewBatchInto(arena []byte, rng *rand.Rand, n, size int) []Packet {
	arena = arena[:n*size]
	fill(rng, arena)
	out := make([]Packet, n)
	for i := range out {
		out[i] = Packet{ID: ID(i), Payload: arena[i*size : (i+1)*size : (i+1)*size]}
	}
	return out
}

// fill overwrites b with the keystream of a ChaCha8 generator keyed by a
// 32-byte key drawn from rng. Generating the bytes in bulk costs a small
// fraction of one rng call per byte. The output is still a deterministic
// function of rng's state: keying ChaCha8 from rng adds speed, not
// entropy.
func fill(rng *rand.Rand, b []byte) {
	var key [32]byte
	for i := 0; i < len(key); i += 8 {
		binary.LittleEndian.PutUint64(key[i:], rng.Uint64())
	}
	randv2.NewChaCha8(key).Read(b)
}

// IDSet is a bitmap over packet IDs 0..n-1. The zero value is an empty set
// with capacity 0; use NewIDSet or grow via Add.
type IDSet struct {
	words []uint64
}

// NewIDSet returns an empty set sized for IDs < n.
func NewIDSet(n int) *IDSet {
	return &IDSet{words: make([]uint64, (n+63)/64)}
}

// FromSlice builds a set containing exactly the given IDs.
func FromSlice(ids []ID) *IDSet {
	s := &IDSet{}
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func (s *IDSet) grow(id ID) {
	w := int(id)/64 + 1
	for len(s.words) < w {
		s.words = append(s.words, 0)
	}
}

// Add inserts id.
func (s *IDSet) Add(id ID) {
	s.grow(id)
	s.words[id/64] |= 1 << (id % 64)
}

// Remove deletes id if present.
func (s *IDSet) Remove(id ID) {
	if int(id)/64 < len(s.words) {
		s.words[id/64] &^= 1 << (id % 64)
	}
}

// Has reports membership.
func (s *IDSet) Has(id ID) bool {
	w := int(id) / 64
	return w < len(s.words) && s.words[w]&(1<<(id%64)) != 0
}

// Count returns the number of elements.
func (s *IDSet) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a deep copy.
func (s *IDSet) Clone() *IDSet {
	return &IDSet{words: append([]uint64(nil), s.words...)}
}

// Union returns a new set with all elements of s and o.
func (s *IDSet) Union(o *IDSet) *IDSet {
	a, b := s.words, o.words
	if len(a) < len(b) {
		a, b = b, a
	}
	out := append([]uint64(nil), a...)
	for i := range b {
		out[i] |= b[i]
	}
	return &IDSet{words: out}
}

// Intersect returns a new set with the elements common to s and o.
func (s *IDSet) Intersect(o *IDSet) *IDSet {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = s.words[i] & o.words[i]
	}
	return &IDSet{words: out}
}

// Diff returns a new set with the elements of s not in o.
func (s *IDSet) Diff(o *IDSet) *IDSet {
	out := append([]uint64(nil), s.words...)
	for i := range out {
		if i < len(o.words) {
			out[i] &^= o.words[i]
		}
	}
	return &IDSet{words: out}
}

// Slice returns the members in increasing order.
func (s *IDSet) Slice() []ID {
	var out []ID
	for wi, w := range s.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, ID(wi*64+bit))
			w &= w - 1
		}
	}
	return out
}

// Words exposes the raw bitmap for wire encoding.
func (s *IDSet) Words() []uint64 { return s.words }

// SetFromWords rebuilds a set from its wire representation.
func SetFromWords(words []uint64) *IDSet {
	return &IDSet{words: append([]uint64(nil), words...)}
}

// String renders the set compactly for debugging.
func (s *IDSet) String() string {
	return fmt.Sprintf("IDSet%v", s.Slice())
}

// Equal reports whether s and o contain the same IDs.
func (s *IDSet) Equal(o *IDSet) bool {
	n := len(s.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(o.words) {
			b = o.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}
