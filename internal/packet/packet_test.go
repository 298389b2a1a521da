package packet

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRandomPayloadAndBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := RandomPayload(rng, 100)
	if len(p) != 100 {
		t.Fatalf("payload len %d", len(p))
	}
	batch := NewBatch(rng, 5, 16)
	if len(batch) != 5 {
		t.Fatalf("batch len %d", len(batch))
	}
	for i, pkt := range batch {
		if pkt.ID != ID(i) {
			t.Fatalf("batch[%d].ID = %d", i, pkt.ID)
		}
		if len(pkt.Payload) != 16 {
			t.Fatalf("batch[%d] payload len %d", i, len(pkt.Payload))
		}
	}
	// Payloads should differ (overwhelmingly likely).
	if string(batch[0].Payload) == string(batch[1].Payload) {
		t.Fatal("two random payloads identical")
	}
}

// TestNewBatchKnownAnswer pins the x-payload generator's bytes. Every
// stream byte depends on them, so a change here — a different generator,
// key schedule or arena layout, or a toolchain whose ChaCha8 output
// moved — must come with a keystream.DerivationVersion bump.
func TestNewBatchKnownAnswer(t *testing.T) {
	h := sha256.New()
	for _, pkt := range NewBatch(rand.New(rand.NewSource(1)), 4, 64) {
		h.Write(pkt.Payload)
	}
	const want = "6a2064c1c03026dbcb57098949102b37dd3875766d9c562951a4de7fe1b6b547"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("NewBatch(seed 1, 4, 64) SHA-256 = %s, want %s", got, want)
	}
}

// TestNewBatchPayloadsDisjoint checks the payloads are capped, disjoint
// sub-slices of the batch arena: growing one reallocates it instead of
// writing into the next packet's bytes, and the rng advances by the same
// four draws whatever the batch shape.
func TestNewBatchPayloadsDisjoint(t *testing.T) {
	batch := NewBatch(rand.New(rand.NewSource(2)), 3, 8)
	next := string(batch[1].Payload)
	for i, pkt := range batch {
		if cap(pkt.Payload) != 8 {
			t.Fatalf("payload %d has cap %d, want 8", i, cap(pkt.Payload))
		}
	}
	grown := append(batch[0].Payload, 0xAA, 0xBB)
	if string(batch[1].Payload) != next {
		t.Fatal("appending to payload 0 overwrote payload 1")
	}
	if &grown[0] == &batch[0].Payload[0] {
		t.Fatal("append to a capped payload did not reallocate")
	}

	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	NewBatch(a, 1, 2)
	NewBatch(b, 16, 4096)
	if a.Uint64() != b.Uint64() {
		t.Fatal("NewBatch consumed a shape-dependent number of rng draws")
	}
}

func TestIDSetBasics(t *testing.T) {
	s := NewIDSet(100)
	if s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(99)
	if !s.Has(0) || !s.Has(63) || !s.Has(64) || !s.Has(99) {
		t.Fatal("Has missing added element")
	}
	if s.Has(1) || s.Has(100) || s.Has(1000) {
		t.Fatal("Has reports absent element")
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d", s.Count())
	}
	s.Remove(63)
	if s.Has(63) || s.Count() != 3 {
		t.Fatal("Remove failed")
	}
	s.Remove(2000) // out of range: no-op
	got := s.Slice()
	want := []ID{0, 64, 99}
	if len(got) != len(want) {
		t.Fatalf("Slice = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestIDSetGrowth(t *testing.T) {
	s := &IDSet{} // zero value
	s.Add(500)
	if !s.Has(500) || s.Count() != 1 {
		t.Fatal("zero-value set cannot grow")
	}
}

func TestIDSetOpsAgainstMapReference(t *testing.T) {
	// Property test: Union/Intersect/Diff agree with a map-based model.
	type input struct {
		A, B []uint16
	}
	check := func(in input) bool {
		am := map[ID]bool{}
		bm := map[ID]bool{}
		var as, bs []ID
		for _, v := range in.A {
			id := ID(v % 300)
			am[id] = true
			as = append(as, id)
		}
		for _, v := range in.B {
			id := ID(v % 300)
			bm[id] = true
			bs = append(bs, id)
		}
		a, b := FromSlice(as), FromSlice(bs)
		u, x, d := a.Union(b), a.Intersect(b), a.Diff(b)
		for id := ID(0); id < 310; id++ {
			if u.Has(id) != (am[id] || bm[id]) {
				return false
			}
			if x.Has(id) != (am[id] && bm[id]) {
				return false
			}
			if d.Has(id) != (am[id] && !bm[id]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIDSetUnionAsymmetricLengths(t *testing.T) {
	a := FromSlice([]ID{1})
	b := FromSlice([]ID{500})
	if got := a.Union(b).Count(); got != 2 {
		t.Fatalf("union count %d", got)
	}
	if got := b.Union(a).Count(); got != 2 {
		t.Fatalf("union count %d (swapped)", got)
	}
	if got := a.Intersect(b).Count(); got != 0 {
		t.Fatalf("intersect count %d", got)
	}
	if got := b.Diff(a).Count(); got != 1 {
		t.Fatalf("diff count %d", got)
	}
}

func TestIDSetCloneIndependence(t *testing.T) {
	a := FromSlice([]ID{1, 2})
	c := a.Clone()
	c.Add(3)
	if a.Has(3) {
		t.Fatal("Clone shares storage")
	}
}

func TestIDSetEqual(t *testing.T) {
	a := FromSlice([]ID{1, 70})
	b := FromSlice([]ID{1, 70})
	if !a.Equal(b) {
		t.Fatal("equal sets reported unequal")
	}
	// Different backing lengths but same content.
	c := NewIDSet(1000)
	c.Add(1)
	c.Add(70)
	if !a.Equal(c) || !c.Equal(a) {
		t.Fatal("content-equal sets with different capacities reported unequal")
	}
	b.Add(2)
	if a.Equal(b) {
		t.Fatal("different sets reported equal")
	}
}

func TestWordsRoundTrip(t *testing.T) {
	a := FromSlice([]ID{3, 64, 129})
	b := SetFromWords(a.Words())
	if !a.Equal(b) {
		t.Fatal("Words/SetFromWords round trip failed")
	}
	// SetFromWords must copy.
	b.Add(4)
	if a.Has(4) {
		t.Fatal("SetFromWords aliases input")
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}
