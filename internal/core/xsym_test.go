package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gf"
	"repro/internal/packet"
)

// TestXSymbolsMatchesPerPacket checks the leader's arena conversion
// against converting each payload on its own, and that rows are capped
// views that cannot grow into their neighbours.
func TestXSymbolsMatchesPerPacket(t *testing.T) {
	batch := packet.NewBatch(rand.New(rand.NewSource(9)), 5, 34)
	rows := XSymbols(batch)
	if len(rows) != len(batch) {
		t.Fatalf("%d rows for %d packets", len(rows), len(batch))
	}
	for i, pkt := range batch {
		if !slices.Equal(rows[i], gf.Symbols16(pkt.Payload)) || cap(rows[i]) != 17 {
			t.Fatalf("row %d = %v (cap %d), want %v", i, rows[i], cap(rows[i]), gf.Symbols16(pkt.Payload))
		}
	}
	if XSymbols(nil) != nil {
		t.Fatal("empty batch gave rows")
	}
}

// TestXArenaPutReset checks a terminal's reception arena: rows match the
// per-packet conversion, a repeated seq replaces its row, odd payloads
// are dropped, an off-shape payload still gets its own row, and Reset
// empties the map and reuses the first slab for the next round.
func TestXArenaPutReset(t *testing.T) {
	batch := packet.NewBatch(rand.New(rand.NewSource(10)), 4, 8)
	a := NewXArena(4)
	for _, seq := range []int{2, 0, 3} {
		a.Put(uint32(seq), batch[seq].Payload)
	}
	a.Put(1, []byte{1, 2, 3})                                         // odd: not a symbol vector
	a.Put(2, batch[1].Payload)                                        // repeated seq replaces
	a.Put(7, []byte{0xab, 0xcd, 0x01, 0x02, 3, 4, 5, 6, 7, 8, 9, 10}) // off-shape
	want := map[packet.ID][]Sym{
		0: gf.Symbols16(batch[0].Payload),
		2: gf.Symbols16(batch[1].Payload),
		3: gf.Symbols16(batch[3].Payload),
		7: {0xabcd, 0x0102, 0x0304, 0x0506, 0x0708, 0x090a},
	}
	if len(a.Rows) != len(want) {
		t.Fatalf("arena holds seqs %v, want %v", a.Rows, want)
	}
	for id, w := range want {
		if !slices.Equal(a.Rows[id], w) {
			t.Fatalf("row %d = %v, want %v", id, a.Rows[id], w)
		}
	}

	first := &a.Rows[2][0]
	a.Reset()
	if len(a.Rows) != 0 {
		t.Fatalf("Reset left %d rows", len(a.Rows))
	}
	a.Put(2, batch[2].Payload)
	if &a.Rows[2][0] != first {
		t.Fatal("Reset did not reuse the first slab")
	}
	if !slices.Equal(a.Rows[2], gf.Symbols16(batch[2].Payload)) {
		t.Fatalf("row after Reset = %v", a.Rows[2])
	}
}
