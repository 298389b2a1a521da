package core

import (
	"repro/internal/gf"
	"repro/internal/packet"
)

// XSymbols converts a round's x-packets into GF(2^16) symbol rows carved
// from one contiguous arena: row i holds batch[i]'s payload. Every
// payload in a batch has the same length (packet.NewBatch), so the
// leader makes two allocations per round instead of one per packet.
func XSymbols(batch []packet.Packet) [][]Sym {
	if len(batch) == 0 {
		return nil
	}
	return XSymbolsInto(make([]Sym, len(batch)*len(batch[0].Payload)/2), batch)
}

// XSymbolsInto is XSymbols converting into arena, which must hold the
// whole batch's symbols; the rows alias arena until it is reused.
func XSymbolsInto(arena []Sym, batch []packet.Packet) [][]Sym {
	if len(batch) == 0 {
		return nil
	}
	width := len(batch[0].Payload) / 2
	arena = arena[:len(batch)*width]
	rows := make([][]Sym, len(batch))
	for i, pkt := range batch {
		rows[i] = arena[i*width : (i+1)*width : (i+1)*width]
		gf.Symbols16Into(rows[i], pkt.Payload)
	}
	return rows
}

// XArena collects one round's received x-payloads as GF(2^16) symbol
// rows indexed by seq. Rows are carved from slabs of slabRows rows each,
// so a terminal that sizes the slab to the round's x-packet count makes
// one allocation per round rather than one per packet, and none once it
// reuses the arena through Reset. Rows is the reception map
// ReceiveRoundInto takes; its rows stay valid until the next Reset.
type XArena struct {
	Rows     map[packet.ID][]Sym
	first    []Sym // the first slab, rewound by Reset
	slab     []Sym // unused tail of the current slab
	slabRows int
}

// NewXArena returns an empty arena whose slabs hold slabRows rows —
// normally the round's x-packet count (values below 1 mean 1).
func NewXArena(slabRows int) *XArena {
	return &XArena{Rows: make(map[packet.ID][]Sym), slabRows: max(slabRows, 1)}
}

// Put converts payload into row seq, replacing an earlier reception of
// the same seq. Odd-length payloads are not symbol vectors and are
// dropped.
func (a *XArena) Put(seq uint32, payload []byte) {
	if len(payload)%2 != 0 {
		return
	}
	w := len(payload) / 2
	row, ok := a.Rows[packet.ID(seq)]
	if !ok || len(row) != w {
		if len(a.slab) < w {
			a.slab = make([]Sym, w*a.slabRows)
			if a.first == nil {
				a.first = a.slab
			}
		}
		row, a.slab = a.slab[:w:w], a.slab[w:]
		a.Rows[packet.ID(seq)] = row
	}
	gf.Symbols16Into(row, payload)
}

// Reset empties the arena for another round, keeping its first slab:
// rows handed out before are overwritten by later Puts.
func (a *XArena) Reset() {
	clear(a.Rows)
	a.slab = a.first
}
