package core

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/mds"
	"repro/internal/packet"
	"repro/internal/wire"
)

// LeaderRound is the leader's complete view of one round's coding.
type LeaderRound struct {
	Plan   *Plan
	Y      [][]Sym // M y-packet payloads
	Z      [][]Sym // M-L z-packet payloads (reliably broadcast)
	Secret [][]Sym // L s-packet payloads (the round's group secret)
}

// ComputeLeaderRound executes Phase 1 steps 3-4 and Phase 2 on the leader,
// given the plan and the x-packet payload symbols. The plan must have
// L > 0.
func ComputeLeaderRound(plan *Plan, xSym [][]Sym) *LeaderRound {
	if plan.L <= 0 {
		panic("core: ComputeLeaderRound on a round with no secret")
	}
	if len(xSym) != plan.NumX {
		panic("core: x payload count mismatch")
	}
	lr := &LeaderRound{Plan: plan, Y: ComputeY(plan, xSym)}
	lr.Z = plan.Redist.EncodeZ(lr.Y)
	lr.Secret = plan.Redist.EncodeS(lr.Y)
	return lr
}

// ComputeY evaluates the plan's y-packet payloads from the x-packet
// payload symbols (Phase 1 step 3 without the Phase 2 coding). Exposed for
// the unicast baseline, which shares Phase 1 with the group protocol.
func ComputeY(plan *Plan, xSym [][]Sym) [][]Sym {
	if len(xSym) != plan.NumX {
		panic("core: x payload count mismatch")
	}
	var y [][]Sym
	for k, cl := range plan.Classes {
		y = append(y, plan.Extractors[k].Extract(xSymbolsForClass(cl, xSym))...)
	}
	return y
}

// BuildYAnnounce renders the plan's y-packet constructions as the wire
// message the leader reliably broadcasts (step 3 of Phase 1: identities
// and coefficients, never contents).
func BuildYAnnounce(h wire.Header, plan *Plan) *wire.YAnnounce {
	h.Type = wire.TypeYAnnounce
	msg := &wire.YAnnounce{Header: h}
	for k, cl := range plan.Classes {
		ids := make([]uint32, len(cl.IDs))
		for i, id := range cl.IDs {
			ids[i] = uint32(id)
		}
		msg.Classes = append(msg.Classes, wire.ClassBatch{
			XIDs:   ids,
			Coeffs: mds.MatrixToRows(plan.Extractors[k].Coeffs()),
		})
	}
	return msg
}

// BuildZPackets renders the z-packets (coefficients and contents) for
// reliable broadcast (step 1 of Phase 2).
func BuildZPackets(h wire.Header, plan *Plan, z [][]Sym) []*wire.ZPacket {
	h.Type = wire.TypeZ
	zc := plan.Redist.ZCoeffs()
	out := make([]*wire.ZPacket, len(z))
	for j := range z {
		out[j] = &wire.ZPacket{
			Header:  h,
			Index:   uint16(j),
			Coeffs:  append([]Sym(nil), zc.Row(j)...),
			Payload: gf.Bytes16(z[j]),
		}
	}
	return out
}

// BuildSAnnounce renders the s-packet coefficient announcement (step 3 of
// Phase 2: identities only, never contents).
func BuildSAnnounce(h wire.Header, plan *Plan) *wire.SAnnounce {
	h.Type = wire.TypeSAnnounce
	return &wire.SAnnounce{Header: h, Coeffs: mds.MatrixToRows(plan.Redist.SCoeffs())}
}

// RoundScratch holds the reusable buffers one node needs to run the
// terminal side of a round without per-round allocation churn: the
// gathered class sources and combination rows ([][]Sym headers), the
// known-y index, the z-packet ordering buffers, and a payload arena the
// reconstructed y-packets and s-packets are written into. The zero value
// is ready to use; buffers grow on first use and are reused afterwards,
// so a long-lived session node reaches a zero-allocation steady state
// (pinned by TestRoundCombinationSteadyStateAllocs).
//
// Rows returned by ComputeTerminalSecretInto alias the scratch arena and
// stay valid until the next call with the same scratch; callers that
// retain a round's secret (every current caller copies it into the
// session key pool or result buffer) are unaffected.
type RoundScratch struct {
	srcs   [][]Sym
	known  map[int][]Sym
	zs     []*wire.ZPacket
	zc     [][]Sym
	zp     [][]Sym
	full   [][]Sym
	secret [][]Sym
	bufs   [][]Sym
	nbuf   int
}

// payload returns a zeroed width-length row from the arena.
func (sc *RoundScratch) payload(width int) []Sym {
	if sc.nbuf < len(sc.bufs) && cap(sc.bufs[sc.nbuf]) >= width {
		b := sc.bufs[sc.nbuf][:width]
		clear(b)
		sc.bufs[sc.nbuf] = b
		sc.nbuf++
		return b
	}
	b := make([]Sym, width)
	if sc.nbuf < len(sc.bufs) {
		sc.bufs[sc.nbuf] = b
	} else {
		sc.bufs = append(sc.bufs, b)
	}
	sc.nbuf++
	return b
}

// reset prepares the scratch for a new round.
func (sc *RoundScratch) reset() {
	sc.nbuf = 0
	if sc.known == nil {
		sc.known = make(map[int][]Sym)
	} else {
		clear(sc.known)
	}
}

// ComputeTerminalSecret executes the terminal side of a round purely from
// the wire messages and the terminal's received x-packet payloads. It
// allocates fresh result rows; session loops that run many rounds should
// hold a RoundScratch and call ComputeTerminalSecretInto instead.
func ComputeTerminalSecret(
	recv map[packet.ID][]Sym,
	ya *wire.YAnnounce,
	zs []*wire.ZPacket,
	sa *wire.SAnnounce,
) ([][]Sym, error) {
	return ComputeTerminalSecretInto(nil, recv, ya, zs, sa)
}

// ComputeTerminalSecretInto executes the terminal side of a round:
// reconstruct the y-packets of every class fully covered by the reception
// set — each as one fused multi-term kernel combination over the class's
// x-payloads — complete the rest from the z-packets, then form the
// s-packets, again one fused combination per row over the full y-set.
// It returns the round's group secret.
//
// The computation is two halves, exposed separately so a pipelined
// consumer (internal/keystream) can overlap them across rounds: the
// receive half (ReceiveRoundInto) runs as soon as the y-announcement
// arrives, while the round's z-packets are still in flight; the eliminate
// half (PartialRound.Eliminate) runs once the z-packets and the
// s-announcement are in. This composition is pinned byte-identical to the
// halves by TestSplitHalvesMatchCombined.
//
// sc may be nil (a throwaway scratch is used and the results are fresh);
// otherwise the returned rows alias sc's arena as documented on
// RoundScratch.
func ComputeTerminalSecretInto(
	sc *RoundScratch,
	recv map[packet.ID][]Sym,
	ya *wire.YAnnounce,
	zs []*wire.ZPacket,
	sa *wire.SAnnounce,
) ([][]Sym, error) {
	pr, err := ReceiveRoundInto(sc, recv, ya)
	if err != nil {
		return nil, err
	}
	return pr.Eliminate(zs, sa)
}

// PartialRound is the output of the receive half of a terminal round: the
// directly reconstructed y-packets, waiting for the erasure completion and
// privacy amplification of the eliminate half. It aliases the scratch it
// was built into; a scratch holds at most one live PartialRound (the next
// ReceiveRoundInto on the same scratch invalidates it).
type PartialRound struct {
	sc *RoundScratch
	// M is the round's y-space dimension (the number of announced
	// y-packet constructions).
	M int
}

// Known reports how many y-packets the receive half reconstructed
// directly. Known == M means the eliminate half will skip the erasure
// completion entirely (full reception fast path).
func (pr PartialRound) Known() int { return len(pr.sc.known) }

// ReceiveRoundInto is the receive half of a terminal round: reconstruct
// every y-packet whose class is fully covered by the reception set, one
// fused multi-term kernel combination per announced coefficient row. It
// needs only the x-payloads and the y-announcement — not the z-packets or
// the s-announcement — so a pipelined node runs it while the rest of the
// round's reliable broadcasts are still arriving.
//
// sc may be nil (a throwaway scratch is allocated). The scratch is reset:
// any previous PartialRound built into it is invalidated.
func ReceiveRoundInto(
	sc *RoundScratch,
	recv map[packet.ID][]Sym,
	ya *wire.YAnnounce,
) (PartialRound, error) {
	if sc == nil {
		sc = &RoundScratch{}
	}
	sc.reset()
	f := Field()
	// Reconstruct what we can of the y-packets.
	known := sc.known
	global := 0
	for _, batch := range ya.Classes {
		have := true
		for _, id := range batch.XIDs {
			if _, ok := recv[packet.ID(id)]; !ok {
				have = false
				break
			}
		}
		srcs := sc.srcs[:0]
		width := 0
		if have {
			// Gathered once per class; every coefficient row of the class
			// combines the same received x-payloads.
			for _, id := range batch.XIDs {
				srcs = append(srcs, recv[packet.ID(id)])
			}
			if len(srcs) > 0 {
				width = len(srcs[0])
			}
			sc.srcs = srcs
		}
		for r, row := range batch.Coeffs {
			if len(row) != len(batch.XIDs) {
				return PartialRound{}, fmt.Errorf("core: class coefficient row %d has %d entries for %d x-packets", r, len(row), len(batch.XIDs))
			}
			if have {
				// All x-payloads in a round share one symbol width, so the
				// combination is one fused kernel call over a reused
				// accumulator.
				y := sc.payload(width)
				f.AddMulSlices(y, srcs, row)
				known[global] = y
			}
			global++
		}
	}
	return PartialRound{sc: sc, M: global}, nil
}

// Eliminate is the eliminate half of a terminal round: order the
// z-packets, complete the y-packets the receive half could not reconstruct
// directly (the erasure elimination), then apply the announced privacy
// amplification to form the round's group secret. The returned rows alias
// the scratch arena the receive half was built into.
func (pr PartialRound) Eliminate(zs []*wire.ZPacket, sa *wire.SAnnounce) ([][]Sym, error) {
	sc, m := pr.sc, pr.M
	f := Field()
	known := sc.known

	// Order the z-packets by index and check coherence.
	zsorted := append(sc.zs[:0], zs...)
	sc.zs = zsorted
	sortZPackets(zsorted)
	coeffs := sc.zc[:0]
	payloads := sc.zp[:0]
	for j, zp := range zsorted {
		if int(zp.Index) != j {
			return nil, fmt.Errorf("core: z-packet indices not contiguous (saw %d at position %d)", zp.Index, j)
		}
		if len(zp.Coeffs) != m {
			return nil, fmt.Errorf("core: z-packet %d has %d coefficients, want %d", j, len(zp.Coeffs), m)
		}
		if len(zp.Payload)%2 != 0 {
			return nil, fmt.Errorf("core: z-packet %d has odd payload length", j)
		}
		coeffs = append(coeffs, zp.Coeffs)
		zrow := sc.payload(len(zp.Payload) / 2)
		gf.Symbols16Into(zrow, zp.Payload)
		payloads = append(payloads, zrow)
	}
	sc.zc, sc.zp = coeffs, payloads

	var full [][]Sym
	if len(known) == m {
		// Full reception: every y-packet was reconstructed directly, so the
		// erasure completion (and its copies) is skipped entirely and the
		// scratch rows are used as-is.
		full = sc.full[:0]
		for i := 0; i < m; i++ {
			full = append(full, known[i])
		}
		sc.full = full
	} else {
		var err error
		full, err = mds.CompleteFromEquations(f, m, known, coeffs, payloads)
		if err != nil {
			return nil, fmt.Errorf("core: completing y-packets: %w", err)
		}
	}

	// Privacy amplification: s = announced coefficients times y.
	secret := sc.secret[:0]
	for i, row := range sa.Coeffs {
		if len(row) != m {
			return nil, fmt.Errorf("core: s-coefficient row %d has %d entries, want %d", i, len(row), m)
		}
		width := 0
		if m > 0 {
			width = len(full[0])
		}
		s := sc.payload(width)
		f.AddMulSlices(s, full, row)
		secret = append(secret, s)
	}
	sc.secret = secret
	return secret, nil
}

// sortZPackets orders z-packets by index. Insertion sort: z counts are
// small (M-L per round) and sort.Slice's reflection swapper allocates,
// which would break the round loop's zero-allocation steady state.
func sortZPackets(zs []*wire.ZPacket) {
	for i := 1; i < len(zs); i++ {
		for j := i; j > 0 && zs[j-1].Index > zs[j].Index; j-- {
			zs[j-1], zs[j] = zs[j], zs[j-1]
		}
	}
}

// SecretBytes flattens s-packet payload rows into the session secret byte
// string.
func SecretBytes(secret [][]Sym) []byte {
	n := 0
	for _, row := range secret {
		n += 2 * len(row)
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	off := 0
	for _, row := range secret {
		gf.Bytes16Into(out[off:], row)
		off += 2 * len(row)
	}
	return out
}

// PairwiseSecret returns terminal i's Phase-1 pair-wise secret with the
// round's leader: the concatenation of the y-packets the terminal can
// reconstruct ("their shared pair-wise secret is the concatenation of
// these packets"). The group protocol consumes these via Phase 2; the
// function exposes them directly for pair-oriented applications and the
// unicast baseline.
func PairwiseSecret(plan *Plan, y [][]Sym, terminal int) []byte {
	var out []byte
	for _, idx := range plan.TerminalYIndices(terminal) {
		out = append(out, gf.Bytes16(y[idx])...)
	}
	return out
}
