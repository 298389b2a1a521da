package transport

import (
	"context"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/eve"
	"repro/internal/gf"
	"repro/internal/matrix"
	"repro/internal/wire"
)

// Observer is a wire-level eavesdropper: it consumes raw frames from its
// own bus endpoint — data frames subject to the same erasures as anyone
// else, control frames in full — and rebuilds, per round, the linear
// knowledge an adversary accumulates, without any access to the engine's
// internal state. It is the distributed twin of the synchronous engine's
// Eve accounting and the honest way to evaluate the runtime: everything
// the observer knows came off the wire.
type Observer struct {
	Session uint32

	rounds map[uint16]*observerRound
	// SecretDims / UnknownDims accumulate the certificate over completed
	// rounds.
	SecretDims  int
	UnknownDims int
}

type observerRound struct {
	numX int
	x    *core.XArena
	ya   *wire.YAnnounce
	zs   []*wire.ZPacket
	sa   *wire.SAnnounce
	done bool
}

// observerSlabRows sizes the observer's per-round payload arena slabs.
// Unlike a terminal, the observer learns a round's x-packet count only
// at the end-of-X beacon, after the payloads it sizes the arena for.
const observerSlabRows = 64

// NewObserver creates an observer for one session.
func NewObserver(session uint32) *Observer {
	return &Observer{Session: session, rounds: make(map[uint16]*observerRound)}
}

// Run consumes the endpoint until the context is cancelled, the idle
// timeout elapses with no traffic, or the bus closes. Call Finish to
// force evaluation of any still-open rounds.
func (o *Observer) Run(ctx context.Context, ep Endpoint, idle time.Duration) {
	if idle <= 0 {
		idle = 2 * time.Second
	}
	timer := time.NewTimer(idle)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			o.Finish()
			return
		case <-timer.C:
			o.Finish()
			return
		case env, ok := <-ep.Recv():
			if !ok {
				o.Finish()
				return
			}
			o.Ingest(env)
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(idle)
		}
	}
}

// Ingest processes one overheard frame. Authentication does not hide
// contents — a sealed frame is the plain frame plus a trailing tag — so
// the observer strips the tag when present, exactly as a real Eve would.
func (o *Observer) Ingest(env Env) {
	m, err := wire.Unmarshal(env.Frame)
	if err != nil && len(env.Frame) > auth.TagSize {
		m, err = wire.Unmarshal(env.Frame[:len(env.Frame)-auth.TagSize])
	}
	if err != nil {
		return // not a protocol frame
	}
	h := m.Hdr()
	if h.Session != o.Session {
		return
	}
	r := o.rounds[h.Round]
	if r == nil {
		r = &observerRound{x: core.NewXArena(observerSlabRows)}
		o.rounds[h.Round] = r
	}
	switch mm := m.(type) {
	case *wire.XPacket:
		if len(mm.Payload)%2 == 0 {
			r.x.Put(mm.Seq, mm.Payload)
			if int(mm.Seq) >= r.numX {
				r.numX = int(mm.Seq) + 1
			}
		}
	case *wire.Beacon:
		if mm.Kind == wire.BeaconEndOfX {
			r.numX = int(mm.Value)
		}
		if mm.Kind == wire.BeaconRoundAbort {
			r.done = true // nothing to evaluate: no secret
		}
	case *wire.YAnnounce:
		r.ya = mm
	case *wire.ZPacket:
		r.zs = append(r.zs, mm)
	case *wire.SAnnounce:
		r.sa = mm
		o.evaluate(r)
	}
}

// Finish evaluates any rounds that saw an s-announcement but were not yet
// scored (idempotent).
func (o *Observer) Finish() {
	for _, r := range o.rounds {
		if !r.done && r.sa != nil {
			o.evaluate(r)
		}
	}
}

// evaluate runs the rank certificate for one completed round.
func (o *Observer) evaluate(r *observerRound) {
	if r.done || r.ya == nil || r.sa == nil || r.numX == 0 {
		return
	}
	r.done = true
	f := core.Field()

	// Compose y over the x source space from the announcement.
	m := 0
	for _, cb := range r.ya.Classes {
		m += len(cb.Coeffs)
	}
	yox := matrix.New(f, m, r.numX)
	row := 0
	for _, cb := range r.ya.Classes {
		for _, coeffs := range cb.Coeffs {
			for c, id := range cb.XIDs {
				if int(id) < r.numX && c < len(coeffs) {
					yox.Set(row, int(id), coeffs[c])
				}
			}
			row++
		}
	}

	know := eve.NewKnowledge(f, r.numX)
	for seq, payload := range r.x.Rows {
		if int(seq) < r.numX {
			know.AddUnit(int(seq), payload)
		}
	}
	// One reusable composition row: each z/s coefficient vector is composed
	// over the x-space in a single fused multi-term kernel pass, and
	// AddCombo copies what it keeps.
	comp := make([]core.Sym, r.numX)
	yoxRows := yox.RowViews()
	for _, zp := range r.zs {
		if len(zp.Coeffs) != m || len(zp.Payload)%2 != 0 {
			continue
		}
		clear(comp)
		f.AddMulSlices(comp, yoxRows, zp.Coeffs)
		know.AddCombo(comp, gf.Symbols16(zp.Payload))
	}

	// Compose the secret rows straight into their matrix, skipping
	// malformed announcements.
	nsec := 0
	for _, sc := range r.sa.Coeffs {
		if len(sc) == m {
			nsec++
		}
	}
	if nsec == 0 {
		return
	}
	sm := matrix.New(f, nsec, r.numX)
	i := 0
	for _, sc := range r.sa.Coeffs {
		if len(sc) != m {
			continue
		}
		f.AddMulSlices(sm.Row(i), yoxRows, sc)
		i++
	}
	u := know.UnknownSecretDims(sm)
	o.SecretDims += nsec
	o.UnknownDims += u
}

// Reliability returns the paper's reliability metric over everything the
// observer overheard.
func (o *Observer) Reliability() float64 {
	return core.Reliability(o.SecretDims, o.UnknownDims)
}
