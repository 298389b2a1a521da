package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/keypool"
	"repro/internal/keystream"
	"repro/internal/packet"
	"repro/internal/service"
	"repro/internal/wire"
)

// The layer ladder, measured from outside: each rung calls one layer's
// public functions at the workload's round shape, and the ratios between
// rungs show which one caps delivered bytes per CPU-second.
//
//	packet   packet.NewBatch per round
//	gf       gf.Symbols16 per round; AddMulSlice at the symbol length
//	core     plan (BuildClasses, Pools, BuildPlan), leader
//	         (ComputeLeaderRound and the round's announcements), one
//	         terminal (ReceiveRoundInto and Eliminate)
//	compute  the rungs above summed, single goroutine
//	engine   keystream.Stream.ReadAt, no HTTP
//	delivery the workload itself, through its front

// rungs accumulates the ladder's per-call timers.
type rungs struct {
	rounds, productive int
	secretBytes        int
	gen, sym, plan     time.Duration
	leader, terminal   time.Duration
}

// ladderBlock derives block idx the way keystream.ReferenceBlock does,
// one public call at a time with a timer around each, and additionally
// runs one non-leader terminal's half of every productive round and
// checks it agrees with the leader.
func ladderBlock(cfg keystream.Config, idx int64, dst []byte, t *rungs) error {
	blockSeed := keystream.BlockSeed(cfg.Seed, idx)
	leader := 0
	if cfg.Rotate {
		leader = int(((idx % int64(cfg.Terminals)) + int64(cfg.Terminals)) % int64(cfg.Terminals))
	}
	term := (leader + 1) % cfg.Terminals
	cc := core.Config{
		Terminals:    cfg.Terminals,
		XPerRound:    cfg.XPerRound,
		PayloadBytes: cfg.PayloadBytes,
		Rounds:       1,
		Seed:         blockSeed,
	}
	if err := cc.Validate(); err != nil {
		return err
	}
	var sc core.RoundScratch
	written := 0
	for r := 0; r < 1<<16 && written < len(dst); r++ {
		t0 := time.Now()
		rng := rand.New(rand.NewSource(blockSeed + int64(r)*65537 + int64(leader)))
		batch := packet.NewBatch(rng, cfg.XPerRound, cfg.PayloadBytes)
		t1 := time.Now()
		xSym := make([][]core.Sym, cfg.XPerRound)
		for i, pkt := range batch {
			xSym[i] = gf.Symbols16(pkt.Payload)
		}
		t2 := time.Now()
		recv := make([]*packet.IDSet, cfg.Terminals)
		for m := range recv {
			recv[m] = packet.NewIDSet(cfg.XPerRound)
			for seq := 0; seq < cfg.XPerRound; seq++ {
				if m == leader || keystream.Delivered(blockSeed, r, seq, m, cfg.Erasure) {
					recv[m].Add(packet.ID(seq))
				}
			}
		}
		ectx := &core.EstimatorContext{
			Terminals: cfg.Terminals,
			Leader:    leader,
			NumX:      cfg.XPerRound,
			Recv:      recv,
			Classes:   core.BuildClasses(cfg.Terminals, leader, cfg.XPerRound, recv),
		}
		ectx.Classes = cc.Pooling.Pools(ectx)
		plan := core.BuildPlan(ectx, cc.Estimator)
		t3 := time.Now()
		t.gen += t1.Sub(t0)
		t.sym += t2.Sub(t1)
		t.plan += t3.Sub(t2)
		t.rounds++
		if plan.L == 0 {
			continue
		}
		lr := core.ComputeLeaderRound(plan, xSym)
		secret := core.SecretBytes(lr.Secret)
		h := wire.Header{From: uint8(leader), Round: uint16(r)}
		ya := core.BuildYAnnounce(h, plan)
		zs := core.BuildZPackets(h, plan, lr.Z)
		sa := core.BuildSAnnounce(h, plan)
		t4 := time.Now()
		mine := make(map[packet.ID][]core.Sym, cfg.XPerRound)
		for seq := 0; seq < cfg.XPerRound; seq++ {
			if recv[term].Has(packet.ID(seq)) {
				mine[packet.ID(seq)] = xSym[seq]
			}
		}
		pr, err := core.ReceiveRoundInto(&sc, mine, ya)
		var rows [][]core.Sym
		if err == nil {
			rows, err = pr.Eliminate(zs, sa)
		}
		t5 := time.Now()
		t.leader += t4.Sub(t3)
		t.terminal += t5.Sub(t4)
		if err != nil {
			return fmt.Errorf("block %d round %d: terminal %d: %w", idx, r, term, err)
		}
		if !bytes.Equal(core.SecretBytes(rows), secret) {
			return fmt.Errorf("block %d round %d: terminal %d disagrees with the leader", idx, r, term)
		}
		t.productive++
		t.secretBytes += len(secret)
		written += copy(dst[written:], secret)
	}
	if written < len(dst) {
		return fmt.Errorf("block %d underrun (%d/%d)", idx, written, len(dst))
	}
	return nil
}

// ladderChecked is how many blocks the ladder checks against
// keystream.ReferenceBlock before it only keeps timing.
const ladderChecked = 2

// runLadder derives blocks 0, 1, ... of cfg's stream for about budget, at
// least ladderChecked of them, and checks those against the reference.
func runLadder(cfg keystream.Config, budget time.Duration) (rungs, []string) {
	var t rungs
	var bad []string
	dst := make([]byte, cfg.BlockSize)
	ref := make([]byte, cfg.BlockSize)
	start := time.Now()
	for idx := int64(0); idx < ladderChecked || time.Since(start) < budget; idx++ {
		if err := ladderBlock(cfg, idx, dst, &t); err != nil {
			return t, append(bad, "ladder: "+err.Error())
		}
		if idx < ladderChecked {
			if err := keystream.ReferenceBlock(cfg, idx, ref); err != nil {
				return t, append(bad, "ladder reference: "+err.Error())
			}
			if !bytes.Equal(dst, ref) {
				bad = append(bad, fmt.Sprintf("ladder block %d differs from keystream.ReferenceBlock", idx))
			}
		}
	}
	return t, bad
}

// computeSeconds is the single-goroutine CPU one block's worth of rounds
// costs in the compute rung: every rung once, the terminal rung once
// per non-leader member, as the engine runs them.
func (t rungs) computeSeconds(terminals int) float64 {
	d := t.gen + t.sym + t.plan + t.leader + time.Duration(terminals-1)*t.terminal
	return d.Seconds()
}

// perRoundUS is d averaged over n rounds, in microseconds.
func perRoundUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / 1e3 / float64(n)
}

// addMulMBs times gf AddMulSlice over GF(2^16) at the workload's symbol
// length (one x-payload) for about budget, in source MB per second.
func addMulMBs(payloadBytes int, budget time.Duration) float64 {
	f := core.Field()
	src := make([]core.Sym, payloadBytes/2)
	dst := make([]core.Sym, payloadBytes/2)
	for i := range src {
		src[i] = core.Sym(i*40503 + 1)
	}
	var n int
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < 256; i++ {
			f.AddMulSlice(dst, src, core.Sym(i|1))
		}
		n += 256
	}
	return float64(n*payloadBytes) / time.Since(start).Seconds() / 1e6
}

// engineRead reads a standalone keystream.Stream sequentially, from a
// fresh seed, for about budget and returns the bytes read, the process
// CPU they took and the stream's counters.
func engineRead(cfg keystream.Config, budget time.Duration) (int64, time.Duration, keystream.Stats, error) {
	str, err := keystream.New(cfg)
	if err != nil {
		return 0, 0, keystream.Stats{}, err
	}
	defer str.Close()
	buf := make([]byte, cfg.BlockSize)
	var off int64
	cpu0 := processCPU()
	start := time.Now()
	for off < 2*int64(cfg.BlockSize) || time.Since(start) < budget {
		if _, err := str.ReadAt(buf, off); err != nil {
			return off, processCPU() - cpu0, str.Stats(), err
		}
		off += int64(len(buf))
	}
	return off, processCPU() - cpu0, str.Stats(), nil
}

// poolTimes times a standalone keypool.Pool: one Deposit of a stream
// block, then 32 B DrawInto calls until the block is drained.
func poolTimes(block int, reps int) (depositUS, drawNS float64) {
	data := make([]byte, block)
	dst := make([]byte, keyBytes)
	deps := make([]float64, 0, reps)
	draws := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		p := keypool.New()
		t0 := time.Now()
		p.Deposit(data)
		t1 := time.Now()
		n := block / keyBytes
		for k := 0; k < n; k++ {
			if err := p.DrawInto(dst); err != nil {
				break
			}
		}
		t2 := time.Now()
		deps = append(deps, float64(t1.Sub(t0))/1e3)
		draws = append(draws, float64(t2.Sub(t1))/float64(n))
	}
	return median(deps), median(draws)
}

// sessionDraws times Session.DrawInto from nproc goroutines at once on
// the measured session, reps times. Each time it waits until the pool
// holds at least its low-water mark, then draws it down to half that
// mark, so the refresher refills it for the next time. Every key is
// returned for the correctness gate. With a non-nil tracer each call is
// a span.
func sessionDraws(s *service.Session, tr *tracer, nproc, reps int) (float64, []byte, error) {
	low := s.Spec().LowWater
	var keys []byte
	var perDraw []float64
	for rep := 0; rep < reps; rep++ {
		deadline := time.Now().Add(30 * time.Second)
		for s.Pool().Available() < low {
			if time.Now().After(deadline) {
				return 0, keys, fmt.Errorf("pool did not refill to %d bytes", low)
			}
			time.Sleep(2 * time.Millisecond)
		}
		per := (s.Pool().Available() - low/2) / keyBytes / nproc
		slabs := make([][]byte, nproc)
		errs := make([]error, nproc)
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < nproc; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				slab := make([]byte, per*keyBytes)
				for k := 0; k < per; k++ {
					var id uint64
					var t0 time.Time
					if tr != nil {
						id, t0 = tr.newID(), time.Now()
					}
					if err := s.DrawInto(slab[k*keyBytes : (k+1)*keyBytes]); err != nil {
						errs[g] = err
						slab = slab[:k*keyBytes]
						break
					}
					if id != 0 {
						tr.record(id, 0, id, spanDraw, t0, time.Now())
					}
				}
				slabs[g] = slab
			}(g)
		}
		wg.Wait()
		took := time.Since(start)
		for _, slab := range slabs {
			keys = append(keys, slab...)
		}
		for _, err := range errs {
			if err != nil {
				return 0, keys, err
			}
		}
		// Wall time per draw with nproc callers: the service's delivery
		// rate with nothing in front of it.
		perDraw = append(perDraw, float64(took)/float64(per*nproc))
	}
	return median(perDraw), keys, nil
}
