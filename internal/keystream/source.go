package keystream

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/packet"
)

// XOFSource8 is a cheap deterministic block source built on the GF(2^8)
// kernel: a splitmix counter stream mixed by byte-field multiply-add
// passes. It exists so the stream's framing and offset arithmetic can be
// property-tested (and fuzzed) over the GF(2^8) kernel quickly, without
// running protocol rounds — the GF(2^16) coverage comes from the default
// protocol deriver.
func XOFSource8(seed int64) Source {
	f := gf.GF256()
	return func(_ *BlockContext, idx int64, dst []byte) error {
		bs := uint64(BlockSeed(seed, idx))
		var word [8]byte
		for i := 0; i < len(dst); i += 8 {
			binary.LittleEndian.PutUint64(word[:], mix64(bs^uint64(i)))
			copy(dst[i:], word[:])
		}
		// Two multiply-add passes over a rotation of the block, with
		// block-keyed nonzero coefficients: dst ^= c * rot1(dst0).
		tmp := make([]byte, len(dst))
		copy(tmp, dst[1:])
		if len(dst) > 0 {
			tmp[len(dst)-1] = dst[0]
		}
		f.AddMulSlice(dst, tmp, byte(bs)|1)
		f.AddMulSlice(dst, tmp, byte(bs>>8)|3)
		return nil
	}
}

// ReferenceBlock derives block idx of a protocol stream with a plain
// sequential loop — no bus, no goroutines, no pipeline — straight from
// the Delivered schedule. It is the differential-test oracle the
// pipelined engine must match byte for byte.
func ReferenceBlock(cfg Config, idx int64, dst []byte) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	blockSeed := BlockSeed(cfg.Seed, idx)
	leader := 0
	if cfg.Rotate {
		leader = int(((idx % int64(cfg.Terminals)) + int64(cfg.Terminals)) % int64(cfg.Terminals))
	}
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
	written := 0
	consecAborts := 0
	for r := 0; r < 1<<16 && written < len(dst); r++ {
		rng := rand.New(rand.NewSource(blockSeed + int64(r)*65537 + int64(leader)))
		xSym := core.XSymbols(packet.NewBatch(rng, cfg.XPerRound, cfg.PayloadBytes))
		recv := scheduleRecv(blockSeed, r, leader, cfg.Terminals, cfg.XPerRound, cfg.Erasure)
		ectx := &core.EstimatorContext{
			Terminals: cfg.Terminals,
			Leader:    leader,
			NumX:      cfg.XPerRound,
			Recv:      recv,
			Classes:   core.BuildClasses(cfg.Terminals, leader, cfg.XPerRound, recv),
		}
		ectx.Classes = cc.Pooling.Pools(ectx)
		plan := core.BuildPlan(ectx, cc.Estimator)
		if plan.L == 0 {
			consecAborts++
			if consecAborts >= cfg.MaxAbortRounds {
				return fmt.Errorf("keystream: reference block %d: %d consecutive unproductive rounds", idx, consecAborts)
			}
			continue
		}
		consecAborts = 0
		lr := core.ComputeLeaderRound(plan, xSym)
		written += copy(dst[written:], core.SecretBytes(lr.Secret))
	}
	if written < len(dst) {
		return fmt.Errorf("keystream: reference block %d underrun (%d/%d)", idx, written, len(dst))
	}
	return nil
}
