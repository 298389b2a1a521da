// Package keystream exposes a session's key material as a randomly
// addressable, pipelined byte stream — the bulk-OTP workload surface the
// fixed-size pool draws of internal/keypool cannot serve efficiently.
//
// The stream is framed into fixed-size blocks. Each block is a
// deterministically re-derivable round batch: block index b and the
// stream seed fully determine the protocol rounds the block runs (their
// x-payloads AND their erasure outcomes, via a content-keyed coin — see
// bus.go), so random access at any offset derives exactly the blocks it
// needs, with no history. In the eestream idiom, blocks are produced by a
// pipelined engine and consumed on demand: a bounded worker pool derives
// blocks ahead of the read cursor into a bounded cache (backpressure
// instead of lockstep producers), and a slow or stalled group member
// inside one block's exchange never gates byte production (see engine.go
// for the soft reception-report deadline that makes that true).
//
// Contract: bytes are addressed, not consumed. Reading offset o twice
// returns the same bytes twice; one-time-pad consumers own offset
// non-reuse (the session key pool, which consumes the stream
// sequentially and zeroizes on draw, remains the never-reused interface).
package keystream

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// DerivationVersion names the function from (stream seed, offset) to
// stream bytes. It covers the x-payload generator (packet.NewBatch:
// ChaCha8 keyed from the round's seeded rng), the erasure schedule
// Delivered, BlockSeed, and the block framing (rounds run until a block's
// secret covers BlockSize bytes; the tail is discarded). Any change that
// alters a byte of any stream must bump it, so that state persisted under
// one version (the cluster journal records it per session) is refused by
// a build that would re-derive different bytes. The known-answer tests
// pin the current version's bytes.
//
// Version 1 drew x-payloads one math/rand Intn(256) call per byte;
// version 2 fills them in bulk with ChaCha8.
const DerivationVersion = 2

// ErrClosed is returned by reads on a closed stream.
var ErrClosed = errors.New("keystream: stream closed")

// Source derives the dst-sized block with the given index. Implementations
// must be deterministic in (index) and safe for concurrent calls with
// distinct indices.
type Source func(ctx *BlockContext, index int64, dst []byte) error

// Config parameterizes a Stream.
type Config struct {
	// Terminals, XPerRound, PayloadBytes, Erasure and Seed have their
	// core.Config / service.SessionSpec meanings; together with BlockSize
	// they fully determine the stream's bytes.
	Terminals    int
	XPerRound    int
	PayloadBytes int
	Erasure      float64
	Seed         int64
	// Rotate rotates the leader role across blocks (block b is led by
	// terminal b mod Terminals). Within a block the leader is fixed, so a
	// block's pipeline never hands the transmit role to a member that may
	// be stalled mid-block.
	Rotate bool

	// BlockSize is the stream's framing unit in bytes (default 4096).
	// Rounds run until a block's secret covers BlockSize bytes; the tail
	// beyond it is framing discard, charged to the derivation, so block
	// boundaries stay offset-computable.
	BlockSize int
	// Workers bounds concurrent block derivations (default 4, capped at
	// GOMAXPROCS). Window is how many blocks ahead of the sequential read
	// cursor the workers prefetch (default Workers); CacheBlocks bounds
	// the derived-block cache (default Workers+Window+2). A full cache
	// halts prefetch until a reader consumes — backpressure, not lockstep.
	Workers     int
	Window      int
	CacheBlocks int

	// AckWait bounds how long a block's leader waits for reception
	// reports each round (default 50ms); AckSlack is the extra grace
	// after the first report lands (default 2ms). Members that keep
	// missing the deadline stop being waited for (see memberHealth).
	AckWait  time.Duration
	AckSlack time.Duration
	// Timeout bounds one block derivation end to end (default 30s).
	Timeout time.Duration
	// MaxAbortRounds bounds consecutive secretless rounds before a block
	// derivation gives up (default 64) — the dead-channel escape hatch.
	MaxAbortRounds int

	// Obs, when non-nil, receives the stream's pipeline telemetry
	// (block-derive latency, exchange/compute phase timings, resident
	// block occupancy, cache and member-health counters) as registry
	// instruments. Nil disables — the pipeline then performs no clock
	// reads beyond what it already does.
	Obs *obs.Registry

	// NewBus, when non-nil, builds the broadcast bus for each block
	// (tests wrap the default deterministic bus in an Injector). The
	// default is NewSimBus(cfg, blockSeed). The bus only carries the
	// exchange; erasure outcomes must follow Delivered for the block's
	// bytes to be re-derivable.
	NewBus func(block int64, blockSeed int64) (transport.Bus, error)
	// Source, when non-nil, replaces the protocol engine as the block
	// deriver (tests and benchmarks use cheap GF(2^8) pad expansion; see
	// XOFSource8). The default derives blocks by running protocol rounds.
	Source Source
}

func (c *Config) fill() error {
	if c.BlockSize == 0 {
		c.BlockSize = 4096
	}
	if c.BlockSize < 1 {
		return fmt.Errorf("keystream: BlockSize=%d", c.BlockSize)
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Workers > runtime.GOMAXPROCS(0) {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Window == 0 {
		c.Window = c.Workers
	}
	if c.CacheBlocks == 0 {
		c.CacheBlocks = c.Workers + c.Window + 2
	}
	if c.CacheBlocks < c.Workers+1 {
		c.CacheBlocks = c.Workers + 1
	}
	if c.AckWait == 0 {
		c.AckWait = 50 * time.Millisecond
	}
	if c.AckSlack == 0 {
		c.AckSlack = 2 * time.Millisecond
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxAbortRounds == 0 {
		c.MaxAbortRounds = 64
	}
	if c.Source == nil {
		// The protocol deriver needs a valid group configuration.
		cc := core.Config{
			Terminals:    c.Terminals,
			XPerRound:    c.XPerRound,
			PayloadBytes: c.PayloadBytes,
			Rounds:       1,
		}
		if err := cc.Validate(); err != nil {
			return err
		}
		if c.Erasure < 0 || c.Erasure >= 1 {
			return fmt.Errorf("keystream: erasure %v outside [0, 1)", c.Erasure)
		}
		// Validate fills the protocol defaults the deriver relies on.
		c.XPerRound = cc.XPerRound
		c.PayloadBytes = cc.PayloadBytes
	}
	return nil
}

// Stats is a point-in-time snapshot of a stream's lifetime counters.
type Stats struct {
	// Blocks counts fully derived blocks; BlockErrors counts derivations
	// that failed (and were forgotten, so a later read retries).
	Blocks      int64 `json:"blocks"`
	BlockErrors int64 `json:"block_errors"`
	// Rounds / Productive / Aborted count protocol rounds the block
	// engine ran (zero when a custom Source is installed).
	Rounds     int64 `json:"rounds"`
	Productive int64 `json:"productive"`
	Aborted    int64 `json:"aborted"`
	// BytesRead counts bytes handed to readers (Read + ReadAt).
	BytesRead int64 `json:"bytes_read"`
	// VerifyOK / VerifyMismatch count per-round terminal agreement checks
	// (a mismatch means a member's live reception diverged from the
	// derivation schedule, e.g. frames shed while it was stalled).
	VerifyOK       int64 `json:"verify_ok"`
	VerifyMismatch int64 `json:"verify_mismatch"`
	// AckTimeouts counts rounds where at least one waited-for member
	// missed the report deadline; SkippedWaits counts rounds that did not
	// wait for a member already marked unresponsive.
	AckTimeouts  int64 `json:"ack_timeouts"`
	SkippedWaits int64 `json:"skipped_waits"`
	// ShedFrames counts frames dropped because a member's inbox
	// overflowed while it was stalled (see simBus).
	ShedFrames int64 `json:"shed_frames"`
	// CacheHits / CacheMisses classify block acquisitions: a hit found
	// the block already derived; a miss created or waited for it.
	// CacheEvictions counts idle derived blocks dropped by the LRU to
	// make room.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	// StridePrefetches counts blocks the prefetcher claimed because the
	// stride detector saw a repeating non-sequential ReadAt pattern.
	StridePrefetches int64 `json:"stride_prefetches"`
	// HealthSkips counts report waits skipped because the member was
	// marked unresponsive; HealthProbes counts the periodic liveness
	// re-probes of such members (see memberHealth).
	HealthSkips  int64 `json:"health_skips"`
	HealthProbes int64 `json:"health_probes"`
}

// streamInstruments are the registry handles a stream observes into.
// The zero value (no registry plumbed) is fully usable: every obs
// instrument is nil-receiver safe, and timing sites skip their clock
// reads when the relevant histogram is nil.
type streamInstruments struct {
	blockLat    *obs.Histogram
	exchangeLat *obs.Histogram
	computeLat  *obs.Histogram
	resident    *obs.Gauge
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	cacheEvicts *obs.Counter
}

func newStreamInstruments(r *obs.Registry) streamInstruments {
	return streamInstruments{
		blockLat: r.Histogram("thinaird_keystream_block_derive_seconds",
			"Wall time to derive one keystream block.", obs.LatencyBuckets),
		exchangeLat: r.Histogram("thinaird_keystream_exchange_seconds",
			"Wall time of one pipelined round's x-packet exchange phase.", obs.LatencyBuckets),
		computeLat: r.Histogram("thinaird_keystream_compute_seconds",
			"Wall time of one pipelined round's plan/eliminate/announce phase.", obs.LatencyBuckets),
		resident: r.Gauge("thinaird_keystream_blocks_resident",
			"Blocks currently resident in the stream cache (pipeline occupancy)."),
		cacheHits: r.Counter("thinaird_keystream_cache_hits_total",
			"Block acquisitions that found the block already derived."),
		cacheMisses: r.Counter("thinaird_keystream_cache_misses_total",
			"Block acquisitions that created or waited for a derivation."),
		cacheEvicts: r.Counter("thinaird_keystream_cache_evictions_total",
			"Idle derived blocks evicted by the LRU to make room."),
	}
}

// blockState tracks one block through the cache.
type blockState struct {
	idx     int64
	running bool
	data    []byte // non-nil once derived
	err     error
	demand  int   // readers waiting on it
	lastUse int64 // cache clock, for LRU eviction
}

// Stream is a pipelined, randomly addressable keystream. It implements
// io.Reader (a sequential cursor), io.ReaderAt, and io.Closer. All
// methods are safe for concurrent use.
type Stream struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	blocks map[int64]*blockState
	tick   int64
	pos    int64 // sequential read cursor (bytes)
	hint   int64 // first block after the most recent acquisition (blocks)
	closed bool

	// Stride detector state (guarded by mu): strideLast is the first
	// block of the most recent ReadAt, strideDelta the last inter-call
	// jump, strideHits how many times in a row that jump repeated. Two
	// repeats of a jump that is neither a re-read (0) nor sequential (1)
	// switch prefetch from the contiguous hint window to the strided
	// lattice strideLast + k·strideDelta — the access pattern of an OTP
	// consumer padding every Nth record, which the contiguous window
	// never anticipates.
	strideLast  int64
	strideDelta int64
	strideHits  int

	readMu sync.Mutex // serializes sequential Reads (cursor integrity)

	wg     sync.WaitGroup
	health *memberHealth
	stats  Stats       // cache-side counters, guarded by mu
	es     engineStats // derivation-side counters, atomic
	ins    streamInstruments
	// arenas recycles the terminals' per-round x-payload arenas
	// (*core.XArena) and leaderArenas the leader's (*leaderArena) across
	// rounds and blocks. At the BENCH_stream shape a fresh 512 KiB arena
	// per round cost about as much CPU (zeroing, page faults, GC) as
	// filling it with ChaCha8.
	arenas       sync.Pool
	leaderArenas sync.Pool
}

// New starts a stream: cfg.Workers derivation workers begin prefetching
// block 0 onward immediately. Close releases them.
func New(cfg Config) (*Stream, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Stream{
		cfg:    cfg,
		blocks: make(map[int64]*blockState),
		health: newMemberHealth(cfg.Terminals),
	}
	if cfg.Obs != nil {
		s.ins = newStreamInstruments(cfg.Obs)
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// BlockSize returns the stream's framing unit.
func (s *Stream) BlockSize() int { return s.cfg.BlockSize }

// Stats snapshots the stream's counters.
func (s *Stream) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.Rounds = s.es.rounds.Load()
	st.Productive = s.es.productive.Load()
	st.Aborted = s.es.aborted.Load()
	st.VerifyOK = s.es.verifyOK.Load()
	st.VerifyMismatch = s.es.verifyMismatch.Load()
	st.AckTimeouts = s.es.ackTimeouts.Load()
	st.SkippedWaits = s.es.skippedWaits.Load()
	st.ShedFrames = s.es.shed.Load()
	st.HealthSkips, st.HealthProbes = s.health.totals()
	return st
}

// worker derives blocks until the stream closes: demanded blocks first
// (lowest index — a waiting reader), then prefetch within the window
// ahead of the sequential cursor, bounded by the cache budget.
func (s *Stream) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return
		}
		bs := s.pickNext()
		if bs == nil {
			s.cond.Wait()
			continue
		}
		bs.running = true
		s.mu.Unlock()

		data := make([]byte, s.cfg.BlockSize)
		timed := s.ins.blockLat != nil
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		err := s.derive(bs.idx, data)
		if timed {
			s.ins.blockLat.ObserveSince(t0)
		}

		s.mu.Lock()
		bs.running = false
		if s.closed {
			zero(data)
			s.mu.Unlock()
			return
		}
		if err != nil {
			s.stats.BlockErrors++
			bs.err = err
			// Hand the error to the readers currently waiting, then forget
			// the block so the next acquisition re-derives it (transient
			// stalls must not poison an offset forever).
			delete(s.blocks, bs.idx)
			s.ins.resident.Set(float64(len(s.blocks)))
		} else {
			s.stats.Blocks++
			bs.data = data
			bs.lastUse = s.nextTick()
		}
		s.cond.Broadcast()
	}
}

// pickNext chooses the next block to derive. Caller holds mu.
func (s *Stream) pickNext() *blockState {
	// Demanded blocks first: a reader is blocked on them.
	var best *blockState
	for _, bs := range s.blocks {
		if bs.demand > 0 && !bs.running && bs.data == nil && bs.err == nil {
			if best == nil || bs.idx < best.idx {
				best = bs
			}
		}
	}
	if best != nil {
		return best
	}
	// With an established stride, prefetch along the strided lattice
	// instead of the contiguous hint window — the window would fill the
	// cache with blocks a strided reader is about to jump over.
	if s.strideActive() {
		for k := int64(1); k <= int64(s.cfg.Window); k++ {
			idx := s.strideLast + k*s.strideDelta
			if idx < 0 {
				break // backward stride ran off the stream's start
			}
			if _, ok := s.blocks[idx]; ok {
				continue
			}
			if !s.makeRoom() {
				return nil
			}
			s.stats.StridePrefetches++
			return s.claim(idx)
		}
	} else {
		// Prefetch within the window, respecting the cache budget. The hint
		// cursor (where the most recent reader actually is — random-access
		// readers included) is the better bet; the sequential cursor's
		// window keeps a drained-by-Read consumer pipelined when no one
		// else reads.
		for idx := s.hint; idx < s.hint+int64(s.cfg.Window); idx++ {
			if _, ok := s.blocks[idx]; ok {
				continue
			}
			if !s.makeRoom() {
				return nil // cache full of live blocks: backpressure
			}
			return s.claim(idx)
		}
	}
	// The sequential cursor's window applies either way: the session pool
	// drains the stream through Read and must stay pipelined even while a
	// random-access reader drives the stride or hint state elsewhere.
	base := s.pos / int64(s.cfg.BlockSize)
	for idx := base; idx < base+int64(s.cfg.Window); idx++ {
		if _, ok := s.blocks[idx]; ok {
			continue
		}
		if !s.makeRoom() {
			return nil
		}
		return s.claim(idx)
	}
	return nil
}

// claim registers an empty block state for idx. Caller holds mu and has
// already made room.
func (s *Stream) claim(idx int64) *blockState {
	bs := &blockState{idx: idx}
	s.blocks[idx] = bs
	s.ins.resident.Set(float64(len(s.blocks)))
	return bs
}

// strideMinHits is how many consecutive repeats of the same jump
// establish a stride. Caller of strideActive holds mu.
const strideMinHits = 2

func (s *Stream) strideActive() bool {
	return s.strideHits >= strideMinHits && s.strideDelta != 0 && s.strideDelta != 1
}

// noteStride feeds the detector the first block index of one ReadAt
// call. Re-reads (delta 0) and sequential continuation (delta 1) are
// already served by the hint window; any other jump that repeats
// strideMinHits times in a row flips prefetch to the strided lattice.
// Caller holds mu.
func (s *Stream) noteStride(idx int64) {
	delta := idx - s.strideLast
	s.strideLast = idx
	if delta == s.strideDelta && delta != 0 && delta != 1 {
		s.strideHits++
	} else {
		s.strideDelta = delta
		s.strideHits = 0
	}
}

// makeRoom evicts the least-recently-used idle derived block if the cache
// is at capacity. Returns false when nothing can be evicted. Caller holds
// mu.
func (s *Stream) makeRoom() bool {
	if len(s.blocks) < s.cfg.CacheBlocks {
		return true
	}
	var victim *blockState
	for _, bs := range s.blocks {
		if bs.data == nil || bs.demand > 0 || bs.running {
			continue
		}
		if victim == nil || bs.lastUse < victim.lastUse {
			victim = bs
		}
	}
	if victim == nil {
		return false
	}
	zero(victim.data)
	delete(s.blocks, victim.idx)
	s.stats.CacheEvictions++
	s.ins.cacheEvicts.Inc()
	s.ins.resident.Set(float64(len(s.blocks)))
	return true
}

func (s *Stream) nextTick() int64 {
	s.tick++
	return s.tick
}

// acquire blocks until block idx is derived (or fails, or the stream
// closes) and returns its bytes. The caller must release() when done
// copying.
func (s *Stream) acquire(idx int64) (*blockState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	classified := false // hit/miss is judged on the first look only
	for {
		if s.closed {
			return nil, ErrClosed
		}
		bs, ok := s.blocks[idx]
		if !classified {
			classified = true
			if ok && bs.data != nil {
				s.stats.CacheHits++
				s.ins.cacheHits.Inc()
			} else {
				s.stats.CacheMisses++
				s.ins.cacheMisses.Inc()
			}
		}
		if !ok {
			if !s.makeRoom() {
				// Every cache slot is a live (demanded or running) block.
				// Wait for one to free rather than overcommitting memory.
				s.cond.Wait()
				continue
			}
			bs = &blockState{idx: idx}
			s.blocks[idx] = bs
			s.ins.resident.Set(float64(len(s.blocks)))
		}
		if s.hint != idx+1 {
			// Move the prefetch hint to where this reader is so the workers
			// pipeline ahead of random-access readers too, and wake an idle
			// worker to start on the new window.
			s.hint = idx + 1
			s.cond.Broadcast()
		}
		if bs.err != nil {
			return nil, bs.err
		}
		if bs.data != nil {
			bs.demand++
			bs.lastUse = s.nextTick()
			return bs, nil
		}
		bs.demand++
		s.cond.Broadcast() // a worker may be idle
		s.cond.Wait()
		bs.demand--
		// Loop: re-look the block up — a failed derivation deletes it.
		if bs.err != nil {
			return nil, bs.err
		}
	}
}

func (s *Stream) release(bs *blockState) {
	s.mu.Lock()
	bs.demand--
	if s.closed && bs.demand == 0 {
		// Close skipped this block because a reader was still copying from
		// it; the last release zeroizes on its behalf.
		zero(bs.data)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// ReadAt implements io.ReaderAt: it fills p from stream offset off,
// deriving exactly the blocks the range covers. The stream is unbounded,
// so ReadAt never returns io.EOF for in-range offsets; short reads only
// happen on error.
func (s *Stream) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("keystream: negative offset %d", off)
	}
	bsz := int64(s.cfg.BlockSize)
	s.mu.Lock()
	s.noteStride(off / bsz)
	if s.strideActive() {
		s.cond.Broadcast() // wake idle workers onto the strided lattice
	}
	s.mu.Unlock()
	n := 0
	for n < len(p) {
		idx := (off + int64(n)) / bsz
		in := int((off + int64(n)) % bsz)
		bs, err := s.acquire(idx)
		if err != nil {
			return n, err
		}
		c := copy(p[n:], bs.data[in:])
		s.release(bs)
		n += c
	}
	s.mu.Lock()
	s.stats.BytesRead += int64(n)
	s.mu.Unlock()
	return n, nil
}

// Read implements io.Reader over the stream's sequential cursor. It
// returns at most one block per call (callers needing exact lengths use
// io.ReadFull, or ReadAt).
func (s *Stream) Read(p []byte) (int, error) {
	s.readMu.Lock()
	defer s.readMu.Unlock()
	s.mu.Lock()
	pos := s.pos
	s.mu.Unlock()
	bsz := int64(s.cfg.BlockSize)
	// Clamp to the current block so the cursor advances block by block —
	// each Read wakes the prefetchers with a window that moved.
	max := int(bsz - pos%bsz)
	if len(p) > max {
		p = p[:max]
	}
	n, err := s.ReadAt(p, pos)
	s.mu.Lock()
	s.pos = pos + int64(n)
	s.mu.Unlock()
	s.cond.Broadcast() // window moved: wake prefetchers
	return n, err
}

// RangeReader returns an io.Reader over [off, off+n): the chunked HTTP
// endpoint's backing. Reading it derives blocks on demand.
func (s *Stream) RangeReader(off, n int64) io.Reader {
	return io.NewSectionReader(s, off, n)
}

// Close stops the workers, wakes every blocked reader with ErrClosed and
// zeroizes the cached blocks. Safe to call multiple times.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for idx, bs := range s.blocks {
		// A reader with the block acquired (demand > 0) copies from
		// bs.data outside mu; zeroizing under it would hand that reader
		// silently zeroed key material with a nil error. Leave held blocks
		// to release(), which zeroizes when the last reader lets go.
		if bs.demand == 0 {
			zero(bs.data)
		}
		delete(s.blocks, idx)
	}
	s.ins.resident.Set(float64(len(s.blocks)))
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
