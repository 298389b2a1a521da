package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/keystream"
	"repro/internal/obs"
	"repro/internal/service"
)

// Config parameterizes the coordinator tier.
type Config struct {
	// Workers is the number of worker processes to spawn and supervise.
	// 0 means 2.
	Workers int
	// WorkerCapacity bounds sessions per worker. 0 means 16.
	WorkerCapacity int
	// HeartbeatEvery is the health-probe period. 0 means 1s.
	HeartbeatEvery time.Duration
	// HeartbeatMisses is how many consecutive failed probes declare a
	// worker dead (its process is then killed and replaced). 0 means 3.
	HeartbeatMisses int
	// MaxRestarts bounds how many times one worker slot is respawned
	// before it is retired (its sessions move to survivors). 0 means 5.
	MaxRestarts int
	// RespawnBackoff is the pause before replacing a dead worker.
	// 0 means 200ms.
	RespawnBackoff time.Duration
	// DrainTimeout bounds graceful shutdown of each worker. 0 means 15s.
	DrainTimeout time.Duration
	// Spawn produces workers. Nil means InProcess(nil) — goroutine-hosted
	// workers behind real loopback listeners; cmd/thinaird's coordinator
	// mode passes an ExecSpawner for real OS processes.
	Spawn SpawnFunc
	// Logf receives supervision events (worker deaths, reassignments).
	// Nil means log.Printf.
	Logf func(format string, args ...any)
	// Obs is the coordinator's own metrics registry (RPC latency,
	// supervision counters). Nil means obs.Default().
	Obs *obs.Registry
	// Spans is the span ring edge requests are recorded to. Nil means
	// obs.DefaultSpans().
	Spans *obs.SpanLog
	// StateDir, when non-empty, persists the session registry there — an
	// append-only journal plus periodic snapshots. A coordinator
	// restarted on the same dir replays it, probes the recorded worker
	// URLs, re-adopts sessions still live on surviving workers (same
	// process, so byte-identical keystreams), and re-places only what
	// died with the crash. Empty means no persistence (the pre-existing
	// behavior: a restart loses the registry).
	StateDir string
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.WorkerCapacity <= 0 {
		c.WorkerCapacity = 16
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 5
	}
	if c.RespawnBackoff == 0 {
		c.RespawnBackoff = 200 * time.Millisecond
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.Spawn == nil {
		c.Spawn = InProcess(nil)
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.Obs == nil {
		c.Obs = obs.Default()
	}
	if c.Spans == nil {
		c.Spans = obs.DefaultSpans()
	}
}

// Session lifecycle states in the coordinator's registry.
const (
	// sessionAssigned: owned by a live worker. The state is only entered
	// after the worker's assign RPC has succeeded, so assigned always
	// means the worker actually hosts the session.
	sessionAssigned = "assigned"
	// sessionPlacing: exclusively claimed by one placement attempt (the
	// assign RPC may be in flight). The claim keeps concurrent placers —
	// Create and the per-slot supervisors' placeOrphans — from assigning
	// one session to two workers.
	sessionPlacing = "placing"
	// sessionOrphaned: its worker died; awaiting placement on a survivor
	// or the replacement worker. Draws fail retryably meanwhile.
	sessionOrphaned = "orphaned"
	// sessionFailed: the session failed on a live worker (dead channel,
	// exhausted round space). A deterministic failure would recur on any
	// worker, so it is not reassigned.
	sessionFailed = "failed"
	// sessionClosed: transient marker set by CloseSession just before the
	// entry leaves the registry; an in-flight placement that sees it
	// undoes its assignment instead of stranding a copy on a worker.
	sessionClosed = "closed"
)

// clusterSession is one registry entry: everything needed to re-create
// the session elsewhere (the spec carries the seed, so a reassigned
// session re-derives the same key stream from round zero).
type clusterSession struct {
	id        uint64
	spec      service.SessionSpec
	worker    int // owning slot, -1 when orphaned/failed
	state     string
	reassigns int
	placedAt  time.Time
	// derivation is the keystream.DerivationVersion the session's bytes
	// were derived under; failure says why a failed session failed, when
	// the registry knows (both persist in the snapshot).
	derivation int
	failure    string
}

// workerSlot is one supervised worker position. The slot index is
// stable; the process (and RPC address) behind it changes on restart.
type workerSlot struct {
	slot        int
	proc        WorkerProc
	client      *WorkerClient
	alive       bool
	retired     bool // restart budget exhausted
	restarts    int
	misses      int
	lastRespawn time.Time
}

// Coordinator owns the cluster: the session registry, worker
// supervision, placement, and the public HTTP API.
type Coordinator struct {
	cfg   Config
	start time.Time

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	slots    []*workerSlot
	sessions map[uint64]*clusterSession
	nextID   uint64
	closed   bool

	created    atomic.Int64
	removed    atomic.Int64
	failed     atomic.Int64
	reassigned atomic.Int64
	restarts   atomic.Int64
	adopted    atomic.Int64

	// jnl is the registry journal, nil unless Config.StateDir is set.
	// Appends happen under c.mu so the on-disk record order matches the
	// registry's mutation order exactly.
	jnl *journal

	// epoch counts ownership-map revisions: any transition that changes
	// which worker (or URL) serves which session bumps it. Gates poll it
	// cheaply (GET /v1/cluster/owners?epoch=N) and re-pull the map only
	// when it moved — the watch half of cache invalidation.
	epoch atomic.Uint64

	obs   *obs.Registry
	spans *obs.SpanLog

	placing atomic.Bool // a background placeOrphans pass is running
}

// triggerPlacement runs placeOrphans in the background, at most one
// pass at a time: placement RPCs can take seconds, and a supervisor
// stuck placing would stop watching its own worker for death. Missed
// triggers are fine — the next heartbeat re-triggers.
func (c *Coordinator) triggerPlacement() {
	if !c.placing.CompareAndSwap(false, true) {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer c.placing.Store(false)
		c.placeOrphans()
	}()
}

// New spawns cfg.Workers workers and starts supervising them. Call
// Shutdown to drain the whole tier. With Config.StateDir set, a
// previous coordinator's registry is replayed first: workers recorded
// there that still answer their control RPC are adopted in place —
// their live sessions keep serving the same keystream bytes — and only
// the rest are spawned fresh.
func New(cfg Config) (*Coordinator, error) {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:      cfg,
		start:    time.Now(),
		ctx:      ctx,
		cancel:   cancel,
		sessions: make(map[uint64]*clusterSession),
		nextID:   1,
		obs:      cfg.Obs,
		spans:    cfg.Spans,
	}
	var rec *recoveredState
	if cfg.StateDir != "" {
		jnl, state, err := openJournal(cfg.StateDir)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("cluster: state dir %s: %w", cfg.StateDir, err)
		}
		c.jnl = jnl
		rec = state
	}
	if rec != nil {
		c.recoverRegistry(rec)
	}
	// Supervision counters already live as atomics for ClusterMetrics;
	// the func collectors export the same values through the registry so
	// the fleet merge and /metrics.json carry them too.
	c.obs.CounterFunc("thinaird_cluster_reassignments_total",
		"Sessions re-placed after their worker died.",
		func() float64 { return float64(c.reassigned.Load()) })
	c.obs.CounterFunc("thinaird_cluster_respawns_total",
		"Worker processes respawned by supervision.",
		func() float64 { return float64(c.restarts.Load()) })
	c.obs.CounterFunc("thinaird_cluster_adoptions_total",
		"Live worker sessions re-adopted across a coordinator restart.",
		func() float64 { return float64(c.adopted.Load()) })
	for i := 0; i < cfg.Workers; i++ {
		if sl := c.adoptSlot(ctx, i, rec); sl != nil {
			c.slots = append(c.slots, sl)
			continue
		}
		proc, err := cfg.Spawn(ctx, c.spawnOpts(i))
		if err != nil {
			cancel()
			for _, sl := range c.slots {
				_ = sl.proc.Kill()
			}
			if c.jnl != nil {
				c.jnl.close()
			}
			return nil, fmt.Errorf("cluster: spawning worker %d: %w", i, err)
		}
		c.slots = append(c.slots, &workerSlot{
			slot:   i,
			proc:   proc,
			client: NewWorkerClient(proc.URL()).WithObs(c.obs),
			alive:  true,
		})
	}
	if c.jnl != nil {
		// Record the fleet as it stands and cut a fresh snapshot: the new
		// epoch, the adopted/spawned worker URLs, and the recovered
		// registry become the durable baseline before traffic resumes.
		c.mu.Lock()
		for _, sl := range c.slots {
			c.journalLocked(journalRecord{
				Op: jopWorker, Slot: sl.slot, URL: sl.proc.URL(), PID: sl.proc.PID(),
			})
		}
		c.jnl.compact(c.persistStateLocked())
		c.mu.Unlock()
	}
	for _, sl := range c.slots {
		c.wg.Add(1)
		go c.supervise(sl)
	}
	if rec != nil {
		// Sessions whose worker really died with the old coordinator are
		// sitting orphaned; re-place them without waiting a heartbeat.
		c.triggerPlacement()
	}
	return c, nil
}

// recoverRegistry rebuilds the in-memory registry from replayed state.
// Every non-failed session starts orphaned: assignment must be
// re-proven by adoption probes (adoptSlot) or a fresh placement —
// nothing is trusted to be hosted until a live worker says so. The
// ownership epoch resumes strictly above every persisted value, so
// gates that cached owners across the outage always see a bump.
func (c *Coordinator) recoverRegistry(rec *recoveredState) {
	if rec.nextID > c.nextID {
		c.nextID = rec.nextID
	}
	c.epoch.Store(rec.epoch + 1)
	for id, ps := range rec.sessions {
		cs := &clusterSession{
			id: id, spec: ps.Spec, worker: -1, reassigns: ps.Reassigns,
			derivation: ps.Derivation, failure: ps.Error,
		}
		if ps.State == sessionFailed {
			// Failures are permanent and survive restarts: clients keep
			// getting the failed verdict, not a ghost of the session.
			cs.state = sessionFailed
			if ps.Error != "" {
				c.cfg.Logf("cluster: session %d failed: %s", id, ps.Error)
			}
		} else {
			cs.state = sessionOrphaned
		}
		c.sessions[id] = cs
	}
}

// adoptSlot probes the recorded worker for slot i and adopts it when it
// still answers: the existing process keeps its slot, its client, and —
// crucially — its live sessions, which move straight back to assigned
// without a respawn or a keystream restart. Returns nil (spawn fresh)
// for unrecorded, retired, dead, or draining workers.
func (c *Coordinator) adoptSlot(ctx context.Context, slot int, rec *recoveredState) *workerSlot {
	if rec == nil {
		return nil
	}
	pw := rec.workers[slot]
	if pw == nil || pw.Retired || !pw.Alive || pw.URL == "" {
		return nil
	}
	client := NewWorkerClient(pw.URL).WithObs(c.obs)
	pctx, cancel := context.WithTimeout(ctx, adoptProbeTimeout)
	st, err := client.Stats(pctx)
	cancel()
	if err != nil || st.Draining {
		return nil
	}
	adopted := 0
	c.mu.Lock()
	for cid := range st.Sessions {
		cs, ok := c.sessions[cid]
		if !ok || cs.state != sessionOrphaned {
			continue // strays are reaped by the first reconcile pass
		}
		cs.state = sessionAssigned
		cs.worker = slot
		cs.placedAt = time.Now()
		adopted++
	}
	c.mu.Unlock()
	c.adopted.Add(int64(adopted))
	c.cfg.Logf("cluster: adopted surviving worker %d at %s (pid %d), %d live sessions re-adopted",
		slot, pw.URL, st.PID, adopted)
	return &workerSlot{
		slot:   slot,
		proc:   newAdoptedProc(pw.URL, st.PID),
		client: client,
		alive:  true,
	}
}

// journalLocked appends one registry-transition record when persistence
// is on, compacting once the journal grows past its threshold. Caller
// holds c.mu — that is what keeps the on-disk order identical to the
// registry mutation order.
func (c *Coordinator) journalLocked(rec journalRecord) {
	if c.jnl == nil {
		return
	}
	rec.Epoch = c.epoch.Load()
	if c.jnl.append(rec) {
		c.jnl.compact(c.persistStateLocked())
	}
}

// persistStateLocked snapshots the registry in its wire form. Caller
// holds c.mu.
func (c *Coordinator) persistStateLocked() persistState {
	ps := persistState{NextID: c.nextID, Epoch: c.epoch.Load()}
	for _, cs := range c.sessions {
		if cs.state == sessionClosed {
			continue
		}
		ps.Sessions = append(ps.Sessions, persistedSession{
			ID: cs.id, Spec: cs.spec, Worker: cs.worker,
			State: cs.state, Reassigns: cs.reassigns,
			Derivation: cs.derivation, Error: cs.failure,
		})
	}
	for _, sl := range c.slots {
		pw := persistedWorker{
			Slot: sl.slot, Alive: sl.alive, Retired: sl.retired,
		}
		if sl.proc != nil {
			pw.URL = sl.proc.URL()
			pw.PID = sl.proc.PID()
		}
		ps.Workers = append(ps.Workers, pw)
	}
	return ps
}

// healthyResetAfter is how long a restarted worker must stay healthy
// before its slot's restart budget resets — long enough that a crash
// loop (die, respawn, die) keeps burning budget, short enough that a
// weekly sporadic crash never retires the slot.
func (c *Coordinator) healthyResetAfter() time.Duration {
	if d := 60 * c.cfg.HeartbeatEvery; d > time.Minute {
		return d
	}
	return time.Minute
}

func (c *Coordinator) spawnOpts(slot int) WorkerSpawnOpts {
	return WorkerSpawnOpts{
		Slot:         slot,
		Capacity:     c.cfg.WorkerCapacity,
		DrainTimeout: c.cfg.DrainTimeout,
	}
}

// supervise runs one worker slot's lifecycle: heartbeat probes while it
// is alive, respawn + session reassignment when it dies.
func (c *Coordinator) supervise(sl *workerSlot) {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		c.mu.Lock()
		proc, client, alive, retired := sl.proc, sl.client, sl.alive, sl.retired
		c.mu.Unlock()
		if retired {
			return
		}
		if !alive {
			if !c.respawn(sl) {
				return
			}
			continue
		}
		select {
		case <-c.ctx.Done():
			return
		case <-proc.Done():
			c.onWorkerDeath(sl, "process exited")
		case <-tick.C:
			hctx, hcancel := context.WithTimeout(c.ctx, c.cfg.HeartbeatEvery)
			err := client.Health(hctx)
			hcancel()
			if c.ctx.Err() != nil {
				return
			}
			if err != nil {
				c.mu.Lock()
				sl.misses++
				misses := sl.misses
				c.mu.Unlock()
				if misses >= c.cfg.HeartbeatMisses {
					_ = proc.Kill()
					c.onWorkerDeath(sl, fmt.Sprintf("missed %d heartbeats", misses))
				}
				continue
			}
			c.mu.Lock()
			sl.misses = 0
			// Sustained health repays the restart budget: the budget exists
			// to stop crash loops, not to retire a slot for sporadic
			// crashes spread over a long uptime.
			if sl.restarts > 0 && time.Since(sl.lastRespawn) > c.healthyResetAfter() {
				sl.restarts = 0
			}
			c.mu.Unlock()
			c.reconcile(sl, client)
			c.triggerPlacement()
		}
	}
}

// onWorkerDeath marks the slot dead and orphans its sessions; the
// supervisor loop respawns and replaces them.
func (c *Coordinator) onWorkerDeath(sl *workerSlot, reason string) {
	c.mu.Lock()
	if c.closed || !sl.alive {
		c.mu.Unlock()
		return
	}
	sl.alive = false
	sl.misses = 0
	client := sl.client
	orphaned := 0
	for _, cs := range c.sessions {
		if cs.worker == sl.slot && cs.state == sessionAssigned {
			cs.worker = -1
			cs.state = sessionOrphaned
			orphaned++
		}
	}
	c.journalLocked(journalRecord{Op: jopDown, Slot: sl.slot})
	c.mu.Unlock()
	c.epoch.Add(1)
	client.CloseIdle()
	c.cfg.Logf("cluster: worker %d died (%s), %d sessions orphaned", sl.slot, reason, orphaned)
}

// respawn replaces a dead worker within the slot's restart budget. It
// returns false when the supervisor should exit (shutdown or retirement).
func (c *Coordinator) respawn(sl *workerSlot) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	if sl.restarts >= c.cfg.MaxRestarts {
		sl.retired = true
		c.journalLocked(journalRecord{Op: jopRetire, Slot: sl.slot})
		c.mu.Unlock()
		c.cfg.Logf("cluster: worker %d exceeded %d restarts, slot retired", sl.slot, c.cfg.MaxRestarts)
		c.triggerPlacement() // survivors absorb whatever the slot still owed
		return false
	}
	sl.restarts++
	sl.lastRespawn = time.Now()
	c.mu.Unlock()
	c.restarts.Add(1)

	select {
	case <-c.ctx.Done():
		return false
	case <-time.After(c.cfg.RespawnBackoff):
	}
	proc, err := c.cfg.Spawn(c.ctx, c.spawnOpts(sl.slot))
	if err != nil {
		if c.ctx.Err() != nil {
			return false
		}
		c.cfg.Logf("cluster: respawning worker %d: %v", sl.slot, err)
		return true // loop retries against the restart budget
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = proc.Kill()
		return false
	}
	sl.proc = proc
	sl.client = NewWorkerClient(proc.URL()).WithObs(c.obs)
	sl.alive = true
	c.journalLocked(journalRecord{Op: jopWorker, Slot: sl.slot, URL: proc.URL(), PID: proc.PID()})
	c.mu.Unlock()
	c.epoch.Add(1) // the slot's URL changed; cached owners must re-resolve
	c.cfg.Logf("cluster: worker %d respawned (pid %d)", sl.slot, proc.PID())
	c.triggerPlacement()
	return true
}

// reconcile compares the registry against what the worker actually
// hosts, in both directions. Registry->worker: a session the registry
// believes assigned but the worker no longer runs failed worker-side
// (dead channel, exhausted rounds) — not reassigned, a deterministic
// failure recurs anywhere. Worker->registry: a session the worker hosts
// but the registry doesn't place there is a stray (a close whose RPC
// never landed, or the late survivor of a timed-out assign retried on
// another worker) — closed so it can't bank key material or hold a
// capacity slot off the books.
func (c *Coordinator) reconcile(sl *workerSlot, client *WorkerClient) {
	sctx, cancel := context.WithTimeout(c.ctx, c.cfg.HeartbeatEvery)
	st, err := client.Stats(sctx)
	cancel()
	if err != nil {
		return // the heartbeat path handles unreachable workers
	}
	grace := 2 * c.cfg.HeartbeatEvery
	var strays []uint64
	c.mu.Lock()
	for _, cs := range c.sessions {
		if cs.worker != sl.slot || cs.state != sessionAssigned {
			continue
		}
		if time.Since(cs.placedAt) < grace {
			continue
		}
		if _, ok := st.Sessions[cs.id]; !ok {
			cs.state = sessionFailed
			cs.worker = -1
			c.failed.Add(1)
			c.epoch.Add(1)
			c.journalLocked(journalRecord{Op: jopFail, ID: cs.id})
			c.cfg.Logf("cluster: session %d lost on live worker %d, marked failed", cs.id, sl.slot)
		}
	}
	for cid := range st.Sessions {
		cs, ok := c.sessions[cid]
		if !ok || (cs.state == sessionAssigned && cs.worker != sl.slot) {
			// Placing sessions are skipped: their assign may legitimately
			// be landing on this worker right now.
			strays = append(strays, cid)
		}
	}
	c.mu.Unlock()
	for _, cid := range strays {
		// Re-check right before acting: a placement may have legitimately
		// landed the session on this worker since the stats snapshot.
		c.mu.Lock()
		cs, ok := c.sessions[cid]
		legit := ok && (cs.state == sessionPlacing ||
			(cs.state == sessionAssigned && cs.worker == sl.slot))
		c.mu.Unlock()
		if legit {
			continue
		}
		cctx, ccancel := context.WithTimeout(c.ctx, c.cfg.HeartbeatEvery)
		err := client.Close(cctx, cid)
		ccancel()
		if err == nil {
			c.cfg.Logf("cluster: closed stray session %d on worker %d", cid, sl.slot)
		}
	}
}

// pickSlotLocked returns the least-loaded live slot with capacity left,
// skipping tried ones. Ties break toward the lower slot, which keeps
// placement deterministic. In-flight placements count toward load so
// concurrent creates don't all pile onto one slot. Caller holds c.mu.
func (c *Coordinator) pickSlotLocked(tried map[int]bool) (*workerSlot, *WorkerClient) {
	load := make(map[int]int, len(c.slots))
	for _, cs := range c.sessions {
		if (cs.state == sessionAssigned || cs.state == sessionPlacing) && cs.worker >= 0 {
			load[cs.worker]++
		}
	}
	var best *workerSlot
	for _, sl := range c.slots {
		if !sl.alive || tried[sl.slot] || load[sl.slot] >= c.cfg.WorkerCapacity {
			continue
		}
		if best == nil || load[sl.slot] < load[best.slot] {
			best = sl
		}
	}
	if best == nil {
		return nil, nil
	}
	return best, best.client
}

// placeSession assigns cs — which the caller must have moved to
// sessionPlacing, the exclusive claim — to a worker, trying slots
// least-loaded-first until one accepts. On success the session is
// assigned; on error the claim is released to releaseTo (orphaned for
// reassignment retries, closed when the caller deletes the entry on
// failure — so a concurrent placer can never resurrect it). The
// assigned state is only entered after the worker's RPC succeeded AND
// the slot is still alive, so a session the registry calls assigned is
// really hosted. reassign marks placements that replace a lost worker
// (counted, and the session's key stream restarts from its seed).
func (c *Coordinator) placeSession(cs *clusterSession, reassign bool, releaseTo string) error {
	release := func(err error) error {
		if cs.state == sessionPlacing { // caller holds c.mu
			cs.state = releaseTo
			cs.worker = -1
		}
		return err
	}
	tried := make(map[int]bool)
	for {
		c.mu.Lock()
		if cs.state != sessionPlacing {
			// The claim was taken away (e.g. the session was closed).
			c.mu.Unlock()
			return nil
		}
		if c.closed {
			err := release(ErrShutdown)
			c.mu.Unlock()
			return err
		}
		sl, client := c.pickSlotLocked(tried)
		if sl == nil {
			err := release(ErrNoWorkers)
			c.mu.Unlock()
			return err
		}
		cs.worker = sl.slot
		proc := sl.proc // pinned: a respawn swaps it, invalidating the assign
		id, spec := cs.id, cs.spec
		c.mu.Unlock()

		actx, cancel := context.WithTimeout(c.ctx, 15*time.Second)
		_, err := client.Assign(actx, id, spec)
		cancel()
		if err == nil || errors.Is(err, ErrDuplicate) {
			// Duplicate means a previous assign landed but its response was
			// lost — the session is where the registry says it is.
			c.mu.Lock()
			claimed := cs.state == sessionPlacing
			if claimed && (!sl.alive || sl.proc != proc) {
				// The worker died while the assign was in flight (a swapped
				// proc means it died AND was already replaced — the fresh
				// process hosts nothing). The hosted copy died with it; keep
				// the claim and try another slot.
				cs.worker = -1
				c.mu.Unlock()
				tried[sl.slot] = true
				continue
			}
			if claimed {
				cs.state = sessionAssigned
				cs.placedAt = time.Now()
				if reassign {
					cs.reassigns++
				}
				c.journalLocked(journalRecord{Op: jopPlace, ID: cs.id, Slot: sl.slot, Reassign: reassign})
			}
			c.mu.Unlock()
			if claimed {
				c.epoch.Add(1)
			}
			if !claimed {
				// The session was closed while the assign was in flight:
				// don't strand an untracked copy on the worker.
				uctx, ucancel := context.WithTimeout(context.Background(), 10*time.Second)
				_ = client.Close(uctx, id)
				ucancel()
				return nil
			}
			if reassign {
				c.reassigned.Add(1)
			}
			return nil
		}
		if c.ctx.Err() != nil {
			// Shutdown cancelled the RPC, not the worker rejecting it.
			c.mu.Lock()
			err := release(ErrShutdown)
			c.mu.Unlock()
			return err
		}
		// A deadline on the assign RPC itself is a slow worker, not a spec
		// rejection: try elsewhere (reconcile's stray GC reaps the copy if
		// the slow assign lands later).
		retryable := errors.Is(err, ErrUnreachable) || errors.Is(err, service.ErrSaturated) ||
			errors.Is(err, ErrDraining) || errors.Is(err, context.DeadlineExceeded)
		c.mu.Lock()
		if cs.worker == sl.slot {
			cs.worker = -1
		}
		if !retryable {
			err = release(err) // spec rejection: no worker would accept it
			c.mu.Unlock()
			return err
		}
		c.mu.Unlock()
		tried[sl.slot] = true
	}
}

// placeOrphans re-places every orphaned session on live capacity. Safe
// to call from any supervisor: the claim (orphaned -> placing) happens
// inside one critical section, so two concurrent callers can never
// place the same session twice.
func (c *Coordinator) placeOrphans() {
	for {
		c.mu.Lock()
		var cs *clusterSession
		for _, s := range c.sessions {
			if s.state == sessionOrphaned {
				cs = s
				cs.state = sessionPlacing // claim before releasing the lock
				break
			}
		}
		c.mu.Unlock()
		if cs == nil {
			return
		}
		if err := c.placeSession(cs, true, sessionOrphaned); err != nil {
			if !errors.Is(err, ErrNoWorkers) && !errors.Is(err, ErrShutdown) {
				c.mu.Lock()
				cs.state = sessionFailed
				c.journalLocked(journalRecord{Op: jopFail, ID: cs.id})
				c.mu.Unlock()
				c.failed.Add(1)
				c.cfg.Logf("cluster: reassigning session %d failed permanently: %v", cs.id, err)
				continue
			}
			return // no capacity right now; the next heartbeat retries
		}
		c.mu.Lock()
		slot := cs.worker
		c.mu.Unlock()
		c.cfg.Logf("cluster: session %d reassigned to worker %d", cs.id, slot)
	}
}

// Create admits a cluster session and places it on the least-loaded
// worker. The tier runs real sockets, so UDP is forced in the spec —
// unless the spec asks for a Streamed session, which keeps the worker's
// in-process bus so the session's keystream stays offset-addressable
// (and re-reads byte-identical after a reassignment re-derives it).
func (c *Coordinator) Create(spec service.SessionSpec) (SessionInfo, error) {
	if !spec.Streamed {
		spec.UDP = true
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return SessionInfo{}, ErrShutdown
	}
	id := c.nextID
	c.nextID++
	// Born already claimed (placing, not orphaned): a concurrent
	// placeOrphans pass must never see — and race Create for — a session
	// whose first placement is still in flight.
	cs := &clusterSession{id: id, spec: spec, worker: -1, state: sessionPlacing, derivation: keystream.DerivationVersion}
	c.sessions[id] = cs
	c.journalLocked(journalRecord{Op: jopCreate, ID: id, Spec: &spec, Derivation: keystream.DerivationVersion})
	c.mu.Unlock()

	// On error the claim is released straight to sessionClosed — never
	// orphaned — so a concurrent placeOrphans pass cannot resurrect a
	// session whose creation the caller was told failed.
	if err := c.placeSession(cs, false, sessionClosed); err != nil {
		c.mu.Lock()
		delete(c.sessions, id)
		c.journalLocked(journalRecord{Op: jopClose, ID: id})
		c.mu.Unlock()
		return SessionInfo{}, err
	}
	c.created.Add(1)
	return c.infoOf(cs), nil
}

// lookup returns the registry entry, a state snapshot, and the owner's
// client (nil while orphaned or failed).
func (c *Coordinator) lookup(cid uint64) (cs *clusterSession, client *WorkerClient, state string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.sessions[cid]
	if !ok {
		return nil, nil, "", fmt.Errorf("%w: %d", ErrNotFound, cid)
	}
	if cs.state != sessionAssigned {
		return cs, nil, cs.state, nil
	}
	for _, sl := range c.slots {
		if sl.slot == cs.worker {
			return cs, sl.client, cs.state, nil
		}
	}
	return cs, nil, cs.state, nil
}

// Draw routes a key draw to the worker owning the session.
func (c *Coordinator) Draw(ctx context.Context, cid uint64, n int) ([]byte, error) {
	return c.routeKeyRead(cid, func(client *WorkerClient) ([]byte, error) {
		return client.Draw(ctx, cid, n)
	})
}

// StreamRange routes a bulk stream-range read to the worker owning the
// session (the worker serves it from the session's keystream or, for the
// UDP sessions the coordinator creates, the consuming bulk-draw fallback).
func (c *Coordinator) StreamRange(ctx context.Context, cid uint64, off, n int64) ([]byte, error) {
	return c.routeKeyRead(cid, func(client *WorkerClient) ([]byte, error) {
		return client.StreamRange(ctx, cid, off, n)
	})
}

// StreamRangeTo routes a bulk stream-range read like StreamRange but
// pipes the worker's body into w as it arrives, so the coordinator never
// holds the range in memory (the routed HTTP handler's path). Returns the
// bytes written: 0 when the worker rejected the read, possibly short with
// an error when the body failed mid-stream.
func (c *Coordinator) StreamRangeTo(ctx context.Context, cid uint64, off, n int64, w io.Writer) (int64, error) {
	var written int64
	_, err := c.routeKeyRead(cid, func(client *WorkerClient) ([]byte, error) {
		var cerr error
		written, cerr = client.StreamRangeTo(ctx, cid, off, n, w)
		return nil, cerr
	})
	return written, err
}

// routeKeyRead resolves a session's owner and runs one key-material RPC
// against it, sharing the orphan/condemn bookkeeping between the draw and
// stream paths.
func (c *Coordinator) routeKeyRead(cid uint64, call func(*WorkerClient) ([]byte, error)) ([]byte, error) {
	cs, client, state, err := c.lookup(cid)
	if err != nil {
		return nil, err
	}
	if client == nil {
		if state == sessionFailed {
			if cs.failure != "" {
				return nil, fmt.Errorf("session %d failed: %s: %w", cid, cs.failure, service.ErrFailed)
			}
			return nil, fmt.Errorf("session %d died permanently: %w", cid, service.ErrFailed)
		}
		return nil, fmt.Errorf("%w: session %d", ErrOrphaned, cid)
	}
	key, err := call(client)
	if errors.Is(err, ErrNotFound) || errors.Is(err, service.ErrFailed) {
		c.mu.Lock()
		if cs.state == sessionAssigned {
			if time.Since(cs.placedAt) < 2*c.cfg.HeartbeatEvery {
				// Same grace reconcile uses: a read racing a just-landed
				// assignment must not condemn a healthy session.
				c.mu.Unlock()
				return nil, fmt.Errorf("%w: session %d settling on its worker", ErrOrphaned, cid)
			}
			// The worker no longer hosts it: failed worker-side since the
			// last reconcile pass.
			cs.state = sessionFailed
			cs.worker = -1
			c.failed.Add(1)
			c.epoch.Add(1)
			c.journalLocked(journalRecord{Op: jopFail, ID: cs.id})
		}
		c.mu.Unlock()
	}
	return key, err
}

// CloseSession gracefully stops one cluster session tier-wide.
func (c *Coordinator) CloseSession(ctx context.Context, cid uint64) error {
	cs, client, _, err := c.lookup(cid)
	if err != nil {
		return err
	}
	if client != nil {
		if err := client.Close(ctx, cid); err != nil && !errors.Is(err, ErrNotFound) &&
			!errors.Is(err, ErrUnreachable) && !errors.Is(err, service.ErrFailed) {
			return err
		}
	}
	c.mu.Lock()
	cs.state = sessionClosed // an in-flight placement sees this and undoes itself
	delete(c.sessions, cs.id)
	c.journalLocked(journalRecord{Op: jopClose, ID: cs.id})
	c.mu.Unlock()
	c.removed.Add(1)
	c.epoch.Add(1)
	return nil
}

// SessionInfo is the coordinator's view of one cluster session, plus the
// owning worker's live metrics when reachable.
type SessionInfo struct {
	ID        uint64                  `json:"id"`
	Name      string                  `json:"name,omitempty"`
	Worker    int                     `json:"worker"` // slot, -1 while orphaned/failed
	State     string                  `json:"state"`
	Reassigns int                     `json:"reassigns"`
	Metrics   *service.SessionMetrics `json:"metrics,omitempty"`
}

// infoOf snapshots one registry entry under the lock.
func (c *Coordinator) infoOf(cs *clusterSession) SessionInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SessionInfo{
		ID:        cs.id,
		Name:      cs.spec.Name,
		Worker:    cs.worker,
		State:     cs.state,
		Reassigns: cs.reassigns,
	}
}

// Session returns one session's info with live metrics from its worker.
func (c *Coordinator) Session(ctx context.Context, cid uint64) (SessionInfo, error) {
	cs, client, _, err := c.lookup(cid)
	if err != nil {
		return SessionInfo{}, err
	}
	info := c.infoOf(cs)
	if client != nil {
		if m, err := client.Metrics(ctx, cid); err == nil {
			info.Metrics = &m
		}
	}
	return info, nil
}

// Sessions lists every cluster session, with live metrics fetched from
// each live worker (one stats RPC per worker).
func (c *Coordinator) Sessions(ctx context.Context) []SessionInfo {
	c.mu.Lock()
	clients := make(map[int]*WorkerClient)
	for _, sl := range c.slots {
		if sl.alive {
			clients[sl.slot] = sl.client
		}
	}
	c.mu.Unlock()

	metrics := make(map[uint64]service.SessionMetrics)
	var mmu sync.Mutex
	var wg sync.WaitGroup
	for _, client := range clients {
		wg.Add(1)
		go func(cl *WorkerClient) {
			defer wg.Done()
			st, err := cl.Stats(ctx)
			if err != nil {
				return
			}
			mmu.Lock()
			for cid, m := range st.Sessions {
				metrics[cid] = m
			}
			mmu.Unlock()
		}(client)
	}
	wg.Wait()

	c.mu.Lock()
	out := make([]SessionInfo, 0, len(c.sessions))
	for _, cs := range c.sessions {
		info := SessionInfo{
			ID:        cs.id,
			Name:      cs.spec.Name,
			Worker:    cs.worker,
			State:     cs.state,
			Reassigns: cs.reassigns,
		}
		if m, ok := metrics[cs.id]; ok {
			m := m
			info.Metrics = &m
		}
		out = append(out, info)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WorkerInfo is the coordinator's view of one worker slot.
type WorkerInfo struct {
	Slot     int    `json:"slot"`
	PID      int    `json:"pid"`
	URL      string `json:"url"`
	Alive    bool   `json:"alive"`
	Retired  bool   `json:"retired"`
	Restarts int    `json:"restarts"`
	Sessions int    `json:"sessions"`
}

// ClusterMetrics is the tier-wide snapshot.
type ClusterMetrics struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Workers       []WorkerInfo `json:"workers"`
	WorkersAlive  int          `json:"workers_alive"`
	Sessions      int          `json:"sessions"`
	Orphaned      int          `json:"orphaned"`
	Created       int64        `json:"created_total"`
	Removed       int64        `json:"removed_total"`
	Failed        int64        `json:"failed_total"`
	Reassigned    int64        `json:"reassigned_total"`
	Restarts      int64        `json:"worker_restarts_total"`
}

// Metrics snapshots the cluster.
func (c *Coordinator) Metrics() ClusterMetrics {
	m := ClusterMetrics{
		UptimeSeconds: time.Since(c.start).Seconds(),
		Created:       c.created.Load(),
		Removed:       c.removed.Load(),
		Failed:        c.failed.Load(),
		Reassigned:    c.reassigned.Load(),
		Restarts:      c.restarts.Load(),
	}
	c.mu.Lock()
	load := make(map[int]int)
	for _, cs := range c.sessions {
		if cs.state == sessionOrphaned {
			m.Orphaned++
		}
		if cs.state == sessionAssigned && cs.worker >= 0 {
			load[cs.worker]++
		}
	}
	m.Sessions = len(c.sessions)
	for _, sl := range c.slots {
		wi := WorkerInfo{
			Slot:     sl.slot,
			Alive:    sl.alive,
			Retired:  sl.retired,
			Restarts: sl.restarts,
			Sessions: load[sl.slot],
		}
		if sl.proc != nil {
			wi.PID = sl.proc.PID()
			wi.URL = sl.proc.URL()
		}
		if sl.alive {
			m.WorkersAlive++
		}
		m.Workers = append(m.Workers, wi)
	}
	c.mu.Unlock()
	return m
}

// aliveClients snapshots the clients of live workers under the lock so
// fan-out RPCs never hold c.mu across the network.
func (c *Coordinator) aliveClients() []*WorkerClient {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*WorkerClient, 0, len(c.slots))
	for _, sl := range c.slots {
		if sl.alive {
			out = append(out, sl.client)
		}
	}
	return out
}

// FleetSnapshot merges the coordinator's own registry with a scrape of
// every live worker's registry into one fleet-wide view: counters and
// gauges sum, histograms merge bucket-wise so fleet quantiles come from
// the combined distribution rather than an average of averages. Workers
// that fail to answer within ctx are skipped — the fleet view is
// best-effort by design; a dead worker has no registry to scrape.
func (c *Coordinator) FleetSnapshot(ctx context.Context) obs.Snapshot {
	fleet := c.obs.Snapshot()
	clients := c.aliveClients()
	snaps := make([]obs.Snapshot, len(clients))
	oks := make([]bool, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *WorkerClient) {
			defer wg.Done()
			snap, err := cl.ObsSnapshot(ctx)
			if err != nil {
				return
			}
			snaps[i], oks[i] = snap, true
		}(i, cl)
	}
	wg.Wait()
	for i := range snaps {
		if oks[i] {
			fleet.Merge(snaps[i])
		}
	}
	return fleet
}

// FleetTrace merges the coordinator's span ring with every live
// worker's, time-sorted, so one draw's record reads as a single chain
// edge → worker → engine. span narrows to one id; "" returns recent
// events from every tier.
func (c *Coordinator) FleetTrace(ctx context.Context, span string) []obs.SpanEvent {
	var evs []obs.SpanEvent
	if span != "" {
		evs = c.spans.Span(span)
	} else {
		evs = c.spans.Recent(64)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, cl := range c.aliveClients() {
		wg.Add(1)
		go func(cl *WorkerClient) {
			defer wg.Done()
			wevs, err := cl.Trace(ctx, span)
			if err != nil {
				return
			}
			mu.Lock()
			evs = append(evs, wevs...)
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	sort.Slice(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	return evs
}

// Shutdown stops the tier: supervision halts (worker exits during
// shutdown are expected, not crashes), every worker drains — zeroizing
// every pool — and every worker process is reaped. ctx bounds the whole
// drain; stragglers are killed when it expires.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	procs := make([]WorkerProc, 0, len(c.slots))
	clients := make([]*WorkerClient, 0, len(c.slots))
	for _, sl := range c.slots {
		if sl.proc != nil {
			procs = append(procs, sl.proc)
			if sl.alive {
				clients = append(clients, sl.client)
			} else {
				clients = append(clients, nil)
			}
		}
	}
	c.mu.Unlock()

	c.cancel()
	c.wg.Wait()

	var dwg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for i := range procs {
		dwg.Add(1)
		go func(proc WorkerProc, client *WorkerClient) {
			defer dwg.Done()
			if client != nil {
				// Drain first: the worker zeroizes every pool, then exits on
				// its own; Stop only mops up.
				if err := client.Drain(ctx); err != nil && !errors.Is(err, ErrUnreachable) {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
			if err := proc.Stop(ctx); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(procs[i], clients[i])
	}
	dwg.Wait()
	c.mu.Lock()
	for _, sl := range c.slots {
		sl.client.CloseIdle()
	}
	c.mu.Unlock()
	if c.jnl != nil {
		// A drained tier has nothing to recover: cut a final snapshot so
		// the next boot sees the (empty of live workers) truth instead of
		// re-probing URLs of processes that just exited.
		c.mu.Lock()
		c.jnl.compact(c.persistStateLocked())
		c.mu.Unlock()
		c.jnl.close()
	}
	return firstErr
}

// Abandon stops the coordinator without draining or stopping its
// workers — the crash-shaped exit. Supervision halts, the journal file
// is released, and every worker process is left running exactly as a
// SIGKILLed coordinator would leave it; a successor built on the same
// StateDir re-adopts them. This is the in-process stand-in for kill -9
// used by restart tests; production crash recovery needs no call here
// (the journal is fsynced on every append).
func (c *Coordinator) Abandon() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.cancel()
	c.wg.Wait()
	if c.jnl != nil {
		c.jnl.close()
	}
}

// Uptime reports how long the coordinator has been running.
func (c *Coordinator) Uptime() time.Duration { return time.Since(c.start) }

// OwnerInfo is one session→worker ownership fact: which worker slot
// hosts the session and the /ctl base URL a gate dials to reach it
// directly. URL is empty unless the session is assigned to a live
// worker (orphaned/placing/failed sessions have no reachable owner).
type OwnerInfo struct {
	Session uint64 `json:"session"`
	Worker  int    `json:"worker"`
	URL     string `json:"url,omitempty"`
	State   string `json:"state"`
}

// OwnerMap is the full ownership snapshot plus the epoch it was taken
// at. A gate caches the entries and re-pulls only when OwnersEpoch
// moves past the cached value.
type OwnerMap struct {
	Epoch  uint64      `json:"epoch"`
	Owners []OwnerInfo `json:"owners"`
}

// OwnersEpoch returns the current ownership-map revision. It bumps on
// every transition that changes which worker (or URL) serves which
// session: placement, worker death, respawn, close, and failure.
func (c *Coordinator) OwnersEpoch() uint64 { return c.epoch.Load() }

// ownerInfoLocked builds one session's OwnerInfo. Caller holds c.mu.
func (c *Coordinator) ownerInfoLocked(cs *clusterSession) OwnerInfo {
	oi := OwnerInfo{Session: cs.id, Worker: cs.worker, State: cs.state}
	if cs.state == sessionAssigned {
		for _, sl := range c.slots {
			if sl.slot == cs.worker && sl.alive && sl.proc != nil {
				oi.URL = sl.proc.URL()
			}
		}
	}
	return oi
}

// Owner resolves one session's current owner — the gate's cache-miss
// path. ErrNotFound for unknown ids; known sessions always resolve,
// with an empty URL while no live worker hosts them.
func (c *Coordinator) Owner(cid uint64) (OwnerInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.sessions[cid]
	if !ok {
		return OwnerInfo{}, fmt.Errorf("%w: %d", ErrNotFound, cid)
	}
	return c.ownerInfoLocked(cs), nil
}

// Owners snapshots the whole ownership map, id-sorted. The epoch is
// read before the map is built, so a gate that caches this snapshot at
// its epoch can only ever be stale-and-detectably-so, never
// fresher-than-the-epoch-claims.
func (c *Coordinator) Owners() OwnerMap {
	epoch := c.epoch.Load()
	c.mu.Lock()
	out := make([]OwnerInfo, 0, len(c.sessions))
	for _, cs := range c.sessions {
		out = append(out, c.ownerInfoLocked(cs))
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	return OwnerMap{Epoch: epoch, Owners: out}
}
