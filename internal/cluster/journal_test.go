package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/keystream"
	"repro/internal/obs"
	"repro/internal/service"
)

// streamedSpec is fastSpec kept on the in-process bus so the keystream
// stays offset-addressable: repeatable reads are what lets a test prove
// an adopted session serves byte-identical ranges.
func streamedSpec(seed int64) service.SessionSpec {
	sp := fastSpec(seed)
	sp.Streamed = true
	return sp
}

// TestJournalReplay pins the journal's round trip: every record kind
// applied on replay reproduces the state the coordinator recorded.
func TestJournalReplay(t *testing.T) {
	dir := t.TempDir()
	j, state, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if state != nil {
		t.Fatalf("fresh dir replayed state: %+v", state)
	}
	spec := fastSpec(42)
	recs := []journalRecord{
		{Op: jopWorker, Slot: 0, URL: "http://127.0.0.1:1", PID: 11, Epoch: 1},
		{Op: jopWorker, Slot: 1, URL: "http://127.0.0.1:2", PID: 12, Epoch: 2},
		{Op: jopCreate, ID: 1, Spec: &spec, Derivation: keystream.DerivationVersion, Epoch: 2},
		{Op: jopPlace, ID: 1, Slot: 0, Epoch: 3},
		{Op: jopCreate, ID: 2, Spec: &spec, Derivation: keystream.DerivationVersion, Epoch: 3},
		{Op: jopPlace, ID: 2, Slot: 1, Epoch: 4},
		{Op: jopCreate, ID: 3, Spec: &spec, Derivation: keystream.DerivationVersion, Epoch: 4},
		{Op: jopPlace, ID: 3, Slot: 1, Epoch: 5},
		{Op: jopDown, Slot: 1, Epoch: 6},                         // orphans 2 and 3
		{Op: jopPlace, ID: 2, Slot: 0, Reassign: true, Epoch: 7}, // re-placed
		{Op: jopFail, ID: 3, Epoch: 8},                           // died permanently
		{Op: jopWorker, Slot: 1, URL: "http://127.0.0.1:3", PID: 13, Epoch: 9},
		{Op: jopCreate, ID: 4, Spec: &spec, Derivation: keystream.DerivationVersion, Epoch: 9},
		{Op: jopClose, ID: 4, Epoch: 10},
		{Op: jopRetire, Slot: 0, Epoch: 11},
	}
	for _, rec := range recs {
		j.append(rec)
	}
	j.close()

	_, rs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs == nil {
		t.Fatal("journaled dir replayed as fresh")
	}
	if rs.nextID != 5 {
		t.Fatalf("nextID = %d, want 5", rs.nextID)
	}
	if rs.epoch != 11 {
		t.Fatalf("epoch = %d, want 11", rs.epoch)
	}
	if len(rs.sessions) != 3 {
		t.Fatalf("replayed %d sessions, want 3 (closed one must be gone)", len(rs.sessions))
	}
	if s := rs.sessions[1]; s == nil || s.State != sessionAssigned || s.Worker != 0 || s.Reassigns != 0 {
		t.Fatalf("session 1 replayed wrong: %+v", s)
	}
	if s := rs.sessions[2]; s == nil || s.State != sessionAssigned || s.Worker != 0 || s.Reassigns != 1 {
		t.Fatalf("session 2 replayed wrong: %+v", s)
	}
	if s := rs.sessions[3]; s == nil || s.State != sessionFailed || s.Worker != -1 {
		t.Fatalf("session 3 replayed wrong: %+v", s)
	}
	if w := rs.workers[0]; w == nil || !w.Retired || w.Alive {
		t.Fatalf("worker 0 replayed wrong: %+v", w)
	}
	if w := rs.workers[1]; w == nil || w.Retired || !w.Alive || w.URL != "http://127.0.0.1:3" {
		t.Fatalf("worker 1 replayed wrong: %+v", w)
	}
	if s := rs.sessions[1]; s.Spec.Seed != spec.Seed || s.Spec.Terminals != spec.Terminals {
		t.Fatalf("spec (and its seed) did not survive replay: %+v", s.Spec)
	}
}

// TestJournalCompaction drives the journal past its threshold and
// verifies the snapshot+truncate cycle loses nothing, including a torn
// final line (the on-disk shape of a crash mid-append).
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := fastSpec(7)
	due := false
	for i := 1; i <= snapshotEvery; i++ {
		due = j.append(journalRecord{Op: jopCreate, ID: uint64(i), Spec: &spec, Derivation: keystream.DerivationVersion, Epoch: uint64(i)})
	}
	if !due {
		t.Fatalf("%d appends did not request compaction", snapshotEvery)
	}
	// Compact the way the coordinator would, then keep appending.
	state := persistState{NextID: uint64(snapshotEvery + 1), Epoch: uint64(snapshotEvery)}
	for i := 1; i <= snapshotEvery; i++ {
		state.Sessions = append(state.Sessions, persistedSession{
			ID: uint64(i), Spec: spec, Worker: -1, State: sessionPlacing,
			Derivation: keystream.DerivationVersion,
		})
	}
	j.compact(state)
	if fi, err := os.Stat(j.journalPath()); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not truncated after compaction: %v size=%d", err, fi.Size())
	}
	j.append(journalRecord{Op: jopFail, ID: 3, Epoch: uint64(snapshotEvery + 1)})
	// A torn final line must not poison replay of everything before it.
	f, err := os.OpenFile(j.journalPath(), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"close","id":`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j.close()

	_, rs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs == nil || len(rs.sessions) != snapshotEvery {
		t.Fatalf("replay after compaction lost sessions: %+v", rs)
	}
	if s := rs.sessions[3]; s == nil || s.State != sessionFailed {
		t.Fatalf("post-snapshot journal record lost: %+v", s)
	}
	if s := rs.sessions[4]; s == nil || s.State != sessionPlacing {
		t.Fatalf("snapshot session replayed wrong: %+v", s)
	}
	if rs.nextID != uint64(snapshotEvery+1) || rs.epoch != uint64(snapshotEvery+1) {
		t.Fatalf("nextID/epoch wrong after compaction replay: %d/%d", rs.nextID, rs.epoch)
	}
}

// TestJournalRefusesForeignDerivation pins the derivation-version guard.
// A session recorded under another keystream.DerivationVersion replays
// as failed, with an error that names both versions. This holds whether
// the record is a snapshot entry, a journal record, or a record written
// before the field existed. A coordinator restarted on that state
// refuses the session instead of re-placing it and serving different
// bytes at offsets clients already hold, and still re-places the
// current-version session.
func TestJournalRefusesForeignDerivation(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := fastSpec(5)
	cur, old := keystream.DerivationVersion, keystream.DerivationVersion-1
	j.compact(persistState{NextID: 2, Epoch: 1, Sessions: []persistedSession{
		{ID: 1, Spec: spec, Worker: -1, State: sessionOrphaned, Derivation: old},
	}})
	j.append(journalRecord{Op: jopCreate, ID: 2, Spec: &spec, Derivation: old, Epoch: 2})
	j.append(journalRecord{Op: jopCreate, ID: 3, Spec: &spec, Epoch: 3}) // predates the field
	j.append(journalRecord{Op: jopCreate, ID: 4, Spec: &spec, Derivation: cur, Epoch: 4})
	j.close()

	_, rs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{1, 2, 3} {
		s := rs.sessions[id]
		if s == nil || s.State != sessionFailed || s.Worker != -1 ||
			!strings.Contains(s.Error, fmt.Sprintf("derives version %d", cur)) {
			t.Fatalf("foreign-version session %d replayed as %+v, want failed with a version error", id, s)
		}
	}
	if s := rs.sessions[4]; s == nil || s.State != sessionPlacing || s.Error != "" {
		t.Fatalf("current-version session replayed as %+v", s)
	}

	c, err := New(Config{Workers: 1, HeartbeatEvery: 50 * time.Millisecond, StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := c.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ctx := context.Background()
	_, err = c.Draw(ctx, 2, 8)
	if !errors.Is(err, service.ErrFailed) || !strings.Contains(err.Error(), fmt.Sprintf("derivation version %d", old)) {
		t.Fatalf("draw from a foreign-version session: err = %v, want ErrFailed naming version %d", err, old)
	}
	waitFor(t, 60*time.Second, "current-version session to serve after restart", func() bool {
		_, err := c.Draw(ctx, 4, 8)
		return err == nil
	})
}

// TestCoordinatorRestartAdoptsWorkers is the in-process restart chaos
// test: a coordinator with a state dir is abandoned crash-style (no
// drain, workers left running), and its successor on the same dir must
// re-adopt every surviving worker — zero spawns, zero reassignments,
// byte-identical stream ranges from the very same live sessions — while
// a permanently failed session stays failed across the restart.
func TestCoordinatorRestartAdoptsWorkers(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Config{
		Workers:        2,
		HeartbeatEvery: 50 * time.Millisecond,
		StateDir:       dir,
		Obs:            obs.New(),
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const n = 4
	var ids []uint64
	for i := 0; i < n; i++ {
		info, err := c1.Create(streamedSpec(int64(1000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	// One deterministically doomed session: the failure verdict must
	// survive the restart too.
	dead := fastSpec(99)
	dead.Erasure = 0.999
	dead.XPerRound = 4
	dead.LowWater = 64
	dead.TargetDepth = 128
	deadInfo, err := c1.Create(dead)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 90*time.Second, "doomed session to fail", func() bool {
		_, err := c1.Draw(ctx, deadInfo.ID, 8)
		return errors.Is(err, service.ErrFailed)
	})

	refs := make([][]byte, n)
	for i, id := range ids {
		id := id
		waitFor(t, 60*time.Second, fmt.Sprintf("stream range from session %d", id), func() bool {
			key, err := c1.StreamRange(ctx, id, 0, 512)
			if err != nil {
				return false
			}
			refs[i] = key
			return true
		})
	}
	epochBefore := c1.OwnersEpoch()
	c1.Abandon() // crash-shaped: workers keep running

	// The successor must adopt, never spawn: a spawn attempt is the
	// failure.
	c2, err := New(Config{
		Workers:        2,
		HeartbeatEvery: 50 * time.Millisecond,
		StateDir:       dir,
		Obs:            obs.New(),
		Logf:           t.Logf,
		Spawn: func(context.Context, WorkerSpawnOpts) (WorkerProc, error) {
			return nil, errors.New("restart with surviving workers must adopt, not spawn")
		},
	})
	if err != nil {
		t.Fatalf("restart from journal: %v", err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := c2.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	if got := c2.adopted.Load(); got != n {
		t.Fatalf("adopted %d sessions, want %d", got, n)
	}
	if e := c2.OwnersEpoch(); e <= epochBefore {
		t.Fatalf("ownership epoch did not advance across restart: %d -> %d", epochBefore, e)
	}
	if cm := c2.Metrics(); cm.Restarts != 0 || cm.Reassigned != 0 {
		t.Fatalf("restart respawned/reassigned surviving sessions: %+v", cm)
	}
	for i, id := range ids {
		info, err := c2.Session(ctx, id)
		if err != nil {
			t.Fatalf("session %d after restart: %v", id, err)
		}
		if info.State != sessionAssigned || info.Reassigns != 0 {
			t.Fatalf("session %d not cleanly adopted: %+v", id, info)
		}
		got, err := c2.StreamRange(ctx, id, 0, 512)
		if err != nil {
			t.Fatalf("stream range from adopted session %d: %v", id, err)
		}
		if !bytes.Equal(got, refs[i]) {
			t.Fatalf("adopted session %d served different bytes for the same range", id)
		}
	}
	// Failure memory: the dead session answers failed, not not-found.
	if _, err := c2.Draw(ctx, deadInfo.ID, 8); !errors.Is(err, service.ErrFailed) {
		t.Fatalf("failed session after restart: err = %v, want ErrFailed", err)
	}
	// The id space must not rewind: a fresh create gets a fresh id.
	info, err := c2.Create(streamedSpec(777))
	if err != nil {
		t.Fatal(err)
	}
	if info.ID <= deadInfo.ID {
		t.Fatalf("id space rewound after restart: new id %d <= old id %d", info.ID, deadInfo.ID)
	}
}

// TestCoordinatorRestartRespawnsOnlyTheDead kills one of two workers
// between crash and restart: the successor must adopt the survivor
// (and its sessions) while spawning exactly one replacement and
// re-placing only the dead worker's sessions — which still serve
// byte-identical ranges, re-derived from their journaled seeds.
func TestCoordinatorRestartRespawnsOnlyTheDead(t *testing.T) {
	dir := t.TempDir()
	base := InProcess(nil)
	procs := make(map[int]WorkerProc)
	c1, err := New(Config{
		Workers:        2,
		HeartbeatEvery: 50 * time.Millisecond,
		StateDir:       dir,
		Obs:            obs.New(),
		Logf:           t.Logf,
		Spawn: func(ctx context.Context, opts WorkerSpawnOpts) (WorkerProc, error) {
			p, err := base(ctx, opts)
			if err == nil {
				procs[opts.Slot] = p
			}
			return p, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const n = 4
	ids := make([]uint64, 0, n)
	bySlot := make(map[uint64]int)
	refs := make(map[uint64][]byte)
	for i := 0; i < n; i++ {
		info, err := c1.Create(streamedSpec(int64(2000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		bySlot[info.ID] = info.Worker
	}
	for _, id := range ids {
		id := id
		waitFor(t, 60*time.Second, fmt.Sprintf("stream range from session %d", id), func() bool {
			key, err := c1.StreamRange(ctx, id, 0, 256)
			if err != nil {
				return false
			}
			refs[id] = key
			return true
		})
	}
	c1.Abandon()
	_ = procs[1].Kill() // this worker does not survive the outage

	spawns := 0
	c2, err := New(Config{
		Workers:        2,
		HeartbeatEvery: 50 * time.Millisecond,
		StateDir:       dir,
		Obs:            obs.New(),
		Logf:           t.Logf,
		Spawn: func(ctx context.Context, opts WorkerSpawnOpts) (WorkerProc, error) {
			spawns++
			return base(ctx, opts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = c2.Shutdown(sctx)
	}()

	if spawns != 1 {
		t.Fatalf("spawned %d workers, want exactly 1 (the dead slot)", spawns)
	}
	survivors, lost := 0, 0
	for _, id := range ids {
		if bySlot[id] == 0 {
			survivors++
		} else {
			lost++
		}
	}
	if got := c2.adopted.Load(); got != int64(survivors) {
		t.Fatalf("adopted %d sessions, want %d (the survivor's)", got, survivors)
	}
	// Every session — adopted or re-placed — must serve the same bytes.
	for _, id := range ids {
		id := id
		waitFor(t, 60*time.Second, fmt.Sprintf("session %d after partial recovery", id), func() bool {
			got, err := c2.StreamRange(ctx, id, 0, 256)
			return err == nil && bytes.Equal(got, refs[id])
		})
		info, err := c2.Session(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		wantReassigns := 0
		if bySlot[id] != 0 {
			wantReassigns = 1
		}
		if info.Reassigns != wantReassigns {
			t.Fatalf("session %d reassigns = %d, want %d", id, info.Reassigns, wantReassigns)
		}
	}
	if lost > 0 {
		if cm := c2.Metrics(); cm.Reassigned != int64(lost) {
			t.Fatalf("reassigned %d sessions, want %d (only the dead worker's)", cm.Reassigned, lost)
		}
	}
}
