package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gate"
	"repro/internal/obs"
)

// Span names. Every span is recorded by the benchmark around a call into
// a layer; the program itself is not instrumented by the benchmark.
const (
	spanClient  = "client"       // one request as its caller sees it
	spanHTTP    = "http"         // middleware around Service.Handler()
	spanBackend = "gate.backend" // wrapper around gate.ServiceBackend.Draw
	spanDraw    = "session.draw" // Session.DrawInto called directly
)

// span is one timed call: name, start and end (ns since the tracer's
// epoch), the span that caused it, and the request it belongs to.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	on    atomic.Bool // wrappers record only while on

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// record stores a finished span.
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) {
	sp := span{ID: id, Parent: parent, Req: req, Name: name, Start: t.since(start), End: t.since(end)}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// finish computes every span's self time: its duration minus the part
// of it its children cover. It returns the spans grouped by name.
func (t *tracer) finish() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	index := make(map[uint64]int, len(t.spans))
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
		index[t.spans[i].ID] = i
	}
	for _, c := range t.spans {
		p, ok := index[c.Parent]
		if c.Parent == 0 || !ok {
			continue
		}
		lo, hi := max(c.Start, t.spans[p].Start), min(c.End, t.spans[p].End)
		if hi > lo {
			t.spans[p].Self -= hi - lo
		}
	}
	byName := make(map[string][]span)
	for _, sp := range t.spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	return byName
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err = enc.Encode(sp); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// durationsUS returns the spans' durations (self=false) or self times
// (self=true) in microseconds, as a sample.
func durationsUS(spans []span, self bool) *sample {
	s := &sample{ms: make([]float64, len(spans))}
	for i, sp := range spans {
		d := sp.End - sp.Start
		if self {
			d = sp.Self
		}
		s.ms[i] = float64(d) / 1e3
	}
	return s
}

// reqHeader carries the client span's id to the HTTP middleware.
const reqHeader = "X-Keybench-Span"

// traceHandler wraps the service's handler with an "http" span whenever
// the tracer is on.
func traceHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(t.newID(), parent, parent, spanHTTP, start, time.Now())
	})
}

// traceBackend wraps the gate's backend with a "gate.backend" span
// whenever the tracer is on. The client span's id reaches it through the
// gate frame's span field, which the gate puts in the context.
type traceBackend struct {
	t     *tracer
	inner gate.Backend
}

func (b traceBackend) Draw(ctx context.Context, session uint64, n int) ([]byte, error) {
	if !b.t.active() {
		return b.inner.Draw(ctx, session, n)
	}
	parent, _ := strconv.ParseUint(obs.SpanID(ctx), 10, 64)
	start := time.Now()
	key, err := b.inner.Draw(ctx, session, n)
	b.t.record(b.t.newID(), parent, parent, spanBackend, start, time.Now())
	return key, err
}

func (b traceBackend) StreamTo(ctx context.Context, session uint64, off, n int64, w io.Writer) (int64, error) {
	return b.inner.StreamTo(ctx, session, off, n, w)
}

// spanFile names the span dump of one run.
func spanFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
