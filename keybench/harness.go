package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/gate"
	"repro/internal/keystream"
	"repro/internal/obs"
	"repro/internal/service"
)

// requestTimeout bounds one request; a request that takes longer fails.
const requestTimeout = 10 * time.Second

// options are one run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
	out     string // directory the span dump goes to
}

// runner owns one run: the service, the front the client reaches it
// through, the measured session, and everything the correctness gate
// needs afterwards.
type runner struct {
	w     *workload
	opt   options
	nproc int

	reg *obs.Registry
	svc *service.Service
	tr  *tracer // nil on untraced runs

	ln   net.Listener
	srv  *http.Server
	base string
	hc   *http.Client
	g    *gate.Gate
	gcs  []*gate.Client

	sess  *service.Session
	spec  service.SessionSpec
	final keystream.Stats // the session stream's counters when it closed

	nextOff int64
	keys    *offHeap // every key drawn from the measured session
	reqLog  *offHeap // the running phase's draw-http request records
	samples []blockSample
}

// blockSample is one stream block a stream-cold request returned.
type blockSample struct {
	index int64
	data  []byte
}

// req is one request: when it was sent, in seconds from the start of its
// phase, and its latency in milliseconds, +Inf when it failed.
type req struct{ at, ms float64 }

// phase is what one stretch of load did.
type phase struct {
	d         gaugeDelta
	length    time.Duration // the load's planned length
	bytes     int64         // secret bytes delivered to the client
	attempted int64
	fails     map[string]int64
	reqs      []req
	lagMS     []float64 // load generator lag, kept on traced runs only
}

func newPhase() *phase {
	return &phase{fails: make(map[string]int64)}
}

// ok records a request that delivered n bytes.
func (p *phase) ok(at time.Duration, latMS float64, n int64) {
	p.attempted++
	p.reqs = append(p.reqs, req{at.Seconds(), latMS})
	p.bytes += n
}

func (p *phase) fail(at time.Duration, kind string) {
	p.attempted++
	p.reqs = append(p.reqs, req{at.Seconds(), math.Inf(1)})
	p.fails[kind]++
}

func (p *phase) failed() int64 {
	var n int64
	for _, c := range p.fails {
		n += c
	}
	return n
}

// merge adds o's requests to p.
func (p *phase) merge(o *phase) {
	p.bytes += o.bytes
	p.attempted += o.attempted
	for k, v := range o.fails {
		p.fails[k] += v
	}
	p.reqs = append(p.reqs, o.reqs...)
	p.lagMS = append(p.lagMS, o.lagMS...)
}

// latencies returns the latency sample of the requests whose time falls
// in [from, to) seconds.
func (p *phase) latencies(from, to float64) *sample {
	s := &sample{capMS: float64(requestTimeout) / 1e6}
	for _, q := range p.reqs {
		switch {
		case q.at < from || q.at >= to:
		case math.IsInf(q.ms, 1):
			s.failed++
		default:
			s.ms = append(s.ms, q.ms)
		}
	}
	return s
}

// all returns the latency sample of every request.
func (p *phase) all() *sample { return p.latencies(math.Inf(-1), math.Inf(1)) }

// parts cuts the phase into n equal stretches of its length by each
// request's time and returns their latency samples. The last stretch
// also takes any request timed at or past the end.
func (p *phase) parts(n int) []*sample {
	step := p.length.Seconds() / float64(n)
	ps := make([]*sample, n)
	for i := range ps {
		to := float64(i+1) * step
		if i == n-1 {
			to = math.Inf(1)
		}
		ps[i] = p.latencies(float64(i)*step, to)
	}
	return ps
}

func newRunner(w *workload, opt options) (*runner, error) {
	keys, err := newOffHeap()
	if err != nil {
		return nil, err
	}
	reqLog, err := newOffHeap()
	if err != nil {
		keys.close()
		return nil, err
	}
	reg := obs.New()
	reg.SetEnabled(false)
	r := &runner{
		keys:   keys,
		reqLog: reqLog,
		w:      w,
		opt:    opt,
		nproc:  runtime.NumCPU(),
		reg:    reg,
		svc: service.New(service.Config{
			MaxSessions: 2,
			Obs:         reg,
			Spans:       obs.NewSpanLog(16),
		}),
		nextOff: streamStart,
	}
	if opt.traced {
		r.tr = newTracer()
	}
	return r, nil
}

// mount starts the workload's front on a loopback listener and connects
// the client side: an HTTP client with nproc keep-alive connections, or
// nproc gate connections.
func (r *runner) mount() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.ln = ln
	switch r.w.load {
	case loadStream, loadDrawHTTP:
		var h http.Handler = r.svc.Handler()
		if r.tr != nil {
			h = traceHandler(r.tr, h)
		}
		r.srv = &http.Server{Handler: h}
		go r.srv.Serve(ln)
		r.base = "http://" + ln.Addr().String()
		r.hc = &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: r.nproc,
				MaxConnsPerHost:     r.nproc,
				DisableCompression:  true,
			},
		}
	case loadGateDraw:
		var b gate.Backend = gate.ServiceBackend{SV: r.svc}
		if r.tr != nil {
			b = traceBackend{t: r.tr, inner: b}
		}
		r.g = gate.New(gate.Config{
			Backend: b,
			Obs:     r.reg,
			Spans:   obs.NewSpanLog(16),
			Logf:    func(string, ...any) {},
		})
		go r.g.Serve(ln)
		for i := 0; i < r.nproc; i++ {
			c, err := gate.Dial(ln.Addr().String())
			if err != nil {
				return err
			}
			r.gcs = append(r.gcs, c)
		}
	}
	return nil
}

// close stops the client side, the front and the service, and waits for
// every goroutine they started.
func (r *runner) close() {
	for _, c := range r.gcs {
		c.Close()
	}
	if r.g != nil {
		r.g.Close()
	}
	if r.srv != nil {
		r.srv.Close()
		r.hc.CloseIdleConnections()
	}
	if r.ln != nil {
		r.ln.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.svc.Shutdown(ctx)
	r.keys.close()
	r.reqLog.close()
}

// sessionSeed derives bring-up i's session seed from the workload seed.
func sessionSeed(seed int64, workload string, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i+1)*0xbf58476d1ce4e5b9
	for _, c := range workload {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	x ^= x >> 31
	return int64(x >> 1)
}

// bringUp creates the workload's session n times in a row, each time
// from Service.Create until the pool first reaches TargetDepth, and
// keeps the last one as the measured session. It returns the bring-up
// times in seconds.
func (r *runner) bringUp(n int) ([]float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		spec := r.w.spec
		spec.Seed = sessionSeed(r.opt.seed, r.w.name, i)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		start := time.Now()
		s, err := r.svc.Create(spec)
		if err == nil {
			err = s.WaitReady(ctx)
		}
		took := time.Since(start)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("bring-up %d: %w", i, err)
		}
		times = append(times, took.Seconds())
		if i < n-1 {
			if err := r.svc.Close(s.ID); err != nil {
				return nil, err
			}
			continue
		}
		r.sess, r.spec = s, s.Spec()
	}
	return times, nil
}

// closeSession records the measured session's stream counters and
// closes it.
func (r *runner) closeSession() error {
	r.final = r.sess.Stream().Stats()
	return r.svc.Close(r.sess.ID)
}

// measure runs the workload's load for d without a break and reads the
// process gauges around it.
func (r *runner) measure(d time.Duration) *phase {
	g0 := readGauge()
	var p *phase
	switch r.w.load {
	case loadStream:
		p = r.driveStream(d)
	case loadDrawHTTP:
		p = r.driveDrawHTTP(d)
	case loadGateDraw:
		p = r.driveGateDraw(d)
	}
	p.d = delta(g0, readGauge())
	p.length = d
	return p
}

// errKind classifies a failed request for the failure accounting.
func errKind(err error) string {
	var ne net.Error
	var se statusError
	switch {
	case errors.As(err, &se):
		return "http_" + strconv.Itoa(int(se))
	case errors.Is(err, context.DeadlineExceeded), errors.As(err, &ne) && ne.Timeout():
		return "timeout"
	case errors.Is(err, client.ErrExhausted):
		return "exhausted"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "short_read"
	default:
		return "error"
	}
}

// driveStream is stream-cold's reader: sequential 1 MiB ranges at fresh
// offsets, one request at a time.
func (r *runner) driveStream(d time.Duration) *phase {
	p := newPhase()
	buf := make([]byte, rangeBytes)
	begin := time.Now()
	end := begin.Add(d)
	prev := begin
	for time.Now().Before(end) {
		off := r.nextOff
		r.nextOff += rangeBytes
		start := time.Now()
		if r.opt.traced {
			p.lagMS = append(p.lagMS, ms(start.Sub(prev)))
		}
		var id uint64
		if r.tr.active() {
			id = r.tr.newID()
		}
		err := r.getRange(off, buf, id)
		prev = time.Now()
		if id != 0 {
			r.tr.record(id, 0, id, spanClient, start, prev)
		}
		if err != nil {
			p.fail(start.Sub(begin), errKind(err))
			continue
		}
		p.ok(start.Sub(begin), ms(prev.Sub(start)), rangeBytes)
		r.keepSample(off, buf)
	}
	return p
}

// maxSamples bounds the stream blocks kept for the correctness gate;
// each costs one reference derivation at the end of the run.
const maxSamples = 12

// keepSample keeps one block of every fourth range for the gate.
func (r *runner) keepSample(off int64, buf []byte) {
	bs := int64(r.spec.StreamBlock)
	k := (off - streamStart) / rangeBytes
	if k%4 != 0 || len(r.samples) >= maxSamples {
		return
	}
	in := (k / 4 * bs) % rangeBytes
	r.samples = append(r.samples, blockSample{
		index: (off + in) / bs,
		data:  bytes.Clone(buf[in : in+bs]),
	})
}

type statusError int

func (e statusError) Error() string { return "HTTP " + strconv.Itoa(int(e)) }

func (r *runner) getRange(off int64, buf []byte, span uint64) error {
	url := fmt.Sprintf("%s/v1/sessions/%d/stream?offset=%d&len=%d", r.base, r.sess.ID, off, len(buf))
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if span != 0 {
		req.Header.Set(reqHeader, strconv.FormatUint(span, 10))
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return statusError(resp.StatusCode)
	}
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		return err
	}
	if n, _ := io.Copy(io.Discard, resp.Body); n != 0 {
		return fmt.Errorf("stream range: %d bytes past the requested length", n)
	}
	return nil
}

// spillEvery is how many draws a closed-loop caller holds before it
// moves their keys and request records off the heap.
const spillEvery = 4096

// driveDrawHTTP is draw-http's closed loop: nproc callers, each sending
// its next 32 B POST /draw when the previous one has returned.
func (r *runner) driveDrawHTTP(d time.Duration) *phase {
	url := fmt.Sprintf("%s/v1/sessions/%d/draw?bytes=%d", r.base, r.sess.ID, keyBytes)
	return r.closedLoop(d, func() drawFunc {
		var body bytes.Buffer
		return func(id uint64) ([]byte, error) { return r.postDraw(url, &body, id) }
	})
}

// driveGateDraw is gate-draw's closed loop: nproc callers, each on its
// own gate connection, sending its next 32 B draw when the previous one
// has returned.
func (r *runner) driveGateDraw(d time.Duration) *phase {
	next := 0
	return r.closedLoop(d, func() drawFunc {
		c := r.gcs[next]
		next++
		return func(id uint64) ([]byte, error) {
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			defer cancel()
			if id != 0 {
				ctx = obs.WithSpan(ctx, strconv.FormatUint(id, 10))
			}
			return c.Draw(ctx, uint64(r.sess.ID), keyBytes)
		}
	})
}

// drawFunc draws one key for a closed-loop caller; id is the request's
// span id, 0 when untraced.
type drawFunc func(id uint64) ([]byte, error)

// closedLoop runs nproc callers for d, each drawing with its own
// drawFunc from newCaller (called once per caller, before any starts)
// and sending its next draw when the previous one has returned. Keys
// and request records go off the heap as they pile up, so the heap the
// program sees does not grow through the phase.
func (r *runner) closedLoop(d time.Duration, newCaller func() drawFunc) *phase {
	draws := make([]drawFunc, r.nproc)
	for i := range draws {
		draws[i] = newCaller()
	}
	begin := time.Now()
	end := begin.Add(d)
	callers := make([]*phase, r.nproc)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := newPhase()
			keys := make([]byte, 0, spillEvery*keyBytes)
			spill := func() {
				r.keys.add(keys)
				r.reqLog.addReqs(p.reqs)
				keys, p.reqs = keys[:0], p.reqs[:0]
			}
			prev := time.Now()
			for time.Now().Before(end) {
				start := time.Now()
				if r.opt.traced {
					p.lagMS = append(p.lagMS, ms(start.Sub(prev)))
				}
				var id uint64
				if r.tr.active() {
					id = r.tr.newID()
				}
				key, err := draws[i](id)
				prev = time.Now()
				if id != 0 {
					r.tr.record(id, 0, id, spanClient, start, prev)
				}
				if err == nil && len(key) != keyBytes {
					err = io.ErrUnexpectedEOF
				}
				if err != nil {
					p.fail(start.Sub(begin), errKind(err))
				} else {
					p.ok(start.Sub(begin), ms(prev.Sub(start)), keyBytes)
					keys = append(keys, key...)
				}
				if len(p.reqs) == spillEvery {
					spill()
				}
			}
			spill()
			callers[i] = p
		}(i)
	}
	wg.Wait()
	p := newPhase()
	for _, q := range callers {
		p.merge(q)
	}
	var err error
	if p.reqs, err = r.reqLog.takeReqs(); err != nil {
		p.fail(time.Since(begin), "error")
	}
	return p
}

var keyField = []byte(`"key":"`)

// postDraw sends one draw and returns the decoded key.
func (r *runner) postDraw(url string, body *bytes.Buffer, span uint64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, nil)
	if err != nil {
		return nil, err
	}
	if span != 0 {
		req.Header.Set(reqHeader, strconv.FormatUint(span, 10))
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusConflict {
			return nil, client.ErrExhausted
		}
		return nil, statusError(resp.StatusCode)
	}
	b := body.Bytes()
	i := bytes.Index(b, keyField)
	if i < 0 || len(b) < i+len(keyField)+2*keyBytes {
		return nil, io.ErrUnexpectedEOF
	}
	key := make([]byte, keyBytes)
	if _, err := hex.Decode(key, b[i+len(keyField):i+len(keyField)+2*keyBytes]); err != nil {
		return nil, err
	}
	return key, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
