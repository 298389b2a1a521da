// Command keybench is the repository's benchmark: key production against
// key delivery. It runs one workload in one process (service, front and
// client), checks that every byte the client received is the session's
// key stream, and prints the end-to-end metrics; a traced run prints the
// per-layer metrics instead. Build and run it from the repository root:
//
//	bash keybench/run.sh --workload draw-http --seed 1 --seconds 30 --trace 0
//
// The workload seed is the only input: it derives the session seeds, and
// from them every key byte. Seeds 1 to 20 are the ones the benchmark is
// tuned and checked on. Seed 1009
// is held out: a later change that claims a gain must show it on 1009 as
// well, measured after the change is written.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it record the
// environment, the failure accounting and the sample counts. The exit
// code is 1 when the correctness gate fails or the run cannot finish.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// warmup is the load run after set-up and before any timed phase, so
// connections, caches and the heap settle first.
const warmup = time.Second

// metric is one named, measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	correct    bool
	violations []string
	attempted  int64
	failed     int64
	fails      map[string]int64
	metrics    map[string]metric
	notes      []string
	env        envRecord
}

func (res *result) set(name, unit string, v float64) {
	res.metrics[name] = metric{Value: v, Unit: unit}
}

func (res *result) note(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory span dumps are written under")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		out:     *out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "keybench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, w.name, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "keybench: printing the result:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// run executes one workload: set-up, warm-up, the timed phase (or, when
// traced, an untraced reference phase, the traced phase and the layer
// passes), then the correctness gate.
func run(w *workload, opt options) (*result, error) {
	res := &result{metrics: make(map[string]metric), env: newEnvRecord()}
	steal0, ticks0 := cpuTicks()
	r, err := newRunner(w, opt)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.mount(); err != nil {
		return nil, fmt.Errorf("mount %s front: %w", w.name, err)
	}
	// A traced run does not report setup_s and brings the session up once.
	bringUps := 1
	if !opt.traced {
		bringUps = w.bringUps
	}
	setup, err := r.bringUp(bringUps)
	if err != nil {
		return nil, err
	}
	r.measure(warmup)

	var p *phase
	if opt.traced {
		if p, err = r.tracedPasses(res); err != nil {
			return nil, err
		}
	} else {
		p = r.measure(opt.seconds)
		if err := r.closeSession(); err != nil {
			return nil, err
		}
		e2eMetrics(res, p, setup)
	}
	if n := r.final.VerifyMismatch; n != 0 {
		res.violations = append(res.violations, fmt.Sprintf("keystream verify_mismatch = %d", n))
	}
	cfg := streamConfig(r.spec)
	res.violations = append(res.violations, checkSamples(cfg, r.samples, r.nproc)...)
	keys, err := r.keys.bytes()
	if err != nil {
		return nil, err
	}
	res.violations = append(res.violations, checkKeys(cfg, keys, r.nproc)...)
	res.correct = len(res.violations) == 0
	res.note("correctness: %d stream blocks and %d drawn keys checked against keystream.ReferenceBlock",
		len(r.samples), len(keys)/keyBytes)

	res.attempted, res.failed, res.fails = p.attempted, p.failed(), p.fails
	steal1, ticks1 := cpuTicks()
	res.env.StealS = float64(steal1-steal0) / userHZ
	if ticks1 > ticks0 {
		res.env.StealShare = float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	return res, nil
}

// parts is how many equal stretches the timed phase is cut into, by
// when each request was sent; the load itself runs without a break. The latency metrics are the median of each part's value, so one
// long stall or one burst of CPU stolen by the hypervisor moves one
// part, not the result. The rates are totals over the whole phase, which
// average the refill bursts.
const parts = 15

// tailSamples is how many requests a part needs for its p99 to have ten
// samples beyond it.
const tailSamples = 1000

// e2eMetrics fills the end-to-end metrics from the timed phase and the
// bring-up times.
func e2eMetrics(res *result, p *phase, setup []float64) {
	var p50s, tails []float64
	fewest := -1
	for _, s := range p.parts(parts) {
		if s.n() == 0 {
			continue
		}
		p50, tail, _ := s.quantiles()
		p50s = append(p50s, p50)
		tails = append(tails, tail)
		if fewest < 0 || s.n() < fewest {
			fewest = s.n()
		}
	}
	res.set("setup_s", "s", median(setup))
	res.set("secret_mb_s", "MB/s", float64(p.bytes)/p.d.wall.Seconds()/1e6)
	res.set("secret_mb_per_cpu_s", "MB/cpu-s", mbPerCPU(p))
	res.set("lat_p50_ms", "ms", median(p50s))
	if fewest < tailSamples {
		// Too few requests per part for a p99: take the tail over the
		// whole phase instead.
		all := p.all()
		_, tail, q := all.quantiles()
		beyond := all.n() - int(q*float64(all.n())+0.5)
		res.set("lat_p99_ms", "ms", tail)
		res.note("lat_p99_ms is the p%.4g of all %d requests, %d beyond it", q*100, all.n(), beyond)
	} else {
		res.set("lat_p99_ms", "ms", median(tails))
		res.note("lat_p99_ms is the median of %d parts' p99s, each over at least %d requests", len(tails), fewest)
	}
	res.note("parts: p50 ms %s", fmtList(p50s, "%.4f"))
	res.note("parts: p99 ms %s", fmtList(tails, "%.4f"))
	res.note("setup_s is the median of %d bring-ups: %s", len(setup), fmtList(setup, "%.4f"))
}

func mbPerCPU(p *phase) float64 {
	if p.d.cpu <= 0 {
		return 0
	}
	return float64(p.bytes) / p.d.cpu.Seconds() / 1e6
}

// tracedPasses runs an untraced reference phase, then the traced phase
// with the benchmark's spans, the program's registry and a pool sampler
// on, then the layer passes. It returns the traced phase.
func (r *runner) tracedPasses(res *result) (*phase, error) {
	half := r.opt.seconds / 2
	ref := r.measure(half)

	str := r.sess.Stream()
	st0 := str.Stats()
	r.reg.SetEnabled(true)
	r.tr.on.Store(true)
	minAvail := r.samplePool()
	tp := r.measure(half)
	minKB := float64(minAvail()) / 1024
	r.tr.on.Store(false)
	st1 := str.Stats()
	snap := r.reg.Snapshot()
	r.reg.SetEnabled(false)

	drawNS, keys, err := sessionDraws(r.sess, nil, r.nproc, 3)
	r.keys.add(keys)
	if err != nil {
		return nil, fmt.Errorf("session draws: %w", err)
	}
	_, keys, err = sessionDraws(r.sess, r.tr, r.nproc, 1)
	r.keys.add(keys)
	if err != nil {
		return nil, fmt.Errorf("session draws: %w", err)
	}
	// Stop the measured session before the standalone layer passes so
	// their CPU readings are theirs alone.
	if err := r.closeSession(); err != nil {
		return nil, err
	}

	cfg := streamConfig(r.spec)
	lad, bad := runLadder(cfg, time.Second)
	res.violations = append(res.violations, bad...)
	engBytes, engCPU, engStats, err := engineRead(cfg, 1500*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("standalone keystream: %w", err)
	}
	if engStats.VerifyMismatch != 0 {
		res.violations = append(res.violations, fmt.Sprintf("standalone keystream verify_mismatch = %d", engStats.VerifyMismatch))
	}
	depositUS, poolDrawNS := poolTimes(r.spec.StreamBlock, 5)

	spans := r.tr.finish()
	if err := r.tr.write(spanFile(r.opt.out, r.w.name, r.opt.seed)); err != nil {
		fmt.Fprintln(os.Stderr, "keybench: writing spans:", err)
	}

	// packet, gf and core rungs, per round.
	res.set("packet.gen_us", "us", perRoundUS(lad.gen, lad.rounds))
	res.set("gf.symbols_us", "us", perRoundUS(lad.sym, lad.rounds))
	res.set("gf.addmul_mb_s", "MB/s", addMulMBs(r.spec.PayloadBytes, 200*time.Millisecond))
	res.set("core.plan_us", "us", perRoundUS(lad.plan, lad.rounds))
	res.set("core.leader_us", "us", perRoundUS(lad.leader, lad.productive))
	res.set("core.terminal_us", "us", perRoundUS(lad.terminal, lad.productive))
	res.set("core.secret_bytes_per_round", "B", float64(lad.secretBytes)/float64(max(lad.rounds, 1)))

	// The ladder: compute → engine → delivery, each per CPU-second.
	compute := float64(lad.secretBytes) / lad.computeSeconds(r.spec.Terminals) / 1e6
	engine := float64(engBytes) / engCPU.Seconds() / 1e6
	delivery := mbPerCPU(ref)
	res.set("ladder.compute_mb_per_cpu_s", "MB/cpu-s", compute)
	res.set("ladder.engine_over_compute", "ratio", engine/compute)
	res.set("ladder.delivery_over_engine", "ratio", delivery/engine)
	res.note("ladder (MB per CPU-second): compute %.3f, engine %.3f, delivery %.3f", compute, engine, delivery)

	// keystream: the standalone stream's rate, the program's histograms
	// and the measured session's counters over the traced phase.
	res.set("keystream.read_mb_per_cpu_s", "MB/cpu-s", engine)
	res.set("keystream.block_derive_ms_p50", "ms", histP50(snap, "thinaird_keystream_block_derive_seconds")*1e3)
	res.set("keystream.exchange_ms_p50", "ms", histP50(snap, "thinaird_keystream_exchange_seconds")*1e3)
	res.set("keystream.compute_ms_p50", "ms", histP50(snap, "thinaird_keystream_compute_seconds")*1e3)
	rounds := float64(st1.Rounds - st0.Rounds)
	res.set("keystream.rounds_per_block", "count", ratio(rounds, float64(st1.Blocks-st0.Blocks)))
	res.set("keystream.productive_ratio", "ratio", ratio(float64(st1.Productive-st0.Productive), rounds))
	res.set("keystream.ack_timeout_ratio", "ratio", ratio(float64(st1.AckTimeouts-st0.AckTimeouts), rounds))
	hits, misses := float64(st1.CacheHits-st0.CacheHits), float64(st1.CacheMisses-st0.CacheMisses)
	res.set("keystream.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	res.set("keystream.verify_mismatch", "count", float64(st1.VerifyMismatch))

	// keypool and service.
	draws := float64(tp.attempted - tp.failed())
	if r.w.load == loadStream {
		draws = 0
	}
	res.set("keypool.draw_ns", "ns", poolDrawNS)
	res.set("keypool.deposit_us", "us", depositUS)
	res.set("keypool.min_available_kb", "KiB", minKB)
	res.set("keypool.exhausted", "count", float64(tp.fails["exhausted"]))
	res.set("service.draw_ns", "ns", drawNS)
	res.set("service.combined_share", "ratio", ratio(histCount(snap, "thinaird_draw_batch_size"), draws))

	// Fronts, from the benchmark's spans (0 where the workload does not
	// use the front). http.server_us_p99 is p99 when the spans support
	// it, else the highest quantile with ten spans beyond it.
	server := durationsUS(spans[spanHTTP], false)
	serverP50, serverP99, _ := server.quantiles()
	res.set("http.server_us_p50", "us", serverP50)
	res.set("http.server_us_p99", "us", serverP99)
	// The client span's self time is what the request spent outside the
	// server's handler or the gate's backend: client, connection, framing.
	clientSelf := durationsUS(spans[spanClient], true)
	selfP50, _, _ := clientSelf.quantiles()
	backendP50, _, _ := durationsUS(spans[spanBackend], false).quantiles()
	if r.w.load == loadGateDraw {
		res.set("http.client_us_p50", "us", 0)
		res.set("gate.self_us_p50", "us", selfP50)
	} else {
		res.set("http.client_us_p50", "us", selfP50)
		res.set("gate.self_us_p50", "us", 0)
	}
	res.set("gate.backend_us_p50", "us", backendP50)
	res.note("spans: %d client, %d http, %d gate.backend, %d session.draw",
		len(spans[spanClient]), len(spans[spanHTTP]), len(spans[spanBackend]), len(spans[spanDraw]))

	// Go runtime and load generator, from the untraced reference phase.
	res.set("runtime.cpu_util", "ratio", ref.d.cpu.Seconds()/ref.d.wall.Seconds()/float64(r.nproc))
	res.set("runtime.sched_wait_us_p50", "us", ref.d.schedP50US)
	res.set("runtime.sched_wait_us_p99", "us", ref.d.schedP99US)
	res.set("runtime.gc_cpu_share", "ratio", ref.d.gcShare)
	res.set("runtime.alloc_bytes_per_op", "B", ratio(ref.d.allocBytes, float64(ref.attempted)))
	lag := sample{ms: ref.lagMS}
	_, lagTail, _ := lag.quantiles()
	res.set("loadgen.lag_ms_p99", "ms", lagTail)
	res.set("trace.overhead_pct", "%", (cpuPerByte(tp)/cpuPerByte(ref)-1)*100)
	return tp, nil
}

// samplePool records the measured pool's depth every millisecond until
// the returned function is called, which returns the smallest depth seen.
func (r *runner) samplePool() func() int {
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		low := r.sess.Pool().Available()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- low
				return
			case <-t.C:
				low = min(low, r.sess.Pool().Available())
			}
		}
	}()
	return func() int {
		close(stop)
		return <-done
	}
}

func cpuPerByte(p *phase) float64 { return ratio(p.d.cpu.Seconds(), float64(p.bytes)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func histP50(s obs.Snapshot, name string) float64 {
	f := s.Family(name)
	if f == nil || len(f.Series) == 0 {
		return 0
	}
	return f.Series[0].Hist.Quantile(0.5)
}

func histCount(s obs.Snapshot, name string) float64 {
	f := s.Family(name)
	if f == nil || len(f.Series) == 0 || f.Series[0].Hist == nil {
		return 0
	}
	return float64(f.Series[0].Hist.Count)
}

func fmtList(v []float64, format string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// print writes the report: environment, failure accounting, notes and
// violations, then the result object as the last line.
func (res *result) print(w io.Writer, workload string, seed int64) error {
	env, _ := json.Marshal(res.env)
	fmt.Fprintf(w, "keybench workload=%s seed=%d\n", workload, seed)
	fmt.Fprintf(w, "env %s\n", env)
	kinds := make([]string, 0, len(res.fails))
	for k, v := range res.fails {
		kinds = append(kinds, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "requests attempted=%d failed=%d failed_share=%.6f %s\n",
		res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)), strings.Join(kinds, " "))
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	for _, v := range res.violations {
		fmt.Fprintln(w, "VIOLATION", v)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		return err // a metric that is not a finite number
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
