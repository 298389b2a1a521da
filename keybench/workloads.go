package main

import (
	"time"

	"repro/internal/service"
)

// loadKind is the request pattern a workload's generator issues, and
// with it the front the client reaches the service through: the HTTP
// loads go through Service.Handler(), the gate load through a gate.Gate
// over gate.ServiceBackend, each on a loopback listener.
type loadKind int

const (
	loadStream   loadKind = iota // one reader, sequential 1 MiB /stream ranges
	loadDrawHTTP                 // closed loop of 32 B POST /draw, nproc connections
	loadGateDraw                 // closed loop of 32 B gate draws, nproc connections
)

// workload is one set of inputs the benchmark runs. The session spec's
// Seed is left zero here: every run derives it from --seed.
type workload struct {
	name string
	spec service.SessionSpec
	load loadKind
	// bringUps is how many sequential session bring-ups setup_s is the
	// median of. One bring-up is too short to repeat on a shared box.
	bringUps int
}

const (
	keyBytes   = 32      // one drawn key
	rangeBytes = 1 << 20 // one stream-cold request
	// streamStart is the first stream-cold offset: far past the pool's
	// prefill and the stream's prefetch window, so every range derives
	// cold blocks.
	streamStart = 64 << 20
)

// benchStreamSpec is the BENCH_stream.json session: 3 terminals, erasure
// 0.45, 128 x-packets of 4 KiB per round, 128 KiB blocks, pool 128/256 KiB.
func benchStreamSpec(name string) service.SessionSpec {
	return service.SessionSpec{
		Name:         name,
		Terminals:    3,
		Erasure:      0.45,
		XPerRound:    128,
		PayloadBytes: 4096,
		Rounds:       1,
		Rotate:       true,
		LowWater:     128 << 10,
		TargetDepth:  256 << 10,
		Timeout:      60 * time.Second,
		StreamBlock:  128 << 10,
	}
}

var workloads = map[string]*workload{
	// stream-cold: one reader issues sequential 1 MiB /stream ranges at
	// fresh offsets. Chosen because it is bound by per-byte derivation
	// cost (payload generation, symbol conversion, GF coding; about 18 ms
	// of CPU per round) and barely touches the pool: it is the workload
	// that shows key production.
	"stream-cold": {
		name:     "stream-cold",
		spec:     benchStreamSpec("bench-stream-cold"),
		load:     loadStream,
		bringUps: 40,
	},
	// draw-http: a closed loop of 32 B POST /draw requests over nproc
	// keep-alive connections, same session shape. Chosen because callers
	// that wait for each key make the cost per request (HTTP,
	// Session.DrawInto, keypool), while background derivation is a small
	// share of the CPU: it is the workload that shows key delivery.
	"draw-http": {
		name:     "draw-http",
		spec:     benchStreamSpec("bench-draw-http"),
		load:     loadDrawHTTP,
		bringUps: 40,
	},
	// gate-draw: the draw-http loop over the gate instead of HTTP: nproc
	// callers, each with its own gate.Dial connection to a gate.Gate over
	// gate.ServiceBackend, same session shape. Chosen because it is the
	// only workload that exercises the gate, and against draw-http it
	// isolates what the front costs per key. It is a closed loop, not an
	// open one: an open loop of 2,000 draws/s on a small-round session,
	// timed from each draw's due time, followed the CPU the hypervisor
	// stole from a shared 2-vCPU VM (p99 spread 0.45 of the median over
	// five seeds), so no bound could hold it.
	"gate-draw": {
		name:     "gate-draw",
		spec:     benchStreamSpec("bench-gate-draw"),
		load:     loadGateDraw,
		bringUps: 40,
	},
}

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"stream-cold", "draw-http", "gate-draw"}
