package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envRecord is printed with every run: which machine and toolchain the
// numbers come from, and how much CPU the hypervisor took from the box.
type envRecord struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealS     float64 `json:"steal_s"`
	StealShare float64 `json:"steal_share"`
}

func newEnvRecord() envRecord {
	return envRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine-wide steal and total jiffies from the first
// line of /proc/stat (zeros where the file is unavailable).
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// userHZ is the kernel's jiffy rate for /proc/stat on Linux.
const userHZ = 100

// processCPU returns the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gauge is one reading taken at a phase boundary: the process's CPU
// time and runtime metrics, and the machine's stolen jiffies.
type gauge struct {
	at    time.Time
	cpu   time.Duration
	steal uint64
	rt    []metrics.Sample
}

var rtNames = []string{
	"/sched/latencies:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readGauge() gauge {
	g := gauge{rt: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		g.rt[i].Name = n
	}
	metrics.Read(g.rt)
	g.steal, _ = cpuTicks()
	g.cpu = processCPU()
	g.at = time.Now()
	return g
}

// gaugeDelta is what happened between two gauges.
type gaugeDelta struct {
	wall, cpu  time.Duration
	stealS     float64 // CPU seconds the hypervisor took from the machine
	schedP50US float64
	schedP99US float64
	gcShare    float64
	allocBytes float64
}

func delta(a, b gauge) gaugeDelta {
	d := gaugeDelta{
		wall:   b.at.Sub(a.at),
		cpu:    b.cpu - a.cpu,
		stealS: float64(b.steal-a.steal) / userHZ,
	}
	ha, hb := a.rt[0].Value, b.rt[0].Value
	if ha.Kind() == metrics.KindFloat64Histogram && hb.Kind() == metrics.KindFloat64Histogram {
		x, y := ha.Float64Histogram(), hb.Float64Histogram()
		counts := make([]uint64, len(y.Counts))
		for i := range counts {
			counts[i] = y.Counts[i]
			if i < len(x.Counts) {
				counts[i] -= x.Counts[i]
			}
		}
		d.schedP50US = histQuantile(y.Buckets, counts, 0.50) * 1e6
		d.schedP99US = histQuantile(y.Buckets, counts, 0.99) * 1e6
	}
	if gcAll := b.rt[2].Value.Float64() - a.rt[2].Value.Float64(); gcAll > 0 {
		d.gcShare = (b.rt[1].Value.Float64() - a.rt[1].Value.Float64()) / gcAll
	}
	d.allocBytes = float64(b.rt[3].Value.Uint64() - a.rt[3].Value.Uint64())
	return d
}

// histQuantile returns the upper edge of the runtime/metrics bucket that
// holds the q-quantile (the lower edge when the upper one is infinite).
func histQuantile(buckets []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if hi := buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return buckets[i]
		}
	}
	return buckets[len(buckets)-1]
}

// sample is a set of request latencies in milliseconds plus the number
// of requests that failed, which count as slower than every latency.
type sample struct {
	ms     []float64
	failed int
	// capMS stands in for a failed request where a quantile lands on one:
	// the client's request timeout, the largest latency it can observe.
	capMS float64
}

func (s *sample) n() int { return len(s.ms) + s.failed }

// at returns the value of order statistic i (0-based) of the sample with
// failures sorted last. The caller sorts s.ms first.
func (s *sample) at(i int) float64 {
	if i < len(s.ms) {
		return s.ms[i]
	}
	return s.capMS
}

// quantiles returns the median and the tail value: p99, or, when fewer
// than ten samples would lie beyond p99, the highest quantile that has
// ten samples beyond it, but never below the median. It also returns
// which quantile the tail is.
func (s *sample) quantiles() (p50, tail, tailQ float64) {
	sort.Float64s(s.ms)
	n := s.n()
	if n == 0 {
		return 0, 0, 0
	}
	m := int(math.Ceil(0.5*float64(n))) - 1
	i := int(math.Ceil(0.99*float64(n))) - 1
	if n-1-i < 10 {
		i = max(n-11, m)
	}
	return s.at(m), s.at(i), float64(i+1) / float64(n)
}

// median of v (0 when empty); v itself is left in its order.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = slices.Clone(v)
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}
