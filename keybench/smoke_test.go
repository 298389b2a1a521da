package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke run checks
// the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the correctness gate passes and that exactly the metrics
// BENCHMARK.json names print, each with its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	e2e := make(map[string]string)
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := make(map[string]string)
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, wl := range bf.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark lacks", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layers
			}
			res, err := run(w, options{
				seed:    1,
				seconds: time.Second,
				traced:  traced,
				out:     t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct {
				t.Errorf("%s traced=%v: correctness gate failed: %v", w.name, traced, res.violations)
			}
			if err := res.print(io.Discard, w.name, 1); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.name, traced, res.attempted, res.failed)
			}
			for name, unit := range want {
				m, ok := res.metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.name, traced, name, m.Unit, unit)
				}
			}
			for name := range res.metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
			if !traced {
				for name, m := range res.metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}
