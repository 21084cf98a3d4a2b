package main

import (
	"os"
	"path/filepath"
	"testing"
)

// Every workload, both passes, at a twentieth of the benchmark's size:
// the suite runs, checks its own outputs, and prints every metric.
func TestSmokeEveryWorkload(t *testing.T) {
	tmp := t.TempDir()
	for _, traced := range []bool{false, true} {
		for _, w := range workloads() {
			cfg := &runConfig{seed: 7, iters: 2, scale: 0.05, traced: traced,
				tmpRoot: filepath.Join(tmp, "tmp"), outDir: filepath.Join(tmp, "out")}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced=%v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s (traced=%v): metric %s missing or in unit %q", w.name, traced, d.name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.name, m.Value)
				}
			}
			if traced {
				if res.Metrics["sim_s"].Value <= 0 || res.Metrics["vtime.events_fired"].Value <= 0 {
					t.Errorf("%s: sim_s or vtime.events_fired is 0", w.name)
				}
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}

// A workload that is not routed the way it names aborts with a named error.
func TestRouteAssertionAborts(t *testing.T) {
	it := &iter{workload: "w"}
	if it.assertRoute("door", "wan/sysio x1", "wan/sysio x1") != true || it.fatal != nil {
		t.Fatal("matching route rejected")
	}
	it.assertRoute("door", "wan/sysio x1", "wan/pstreams x4 +gsec")
	if _, ok := it.fatal.(*routeError); !ok {
		t.Fatalf("fatal = %v, want a routeError", it.fatal)
	}
	it = &iter{workload: "w", cfg: &runConfig{scale: 1}}
	it.assertPositive("drops", 0)
	if _, ok := it.fatal.(*routeError); !ok {
		t.Fatalf("fatal = %v, want a routeError", it.fatal)
	}
}
