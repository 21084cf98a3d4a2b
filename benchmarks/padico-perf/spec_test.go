package main

import (
	"path/filepath"
	"testing"
)

// BENCHMARK.json and the tables in metrics.go and workloads.go say the
// same thing: names, units, and one line of why per workload.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better is %q", d.name, got[i].Better)
			}
			if seen[d.name] {
				t.Errorf("%s is listed twice", d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(spec.PerLayer))
	}
	var setup, widest float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.10 {
			t.Errorf("%s: bound %v outside (0, 0.10]", m.Name, m.Bound)
		}
		widest = max(widest, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	if setup != widest {
		t.Errorf("setup_s has bound %v, the widest is %v", setup, widest)
	}
}
