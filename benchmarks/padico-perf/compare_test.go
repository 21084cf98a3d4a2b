package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudgeAppliesBoundInTheBadDirection(t *testing.T) {
	lower := specMetric{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.06}
	higher := specMetric{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.06}
	steady := func(v float64) []float64 { return []float64{v, v, v, v, v} }
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"within bound", lower, steady(1), steady(1.05), "ok"},
		{"past bound", lower, steady(1), steady(1.07), "worse"},
		{"better is never worse", lower, steady(1), steady(0.5), "ok"},
		{"higher is better: drop past bound", higher, steady(100), steady(90), "worse"},
		{"higher is better: rise", higher, steady(100), steady(150), "ok"},
		{"runs disagree by more than the bound", lower, []float64{0.8, 0.9, 1, 1.1, 1.2}, steady(1), "unresolved"},
		{"worse wins over unresolved", lower, []float64{0.8, 0.9, 1, 1.1, 1.2}, steady(1.5), "worse"},
	} {
		if got := judge(c.m, c.a, c.b).status; got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func rec(workload string, trace int, failed int, metrics map[string]float64) record {
	r := &result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]metricValue{}}
	for k, v := range metrics {
		r.Metrics[k] = metricValue{Value: v, Unit: "s"}
	}
	return record{Workload: workload, Trace: trace, Result: r}
}

func TestCompareRecords(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []specMetric{
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.06},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10},
	}}
	a := []record{
		rec("w1", 0, 0, map[string]float64{"wall_s": 1.00, "setup_s": 0.010}),
		rec("w1", 0, 0, map[string]float64{"wall_s": 1.02, "setup_s": 0.010}),
		rec("w2", 0, 0, map[string]float64{"wall_s": 2.00, "setup_s": 0.020}),
		rec("w1", 1, 0, map[string]float64{"sim_s": 3.5, "vtime.events_fired": 100}),
	}
	b := []record{
		rec("w1", 0, 0, map[string]float64{"wall_s": 1.20, "setup_s": 0.0104}),
		rec("w2", 0, 0, map[string]float64{"wall_s": 1.00, "setup_s": 0.020}),
		rec("w1", 1, 0, map[string]float64{"sim_s": 3.5, "vtime.events_fired": 101}),
	}
	var out bytes.Buffer
	if worse := compareRecords(&out, spec, a, b); worse != 1 {
		t.Errorf("worse = %d, want 1 (w1/wall_s only)\n%s", worse, out.String())
	}
	text := out.String()
	for _, want := range []string{"w1", "w2", "wall_s (s)", "setup_s (s)", "worse", "ok", "sim_s (exact)", "same", "changed"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	// More failed operations on the b side condemn the workload whatever the timings.
	b[1] = rec("w2", 0, 3, map[string]float64{"wall_s": 1.00, "setup_s": 0.020})
	out.Reset()
	if worse := compareRecords(&out, spec, a, b); worse != 3 {
		t.Errorf("worse = %d, want 3 (w1/wall_s and both w2 rows)\n%s", worse, out.String())
	}
}
