package main

import (
	"errors"
	"flag"
	"fmt"
	"sort"
	"strings"
	"testing"

	"padico/internal/bench"
	"padico/internal/scenario"
)

var table = flagTable() // registers on flag.CommandLine, once

// parse resets every flag of the table, applies args and plans.
func parse(t *testing.T, args ...string) ([]*job, error) {
	t.Helper()
	for _, r := range table {
		reset := "false"
		if r.arg != "" {
			reset = ""
		}
		if err := flag.Set(r.name, reset); err != nil {
			t.Fatal(err)
		}
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
	return plan(table)
}

func names(jobs []*job) string {
	var out []string
	for _, j := range jobs {
		out = append(out, j.entry.Name)
	}
	return strings.Join(out, " ")
}

// The flag set is the same 17 names plus -list, every registry entry is
// reachable from the table, and no name is declared twice.
func TestFlagTable(t *testing.T) {
	var got []string
	reached := make(map[*bench.Entry]bool)
	for _, r := range table {
		got = append(got, r.name)
		reached[r.entry] = true
	}
	sort.Strings(got)
	want := "critpath dash datagrid fig3 group metrics overhead partition prom series slo store table1 trace vrp wan weather"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("flags = %s\n want   %s", s, want)
	}
	for _, e := range bench.Registry {
		if !reached[e] {
			t.Errorf("entry %q is not reachable from -list", e.Name)
		}
	}
}

func TestPlan(t *testing.T) {
	jobs, err := parse(t)
	if err != nil || names(jobs) != "fig3 table1 overhead wan vrp datagrid group weather store" {
		t.Fatalf("no flags: %q, %v", names(jobs), err)
	}
	for _, j := range jobs {
		if j.explicit || j.obs.Trace || j.obs.Sample != 0 {
			t.Errorf("default job %s is explicit or observed: %+v", j.entry.Name, j)
		}
	}

	jobs, err = parse(t, "-partition", "-slo")
	if err != nil || names(jobs) != "slo partition" || !jobs[0].explicit {
		t.Fatalf("-partition -slo: %q, %v (want registry order, explicit)", names(jobs), err)
	}

	// Export flags default to their own scenario, one job each.
	jobs, err = parse(t, "-trace", "t.json", "-critpath", "-prom", "m.prom")
	if err != nil || names(jobs) != "observed sampled" {
		t.Fatalf("exports alone: %q, %v", names(jobs), err)
	}
	if o := jobs[0]; !o.obs.Trace || o.obs.Sample != 0 || o.exports["trace"] != "t.json" || len(o.exports) != 2 {
		t.Errorf("observed job: %+v", o)
	}
	if s := jobs[1]; s.obs.Trace || s.obs.Sample != bench.SeriesInterval || s.exports["prom"] != "m.prom" || len(s.exports) != 1 {
		t.Errorf("sampled job: %+v", s)
	}

	// With an entry selected, every export observes that entry.
	jobs, err = parse(t, "-weather", "-trace", "t.json", "-series", "s.json")
	if err != nil || names(jobs) != "weather" {
		t.Fatalf("-weather with exports: %q, %v", names(jobs), err)
	}
	if w := jobs[0]; !w.explicit || !w.obs.Trace || w.obs.Sample == 0 || len(w.exports) != 2 {
		t.Errorf("weather job: %+v", w)
	}

	if _, err = parse(t, "-weather", "-store", "-metrics"); err == nil {
		t.Error("an export over two entries was accepted")
	}
}

// A failing scenario surfaces as the job's error (main prints it as
// "<entry>: <error>" and exits 1) before anything is printed or written.
func TestFailingScenario(t *testing.T) {
	boom := errors.New("boom")
	j := &job{explicit: true, entry: &bench.Entry{
		Name:    "doomed",
		Sidecar: &bench.Sidecar{PR: 0, On: "doomed"},
		Run: func(scenario.Observers) (*bench.Report, error) {
			return nil, fmt.Errorf("step: %w", boom)
		},
	}}
	if err := j.run(); !errors.Is(err, boom) {
		t.Fatalf("run = %v, want the scenario's error", err)
	}
}
