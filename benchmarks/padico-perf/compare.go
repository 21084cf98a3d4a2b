package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// record is one line of an -out file: the result of one run of one
// workload. A file may hold any number of runs of each workload;
// -compare takes the median of each metric over them.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Result == nil {
			return nil, fmt.Errorf("%s: record of %q has no result", path, rec.Workload)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// benchmarkSpec is the part of BENCHMARK.json that -compare applies.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []specMetric                 `json:"end_to_end"`
	PerLayer  []specMetric                 `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from path, or from the working
// directory or the nearest directory above it that has one (the
// repository root is two levels above this package).
func loadSpec(path string) (*benchmarkSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = nil
		for dir, level := ".", 0; level < 4; dir, level = filepath.Join(dir, ".."), level+1 {
			candidates = append(candidates, filepath.Join(dir, "BENCHMARK.json"))
		}
	}
	var firstErr error
	for _, c := range candidates {
		data, err := os.ReadFile(c)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		return &spec, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found (use -bounds): %w", firstErr)
}

// verdict is how one metric of one workload compares between two sets
// of runs.
type verdict struct {
	status       string // ok, worse, unresolved
	a, b         float64
	change       float64 // (b-a)/a, signed so that positive is worse
	spread       float64 // the wider of the two sets' quartile spreads
	runsA, runsB int
}

// judge applies one bound. A change counts against b only when it is
// for the worse by more than the bound. When it is not, but the runs of
// either set disagree among themselves by more than the bound, the
// metric is unresolved: the sets cannot tell.
func judge(m specMetric, a, b []float64) verdict {
	v := verdict{a: median(a), b: median(b), runsA: len(a), runsB: len(b)}
	if v.a != 0 {
		v.change = (v.b - v.a) / v.a
	}
	if m.Better == "higher" {
		v.change = -v.change
	}
	v.spread = max(quartileSpread(a), quartileSpread(b))
	switch {
	case v.change > m.Bound:
		v.status = "worse"
	case v.spread > m.Bound:
		v.status = "unresolved"
	default:
		v.status = "ok"
	}
	return v
}

// values collects one metric of one workload from the records of one
// pass kind.
func values(recs []record, workload, metric string, trace int) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Result.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// compareFiles prints one row per workload and end-to-end metric and
// returns how many are worse. Failed operations on either side make
// the workload's rows worse whatever the timings say.
func compareFiles(w io.Writer, boundsPath, fileA, fileB string) (worse int, err error) {
	spec, err := loadSpec(boundsPath)
	if err != nil {
		return 0, err
	}
	a, err := readRecords(fileA)
	if err != nil {
		return 0, err
	}
	b, err := readRecords(fileB)
	if err != nil {
		return 0, err
	}
	return compareRecords(w, spec, a, b), nil
}

func compareRecords(w io.Writer, spec *benchmarkSpec, a, b []record) (worse int) {
	seen := map[string]bool{}
	var names []string
	for _, r := range append(append([]record(nil), a...), b...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-28s %14s %14s %9s %8s %8s %5s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "b/a", "bound", "spread", "runs", "verdict")
	for _, name := range names {
		failed := func(recs []record) (n int) {
			for _, r := range recs {
				if r.Workload == name {
					n += r.Result.Failed
				}
			}
			return n
		}
		fa, fb := failed(a), failed(b)
		for _, m := range spec.EndToEnd {
			xa, xb := values(a, name, m.Name, 0), values(b, name, m.Name, 0)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(m, xa, xb)
			if fb > fa {
				v.status = "worse"
			}
			if v.status == "worse" {
				worse++
			}
			ratio := 0.0
			if v.a != 0 {
				ratio = v.b / v.a
			}
			fmt.Fprintf(w, "%-16s %-28s %14.6g %14.6g %9.4f %7.1f%% %7.2f%% %2d/%-2d  %s\n",
				name, m.Name+" ("+m.Unit+")", v.a, v.b, ratio, 100*m.Bound, 100*v.spread, v.runsA, v.runsB, v.status)
		}
		if fa+fb > 0 {
			fmt.Fprintf(w, "%-16s ops_failed: a=%d b=%d\n", name, fa, fb)
		}
		// Exact quantities of the traced pass compare as counts.
		for _, metric := range append([]string{"sim_s"}, exactCounters...) {
			xa, xb := values(a, name, metric, 1), values(b, name, metric, 1)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			status := "same"
			if median(xa) != median(xb) || quartileSpread(xa) != 0 || quartileSpread(xb) != 0 {
				status = "changed"
			}
			fmt.Fprintf(w, "%-16s %-28s %14.9g %14.9g %9s %8s %8s %2d/%-2d  %s\n",
				name, metric+" (exact)", median(xa), median(xb), "", "exact", "", len(xa), len(xb), status)
		}
	}
	return worse
}

// selfCheck runs the suite twice, the two sets interleaved workload by
// workload, and compares them: same code on both sides, so any row that
// is not ok is the instrument's own noise.
func selfCheck(cfg *runConfig, suite []*workload, boundsPath string) (worse int, err error) {
	spec, err := loadSpec(boundsPath)
	if err != nil {
		return 0, err
	}
	var sets [2][]record
	for _, w := range suite {
		for i := range sets {
			r, err := runWorkload(w, cfg)
			if err != nil {
				return 0, err
			}
			trace := 0
			if cfg.traced {
				trace = 1
			}
			sets[i] = append(sets[i], record{Workload: w.name, Seed: cfg.seed, Trace: trace, Result: r})
		}
	}
	return compareRecords(os.Stdout, spec, sets[0], sets[1]), nil
}
