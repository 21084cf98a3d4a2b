// Command padico-bench regenerates the paper's evaluation (§5) and the
// extension scenarios, printing each table in the shape the paper
// reports. Every flag comes from one table: the experiment flags are
// the entries of bench.Registry, the export flags are listed below
// next to the entry they default to. `padico-bench -list` (or -h)
// prints the catalogue, generated from that table.
//
// With no flags, every default table runs. An experiment flag runs
// that entry; entries with a sidecar rewrite their BENCH_<pr>.json. An
// export flag observes the one selected entry — any of them — and with
// no entry selected runs the scenario it defaults to: -trace, -metrics
// and -critpath the fully observed degrading-WAN workload, -series,
// -dash and -prom the sampled degrade→partition→heal timeline. An
// entry that builds several environments exports them concatenated, in
// run order. A failing scenario prints `<entry>: <error>` and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"padico/internal/bench"
	"padico/internal/scenario"
	"padico/internal/telemetry"
)

// exports are the observer-backed output flags, in -list order. Each
// names the entry it runs when none is selected and the observer it
// needs attached.
var exports = []struct {
	name, arg, desc, entry string
	observe                func(*scenario.Observers)
}{
	{"trace", "FILE", "Chrome trace of the observed degrading-WAN workload (Perfetto-loadable)", "observed", tracing},
	{"metrics", "", "telemetry registry snapshot of the observed workload (BENCH_6.json)", "observed", tracing},
	{"critpath", "", "critical-path attribution of the observed workload's slowest requests", "observed", tracing},
	{"series", "FILE", "deterministic time-series of the sampled degrade→partition→heal run (BENCH_10.json)", "sampled", sampling},
	{"dash", "FILE", "self-contained HTML dashboard (inline SVG) of the sampled run", "sampled", sampling},
	{"prom", "FILE", "Prometheus text exposition of the sampled run's final snapshot", "sampled", sampling},
}

func tracing(o *scenario.Observers)  { o.Trace = true }
func sampling(o *scenario.Observers) { o.Sample = bench.SeriesInterval }

// flagRow is one line of the flag table: an experiment flag (observe
// nil) or an export flag.
type flagRow struct {
	name, arg, desc string
	entry           *bench.Entry // the entry it selects, or defaults to
	observe         func(*scenario.Observers)
	value           flag.Value
}

// set returns the flag's value if it was given ("true" for a switch).
func (r *flagRow) set() (string, bool) {
	v := r.value.String()
	return v, v != "" && v != "false"
}

// flagTable derives every flag from the registry, in -list order: each
// entry's own flag, then the exports that default to it.
func flagTable() []*flagRow {
	var rows []*flagRow
	for _, e := range bench.Registry {
		if e.Desc != "" {
			rows = append(rows, &flagRow{name: e.Name, desc: e.Desc, entry: e})
		}
		for _, x := range exports {
			if x.entry == e.Name {
				rows = append(rows, &flagRow{name: x.name, arg: x.arg, desc: x.desc, entry: e, observe: x.observe})
			}
		}
	}
	for _, r := range rows {
		if r.arg != "" {
			flag.String(r.name, "", r.desc)
		} else {
			flag.Bool(r.name, false, r.desc)
		}
		r.value = flag.Lookup(r.name).Value
	}
	return rows
}

func printList(w io.Writer, rows []*flagRow) {
	fmt.Fprintln(w, "padico-bench tables (no flags = all paper tables):")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %s\n", strings.TrimSpace("-"+r.name+" "+r.arg), r.desc)
	}
}

// job is one entry to run, under the observers of the exports that
// apply to it.
type job struct {
	entry    *bench.Entry
	explicit bool // selected by its own flag: rewrites its sidecar
	obs      scenario.Observers
	exports  map[string]string // export flag -> value
}

// plan turns the parsed flags into jobs, in registry order.
func plan(rows []*flagRow) ([]*job, error) {
	var jobs []*job
	for _, r := range rows {
		if _, on := r.set(); on && r.observe == nil {
			jobs = append(jobs, &job{entry: r.entry, explicit: true, exports: map[string]string{}})
		}
	}
	selected := len(jobs)
	for _, r := range rows {
		v, on := r.set()
		if !on || r.observe == nil {
			continue
		}
		if selected > 1 {
			return nil, fmt.Errorf("-%s observes one entry at a time, %d selected", r.name, selected)
		}
		// The export applies to the selected entry, or else to its own
		// default (one job per default entry, however many exports).
		var j *job
		for _, c := range jobs {
			if selected == 1 || c.entry == r.entry {
				j = c
			}
		}
		if j == nil {
			j = &job{entry: r.entry, exports: map[string]string{}}
			jobs = append(jobs, j)
		}
		r.observe(&j.obs)
		j.exports[r.name] = v
	}
	if len(jobs) == 0 {
		for _, e := range bench.Registry {
			if e.Default {
				jobs = append(jobs, &job{entry: e})
			}
		}
	}
	return jobs, nil
}

func main() {
	rows := flagTable()
	list := flag.Bool("list", false, "list every bench with a one-line description and exit")
	flag.Usage = func() { printList(flag.CommandLine.Output(), rows) }
	flag.Parse()
	if *list {
		printList(os.Stdout, rows)
		return
	}
	jobs, err := plan(rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, j := range jobs {
		if err := j.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", j.entry.Name, err)
			os.Exit(1)
		}
	}
}

// run executes the entry and prints its table, its exports and its
// sidecar, in the order the flags have always printed them.
func (j *job) run() error {
	e := j.entry
	rep, err := e.Run(j.obs)
	if err != nil {
		return err
	}
	// sidecar rewrites the entry's BENCH file if flag is what triggers it.
	sidecar := func(flag string, given bool) error {
		if e.Sidecar == nil || e.Sidecar.On != flag || !given {
			return nil
		}
		err := writeSidecar(e.Sidecar, rep.Rows)
		if err == nil {
			fmt.Printf("wrote %s\n", e.Sidecar.File())
		}
		return err
	}
	fmt.Print(rep.Text)
	if err := sidecar(e.Name, j.explicit); err != nil {
		return err
	}
	if _, ok := j.exports["critpath"]; ok {
		fmt.Printf("=== Critical paths: slowest requests of the %s ===\n", e.WorkloadName())
		for _, env := range rep.Envs {
			fmt.Print(telemetry.FormatCriticalPaths(env.Hub.CriticalPaths(), 5))
		}
		fmt.Println()
	}
	if path := j.exports["trace"]; path != "" {
		spans := 0
		err := writeTo(path, rep.Envs, func(env *scenario.Env, w io.Writer) error {
			spans += len(env.Hub.Spans())
			return env.Hub.WriteTrace(w)
		})
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d trace events to %s (open in Perfetto or chrome://tracing)\n", spans, path)
	}
	if _, ok := j.exports["metrics"]; ok {
		fmt.Printf("=== Telemetry registry snapshot (%s) ===\n", e.WorkloadName())
		for _, env := range rep.Envs {
			fmt.Print(telemetry.FormatSnapshot(env.Hub.Registry().Snapshot()))
		}
		if err := sidecar("metrics", true); err != nil {
			return err
		}
	}
	if j.obs.Sample > 0 {
		tracks, scrapes := 0, int64(0)
		for _, env := range rep.Envs {
			tracks += env.Sampler.Series().Len()
			scrapes += env.Sampler.Scrapes()
		}
		fmt.Printf("=== Time-series: %s (%d tracks, %d scrapes) ===\n", e.WorkloadName(), tracks, scrapes)
		if path := j.exports["series"]; path != "" {
			err := writeTo(path, rep.Envs, func(env *scenario.Env, w io.Writer) error { return env.Sampler.WriteJSON(w) })
			if err != nil {
				return err
			}
			fmt.Printf("wrote %d series to %s\n", tracks, path)
			if err := sidecar("series", true); err != nil {
				return err
			}
		}
		if path := j.exports["dash"]; path != "" {
			err := writeTo(path, rep.Envs, func(env *scenario.Env, w io.Writer) error { return env.Sampler.WriteDash(w, rep.Dash) })
			if err != nil {
				return err
			}
			fmt.Printf("wrote dashboard to %s (self-contained, open in any browser)\n", path)
		}
		if path := j.exports["prom"]; path != "" {
			err := writeTo(path, rep.Envs, func(env *scenario.Env, w io.Writer) error { return env.Hub.WriteProm(w) })
			if err != nil {
				return err
			}
			fmt.Printf("wrote Prometheus exposition to %s\n", path)
		}
	}
	if rep.Text != "" { // a table is followed by a blank line, bare exports are not
		fmt.Println()
	}
	return nil
}

// writeTo creates path and emits every environment of the run into it,
// in order.
func writeTo(path string, envs []*scenario.Env, emit func(*scenario.Env, io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, env := range envs {
		if err == nil {
			err = emit(env, f)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSidecar is the one BENCH_<pr>.json writer: the sidecar's
// description plus the entry's rows as the table.
func writeSidecar(s *bench.Sidecar, rows any) error {
	out, err := json.MarshalIndent(struct {
		PR      int    `json:"pr"`
		Title   string `json:"title"`
		Command string `json:"command"`
		Note    string `json:"note"`
		Table   any    `json:"table"`
	}{s.PR, s.Title, s.Command, s.Note, rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(s.File(), append(out, '\n'), 0o644)
}
