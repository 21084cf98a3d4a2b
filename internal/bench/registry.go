// Package bench is the registry of experiments: every table and figure
// of the paper's evaluation (§5) — Figure 3, Table 1, the MadIO
// overhead claim, the VTHD WAN parallel-streams experiment, the VRP
// lossy-link experiment — and the extension scenarios built on top
// (data grid, group fan-out, network weather, store engines, the
// observed run, SLO monitoring, failure scenarios, the sampled
// timeline). Each Entry builds its environments through
// internal/scenario, so any of them runs plain or under any observer
// with the same code. cmd/padico-bench, bench_test.go, the determinism
// gate and the paper-fidelity test all iterate Registry; nothing else
// scripts an experiment.
package bench

import (
	"fmt"

	"padico/internal/scenario"
	"padico/internal/telemetry/series"
	"padico/internal/vtime"
)

// Entry is one experiment.
type Entry struct {
	// Name is the registry key and, when Desc is set, the padico-bench
	// flag. The two entries without a Desc are reached through the
	// export flags that default to them (-trace, -series and friends).
	Name string
	// Desc is the one-line description of -list and -h.
	Desc string
	// Workload names the run in export headers ("<Name> workload" if
	// empty).
	Workload string
	// Default marks the tables a flagless padico-bench prints.
	Default bool
	// Sidecar, when set, is the BENCH_<pr>.json the entry regenerates.
	Sidecar *Sidecar
	// Run executes the experiment under obs. A failing step, a proc
	// panic or a deadlock is returned, never re-panicked.
	Run func(obs scenario.Observers) (*Report, error)
}

// WorkloadName is the entry's name in export headers.
func (e *Entry) WorkloadName() string {
	if e.Workload != "" {
		return e.Workload
	}
	return e.Name + " workload"
}

// Sidecar describes a pinned BENCH_<pr>.json deliverable; its table is
// the Rows of the entry's report.
type Sidecar struct {
	PR int
	// On is the padico-bench flag that (re)writes the file.
	On                   string
	Title, Command, Note string
}

// File is the sidecar's file name.
func (s *Sidecar) File() string { return fmt.Sprintf("BENCH_%d.json", s.PR) }

// Report is what one run of an entry produced.
type Report struct {
	// Text is the table exactly as padico-bench prints it.
	Text string
	// Rows are the typed result rows ([]DataGridResult, []Row, ...):
	// what tests assert on and what the sidecar stores as its table.
	Rows any
	// Envs are the environments the run built, in order; exports read
	// their hubs, samplers and monitors.
	Envs []*scenario.Env
	// Dash decorates the run's dashboard export.
	Dash series.DashOptions
}

// run is one execution of an entry: it builds environments under the
// caller's observers, remembers them for the report, and stops at the
// first failure — once one environment failed, later ones are not built
// and the entry reports that first error.
type run struct {
	obs  scenario.Observers
	envs []*scenario.Env
	err  error
}

// do builds spec's environment and runs body in it. It returns the
// environment (nil when the run had already failed or the build did).
func (r *run) do(spec scenario.Spec, body func(env *scenario.Env, p *vtime.Proc) error) *scenario.Env {
	if r.err != nil {
		return nil
	}
	env, err := scenario.New(spec, r.obs)
	if err == nil {
		r.envs = append(r.envs, env)
		err = env.Run(func(p *vtime.Proc) error { return body(env, p) })
	}
	r.err = err
	return env
}

// bind turns a scenario function into an Entry.Run.
func bind(f func(r *run) *Report) func(scenario.Observers) (*Report, error) {
	return func(obs scenario.Observers) (*Report, error) {
		r := &run{obs: obs}
		rep := f(r)
		if r.err != nil {
			return nil, r.err
		}
		rep.Envs = r.envs
		return rep, nil
	}
}

// Lookup returns the named entry (nil if absent).
func Lookup(name string) *Entry {
	for _, e := range Registry {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Registry lists every experiment in -list order, which is also the
// order padico-bench runs them in.
var Registry = []*Entry{
	{Name: "fig3", Default: true, Run: bind(fig3),
		Desc: "Figure 3: bandwidth vs message size for each middleware over Myrinet-2000"},
	{Name: "table1", Default: true, Run: bind(table1),
		Desc: "Table 1: one-way latency and peak bandwidth per API or middleware"},
	{Name: "overhead", Default: true, Run: bind(overhead),
		Desc: "MadIO header-combining and PadicoTM virtualization overheads (§4.1, §5)"},
	{Name: "wan", Default: true, Run: bind(wan),
		Desc: "VTHD WAN throughput: single TCP stream vs parallel striped streams (§5)"},
	{Name: "vrp", Default: true, Run: bind(vrpBench),
		Desc: "VRP vs TCP on the lossy trans-continental link, with tolerated loss (§5)"},
	{Name: "datagrid", Default: true, Run: bind(dataGridBench),
		Desc: "striped replication across the lossy two-cluster WAN: ingest and convergence"},
	{Name: "group", Default: true, Run: bind(groupBench),
		Desc: "flat vs hierarchical replication fan-out: WAN bytes and makespan"},
	{Name: "weather", Default: true, Run: bind(weatherBench),
		Desc: "adaptive vs static source selection while a WAN core degrades mid-run"},
	{Name: "store", Default: true, Run: bind(storeBench),
		Desc: "memory vs durable pack engine, with the corrupt-and-repair drill (BENCH_7.json)",
		Sidecar: &Sidecar{PR: 7, On: "store",
			Title:   "internal/store: durable pack-engine object store under datagrid, with background auditor and anti-entropy repair",
			Command: "go run ./cmd/padico-bench -store",
			Note: "The identical datagrid workload (8x1MB objects, replica factor 2, striped x4, lossy two-cluster WAN) " +
				"on both storage backends. The pack engine appends needles into bundle files with simulated disk " +
				"charges (seek, per-byte platter rates, batched fsync), so its ingest trails the zero-cost memory map. " +
				"The drill corrupts two needles on disk, one audit pass quarantines both, one repair pass restores " +
				"the replication factor over the normal transfer path, and no object is lost. Deterministic: " +
				"bit-identical across reruns, pinned by TestDeterminismStoreTable."}},
	{Name: "observed", Workload: "observed degrading-WAN workload", Run: bind(observed),
		Sidecar: &Sidecar{PR: 6, On: "metrics",
			Title:   "internal/telemetry: virtual-time tracing, unified metrics registry, and a flight recorder across the whole stack",
			Command: "go run ./cmd/padico-bench -metrics",
			Note: "Registry snapshot after one fully observed DegradingWAN run (bench.TraceRun): " +
				"weather monitoring on, adaptive striped data grid with hierarchical fan-out, one explicit " +
				"multicast+barrier round, a 4MB adaptive stream across the degrade instant, and a 3% loss " +
				"burst on the degraded core between t=2s and t=4s virtual. Counters come from the five layer " +
				"Stats structs bound into the shared registry; histograms are virtual-time latency ladders " +
				"(p50/p99 are bucket upper bounds on a 1-2-5 ladder). Deterministic: every figure is " +
				"bit-identical across reruns, pinned by TestDeterminismTrace."}},
	{Name: "slo", Run: bind(sloBench),
		Desc: "burn-rate SLO alerts across a degrade plus a site partition (BENCH_8.json)",
		Sidecar: &Sidecar{PR: 8, On: "slo",
			Title:   "end-to-end causal tracing: propagated trace context, critical-path analysis, and virtual-time SLO monitoring",
			Command: "go run ./cmd/padico-bench -slo",
			Note: "Multi-window burn-rate SLO monitoring (windows 2s/8s virtual, alert at burn >= 2 on every window) over " +
				"one DegradingWAN ingest run: 4x1MB puts while healthy, 4 more after the site0-site1 core collapses to " +
				"1/16 rate at t=6s, a quiet tail, then a full site1 partition held for 6s and healed. The " +
				"transfer-latency objective breaches while the degraded-era transfers burn the 500ms budget and clears " +
				"when the short window cools; the recovery-availability objective breaches while the partition starves " +
				"the repair loop of fresh sources and clears after the heal; repair and probe-availability objectives " +
				"hold throughout. Deterministic: bit-identical across reruns, pinned by TestDeterminismSLOTable."}},
	{Name: "partition", Run: bind(partitionBench),
		Desc: "failure scenarios: node crash, site blackout, WAN partition and heal (BENCH_9.json)",
		Sidecar: &Sidecar{PR: 9, On: "partition",
			Title:   "failure scenarios end-to-end: node crashes, site blackouts, WAN partitions, and self-healing rebalance",
			Command: "go run ./cmd/padico-bench -partition",
			Note: "Three failure modes injected into a replicated working set (8x1MB, replica factor 2). " +
				"node-crash and site-blackout kill the primary holder (alone, then with its whole site) on the " +
				"three-site lossy testbed: a 500ms-sweep failure detector shrinks the consistent-hash ring, and " +
				"the repair loop re-replicates every object that lost a copy from weather-ranked surviving " +
				"sources. wan-partition cuts the primary WAN core on the dual-homed testbed: the weather " +
				"forecast marks the wire down, placement re-selection moves reads onto the backup core, and the " +
				"moved MB column counts bytes the backup carried. detect is fault-to-first-detection, recover is " +
				"fault-to-reconvergence (every object verified at full replication, or a clean read round on the " +
				"rerouted wire). Zero objects lost in every scenario. Deterministic: bit-identical across " +
				"reruns, pinned by TestDeterminismPartitionTable."}},
	{Name: "sampled", Workload: "sampled degrade→partition→heal workload", Run: bind(sampled),
		Sidecar: &Sidecar{PR: 10, On: "series",
			Title:   "time-series telemetry: deterministic metric sampler, utilization and backpressure gauges, exposition and self-contained dashboard",
			Command: "go run ./cmd/padico-bench -series out.json -dash dash.html",
			Note: "A virtual-time sampler (250ms cadence) scrapes every registry metric of one degrade→partition→heal " +
				"run into bounded per-metric series: counter deltas as rates, gauges as levels, histograms as windowed " +
				"rate/p50/p99 tracks. New utilization and backpressure instrumentation feeds it: per-WAN-core-hop " +
				"busy-fraction and queued-bytes, iovec pool occupancy, session channel backlogs, datagrid scheduler " +
				"depth and in-flight transfers, and store fsync backlog. This table summarizes each track (points, " +
				"peak, final value); the full point data is the -series JSON, rendered by the -dash dashboard. " +
				"Deterministic: the series JSON is bit-identical across reruns, pinned by TestDeterminismSeries " +
				"(GC-coupled pool-miss counts are marked volatile and excluded)."}},
}
