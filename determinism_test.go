// Determinism regression gate: every pinned table must stay
// bit-identical — virtual times, byte counts and job splits alike.
//
// The DataGrid/Group/WAN tables were captured on the pre-iovec tree
// (seed of PR 4) and run with weather *disabled*: the monitoring
// subsystem (PR 5) must be invisible until a testbed enables it, so
// any drift here means a weather-era change leaked events into static
// runs. The weather table itself cannot be pinned against constants
// the same way (it is new), so it is pinned against a double run: two
// complete WeatherBench executions must agree bit for bit, which is
// the "no wall-clock reads, no unseeded randomness in probes or
// schedules" contract. That double run is generic: TestDeterminismRegistry
// runs every entry of bench.Registry twice and compares everything the
// run can export; the named tests below add the seed-pinned constants,
// the traced variants and the behavioural assertions.
//
// CI runs `go test -run Determinism -count=2 .` so the whole gate is
// exercised twice per push.
package padico

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"padico/internal/bench"
	"padico/internal/datagrid"
	"padico/internal/grid"
	"padico/internal/scenario"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// runEntry executes one registry entry under obs.
func runEntry(t testing.TB, name string, obs scenario.Observers) *bench.Report {
	t.Helper()
	rep, err := bench.Lookup(name).Run(obs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// fingerprint renders everything a run can export: the printed table,
// the rows at full float precision (JSON prints the shortest exact
// representation, so any drift shows), and per environment the trace,
// the critical-path table and the series.
func fingerprint(t testing.TB, rep *bench.Report) string {
	t.Helper()
	rows, err := json.Marshal(rep.Rows)
	if err != nil {
		t.Fatalf("rows: %v", err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n%s\n", rep.Text, rows)
	for _, env := range rep.Envs {
		if env.Hub.Tracing() {
			b.Write(env.Hub.TraceJSON())
			b.WriteString(telemetry.FormatCriticalPaths(env.Hub.CriticalPaths(), 5))
		}
		if env.Sampler != nil {
			b.Write(env.Sampler.Series().JSON())
		}
	}
	return b.String()
}

// twice is the double-run check: two complete runs of an entry under
// the same observers must agree on every byte they can export. It
// returns the first run.
func twice(t *testing.T, name string, obs scenario.Observers) *bench.Report {
	t.Helper()
	first := runEntry(t, name, obs)
	a, b := fingerprint(t, first), fingerprint(t, runEntry(t, name, obs))
	if a != b {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Fatalf("%s drifted across reruns (%d vs %d bytes), first difference at byte %d:\n run1 ...%.200s\n run2 ...%.200s",
			name, len(a), len(b), i, a[i:], b[i:])
	}
	return first
}

// TestDeterminismRegistry double-runs every registered experiment.
func TestDeterminismRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	for _, e := range bench.Registry {
		t.Run(e.Name, func(t *testing.T) { twice(t, e.Name, scenario.Observers{}) })
	}
}

// fmtRow renders one datagrid/group table row with full float precision
// (%v prints the shortest exact representation, so any drift shows).
func fmtRow(r bench.DataGridResult) string {
	return fmt.Sprintf("streams=%d replicas=%d hier=%v ingest=%v converge=%v wanMB=%v circ=%d vlink=%d group=%d",
		r.Streams, r.Replicas, r.Hierarchical, r.IngestMBps, r.ConvergeS, r.WANMB,
		r.CircuitJobs, r.VLinkJobs, r.GroupJobs)
}

var seedDataGridTable = []string{
	"streams=1 replicas=2 hier=false ingest=227.7276362042672 converge=3.355014446 wanMB=16.778024 circ=2 vlink=4 group=0",
	"streams=4 replicas=2 hier=false ingest=227.7276362042672 converge=1.669431838 wanMB=16.778024 circ=2 vlink=4 group=0",
	"streams=4 replicas=3 hier=false ingest=227.7276362042672 converge=4.478756114 wanMB=33.556048 circ=2 vlink=8 group=0",
}

var seedGroupTable = []string{
	"streams=4 replicas=3 hier=false ingest=227.7276362042672 converge=4.478756114 wanMB=33.556048 circ=2 vlink=8 group=0",
	"streams=4 replicas=3 hier=true ingest=227.7276362042672 converge=4.09418192 wanMB=16.777432 circ=2 vlink=0 group=4",
}

func TestDeterminismDataGridTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full datagrid table run")
	}
	rows := runEntry(t, "datagrid", scenario.Observers{}).Rows.([]bench.DataGridResult)
	if len(rows) != len(seedDataGridTable) {
		t.Fatalf("table has %d rows, seed had %d", len(rows), len(seedDataGridTable))
	}
	for i, r := range rows {
		if got := fmtRow(r); got != seedDataGridTable[i] {
			t.Errorf("row %d drifted:\n got  %s\n seed %s", i, got, seedDataGridTable[i])
		}
	}
}

func TestDeterminismGroupTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full group table run")
	}
	rows := runEntry(t, "group", scenario.Observers{}).Rows.([]bench.DataGridResult)
	if len(rows) != len(seedGroupTable) {
		t.Fatalf("table has %d rows, seed had %d", len(rows), len(seedGroupTable))
	}
	for i, r := range rows {
		if got := fmtRow(r); got != seedGroupTable[i] {
			t.Errorf("row %d drifted:\n got  %s\n seed %s", i, got, seedGroupTable[i])
		}
	}
}

func TestDeterminismWANTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full WAN run")
	}
	w := runEntry(t, "wan", scenario.Observers{}).Rows.(bench.WANResult)
	const wantSingle, wantStriped = "8.942571519494994", "11.261711269578795"
	if got := fmt.Sprintf("%v", w.SingleMBps); got != wantSingle {
		t.Errorf("single-stream WAN rate drifted: got %s, seed %s", got, wantSingle)
	}
	if got := fmt.Sprintf("%v", w.StripedMBps); got != wantStriped {
		t.Errorf("striped WAN rate drifted: got %s, seed %s", got, wantStriped)
	}
}

// TestDeterminismWeatherTable checks what the adaptive-vs-static table
// must show (TestDeterminismRegistry pins it bit-identical across
// reruns): the adaptive row beats the static one on makespan and
// degraded-link bytes, and the adaptation events the acceptance
// criteria demand fire.
func TestDeterminismWeatherTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full weather table run")
	}
	rows := runEntry(t, "weather", scenario.Observers{}).Rows.([]bench.WeatherResult)
	if len(rows) != 2 {
		t.Fatalf("table has %d rows, want 2", len(rows))
	}
	static, adaptive := rows[0], rows[1]
	if static.Adaptive || !adaptive.Adaptive {
		t.Fatalf("row order changed: %+v / %+v", static, adaptive)
	}
	if adaptive.MakespanS >= static.MakespanS {
		t.Errorf("adaptive makespan %v not below static %v", adaptive.MakespanS, static.MakespanS)
	}
	if adaptive.DegradedLinkMB >= static.DegradedLinkMB {
		t.Errorf("adaptive moved %v MB over the degraded link, static %v",
			adaptive.DegradedLinkMB, static.DegradedLinkMB)
	}
	if adaptive.SourceSwitches == 0 || adaptive.Reselects == 0 || adaptive.Resumes == 0 {
		t.Errorf("adaptation events missing: %+v", adaptive)
	}
	if static.SourceSwitches != 0 || static.Reselects != 0 || static.Resumes != 0 {
		t.Errorf("static run adapted: %+v", static)
	}
}

// TestDeterminismStoreTable checks the store engine table (the pack
// engine's disk charges are simulated virtual time, and its bundle
// files live in a fresh temp dir each run, so the registry double run
// pins both rows): the pack ingest must trail the free in-memory map,
// and the corrupt-and-repair drill must quarantine both injected rots
// and lose nothing on either backend.
func TestDeterminismStoreTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full store table run")
	}
	rows := runEntry(t, "store", scenario.Observers{}).Rows.([]bench.StoreResult)
	if len(rows) != 2 {
		t.Fatalf("table has %d rows, want 2", len(rows))
	}
	memory, pack := rows[0], rows[1]
	if memory.Engine != "memory" || pack.Engine != "pack" {
		t.Fatalf("row order changed: %+v / %+v", memory, pack)
	}
	if pack.PutMBps >= memory.PutMBps {
		t.Errorf("pack ingest %v not below the free memory map %v (no disk charged?)",
			pack.PutMBps, memory.PutMBps)
	}
	for _, r := range rows {
		if r.Quarantined != r.Corrupted {
			t.Errorf("%s: audit caught %d of %d injected rots", r.Engine, r.Quarantined, r.Corrupted)
		}
		if r.Repaired < int64(r.Corrupted) {
			t.Errorf("%s: repaired %d < corrupted %d", r.Engine, r.Repaired, r.Corrupted)
		}
		if r.Lost != 0 {
			t.Errorf("%s: %d objects lost", r.Engine, r.Lost)
		}
	}
}

// TestDeterminismTrace checks the observed run (pinned byte-identical,
// trace JSON included, by the registry double run) actually covers the
// stack — a span (or instant) from every instrumented layer — and that
// the registry snapshot carries the per-layer latency histograms.
func TestDeterminismTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced run")
	}
	h := runEntry(t, "observed", scenario.Observers{}).Envs[0].Hub
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(h.TraceJSON(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	cats := make(map[string]bool)
	for _, sp := range h.Spans() {
		cats[sp.Cat] = true
	}
	for _, want := range []string{"ipstack", "session", "selector", "datagrid", "group", "weather"} {
		if !cats[want] {
			t.Errorf("no spans from layer %q in the trace (got %v)", want, cats)
		}
	}
	snap := h.Registry().Snapshot()
	byName := make(map[string]telemetry.Metric, len(snap))
	for _, m := range snap {
		byName[m.Name] = m
	}
	for _, want := range []string{
		"session.open_latency", "datagrid.transfer_latency",
		"group.op_latency", "weather.probe_rtt", "ipstack.rtt",
	} {
		m, ok := byName[want]
		if !ok || m.Count == 0 {
			t.Errorf("histogram %q missing or empty in snapshot (ok=%v count=%d)", want, ok, m.Count)
		}
	}
}

// TestDeterminismDataGridTrace double-runs the data-grid and group
// fan-out tables under span tracing — the same entries, observed — and
// asserts byte-identical traces.
func TestDeterminismDataGridTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced datagrid run")
	}
	twice(t, "datagrid", scenario.Observers{Trace: true})
	twice(t, "group", scenario.Observers{Trace: true})
}

// TestDeterminismWeatherTrace double-runs the weather table under span
// tracing and asserts byte-identical traces.
func TestDeterminismWeatherTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced weather run")
	}
	twice(t, "weather", scenario.Observers{Trace: true})
}

// TestDeterminismCritPathTable checks the observed workload's
// critical-path analysis (its table is part of the fingerprint the
// registry double run compares) is non-trivial: the table is not
// empty, every path covers its makespan, and some path crosses more
// than one layer.
func TestDeterminismCritPathTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced run")
	}
	paths := runEntry(t, "observed", scenario.Observers{}).Envs[0].Hub.CriticalPaths()
	if len(paths) == 0 {
		t.Fatal("no request roots in the trace")
	}
	if telemetry.FormatCriticalPaths(paths, 5) == "" {
		t.Fatal("critical-path table is empty")
	}
	multi := false
	for _, cp := range paths {
		layers := make(map[string]bool)
		for _, row := range cp.Rows {
			layers[row.Cat] = true
		}
		if len(layers) > 1 {
			multi = true
		}
		var covered vtime.Duration
		for _, sg := range cp.Segs {
			covered += sg.Dur
		}
		if covered != cp.Makespan {
			t.Errorf("path of span %d covers %v of a %v makespan", cp.RootID, covered, cp.Makespan)
		}
	}
	if !multi {
		t.Error("no critical path crosses a layer boundary")
	}
}

// TestDeterminismSLOTable checks the alert lifecycle the acceptance
// criteria demand of the SLO-monitored timeline (its alert table is
// pinned by the registry double run): the transfer-latency objective
// must both breach (degrade era) and clear (quiet tail), and the
// recovery-availability objective must breach while the site partition
// starves the repair loop of sources, then clear after the heal.
func TestDeterminismSLOTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full SLO-monitored run")
	}
	byName := make(map[string]telemetry.SLOStatus)
	for _, s := range runEntry(t, "slo", scenario.Observers{}).Envs[0].Monitor.Status() {
		byName[s.Name] = s
	}
	tr, ok := byName["datagrid-transfer-p99"]
	if !ok {
		t.Fatal("transfer-latency objective missing")
	}
	if tr.Breaches == 0 {
		t.Error("transfer-latency objective never breached across the degrade")
	}
	if tr.Clears == 0 {
		t.Error("transfer-latency alert never cleared in the quiet tail")
	}
	if tr.Breached {
		t.Error("transfer-latency alert still raised after the quiet tail")
	}
	rec, ok := byName["recovery-availability"]
	if !ok {
		t.Fatal("recovery-availability objective missing")
	}
	if rec.Breaches == 0 {
		t.Error("recovery-availability objective never breached across the site partition")
	}
	if rec.Clears == 0 {
		t.Error("recovery-availability alert never cleared after the heal")
	}
	if rec.Breached {
		t.Error("recovery-availability alert still raised after the heal tail")
	}
	for _, name := range []string{"repair-time-to-heal", "probe-availability"} {
		if s := byName[name]; s.Breached || s.Breaches != 0 {
			t.Errorf("objective %s breached (%+v) — the workload should hold it", name, s)
		}
	}
}

// TestDeterminismPartitionTable checks the crash-partition-and-heal
// table (pinned by the registry double run): every scenario must
// reconverge in finite virtual time with zero lost objects, the crash
// scenarios must actually move repair traffic, and the WAN partition
// must push bytes over the backup wire.
func TestDeterminismPartitionTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full failure-scenario run")
	}
	rows := runEntry(t, "partition", scenario.Observers{}).Rows.([]bench.PartitionResult)
	if len(rows) != 3 {
		t.Fatalf("table has %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Lost != 0 {
			t.Errorf("%s: %d objects lost after recovery", r.Scenario, r.Lost)
		}
		if r.DetectS <= 0 {
			t.Errorf("%s: non-positive detection time %v", r.Scenario, r.DetectS)
		}
		if r.RecoverS <= r.DetectS {
			t.Errorf("%s: reconvergence %v not after detection %v", r.Scenario, r.RecoverS, r.DetectS)
		}
		if r.MovedMB <= 0 {
			t.Errorf("%s: no bytes moved while healing", r.Scenario)
		}
	}
	if rows[0].Scenario != "node-crash" || rows[1].Scenario != "site-blackout" || rows[2].Scenario != "wan-partition" {
		t.Fatalf("row order changed: %+v", rows)
	}
	if rows[0].Repairs == 0 || rows[1].Repairs == 0 {
		t.Errorf("crash scenarios completed no repair transfers: %+v", rows[:2])
	}
	if rows[1].Repairs <= rows[0].Repairs {
		t.Errorf("site blackout repaired %d objects, single crash %d — blackout should lose more replicas",
			rows[1].Repairs, rows[0].Repairs)
	}
}

// TestDeterminismSeries checks the sampled timeline (its series JSON
// is pinned by the registry double run; volatile metrics — iovec pool
// misses, which depend on wall-clock GC timing — are excluded by the
// sampler, so that holds even though the underlying sync.Pool is
// nondeterministic). It asserts the coverage the acceptance criteria
// demand — tracks from at least six layers, including hop utilization,
// queue depth and pool occupancy — and that the degrade is visible in
// the data: the collapsed core's busy fraction after DegradeAt must
// dwarf its healthy-era level.
func TestDeterminismSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("full sampled run")
	}
	set := runEntry(t, "sampled", scenario.Observers{}).Envs[0].Sampler.Series()
	layers := make(map[string]bool)
	for _, tr := range set.Tracks() {
		if i := bytes.IndexByte([]byte(tr.Name), '.'); i > 0 {
			layers[tr.Name[:i]] = true
		}
	}
	if len(layers) < 6 {
		t.Errorf("series covers only %d layers: %v", len(layers), layers)
	}
	for _, want := range []string{
		"netsim.hop.core:vthd:site0+site1.busy_frac",
		"netsim.hop.core:vthd:site0+site1.queued_bytes",
		"iovec.pool_outstanding",
		"datagrid.sched_pending",
		"session.recv_backlog_msgs",
		"store.fsync_backlog_bytes",
		"datagrid.transfer_latency.p99",
	} {
		if set.Get(want) == nil {
			t.Errorf("track %q missing from the series", want)
		}
	}
	if set.Get("iovec.pool_misses") != nil {
		t.Error("volatile iovec.pool_misses leaked into the pinned series")
	}
	// The degrade must be visible: the collapsed core saturates right
	// after DegradeAt while the healthy era barely grazes it.
	busy := set.Get("netsim.hop.core:vthd:site0+site1.busy_frac")
	degradeAt := vtime.Time(0).Add(grid.DegradeAt)
	var before, after float64
	for _, p := range busy.Points() {
		if p.T <= degradeAt {
			if p.V > before {
				before = p.V
			}
		} else if p.V > after {
			after = p.V
		}
	}
	if after < 0.5 {
		t.Errorf("degraded core never saturated: peak busy fraction %v after degrade", after)
	}
	if before >= after/10 {
		t.Errorf("degrade not visible: healthy peak %v vs degraded peak %v", before, after)
	}
}

// TestTracePropagationConnectedTree is the tentpole acceptance test:
// one traced datagrid put over the degrading WAN must yield a single
// connected span tree — every span carrying the put's trace id is
// reachable from the put root through parent links, across node
// boundaries — and the tree must reach all the way down to TCP payload
// segments on every participating node (client, entry replica, fan-out
// replica).
func TestTracePropagationConnectedTree(t *testing.T) {
	g := grid.DegradingWAN(1) // node 0 = site0, 1 = site1, 2 = site2
	h := g.Telemetry()
	h.EnableTracing()
	dg := g.NewDataGrid(datagrid.Config{Replicas: 2, Streams: 4})
	ring := datagrid.NewRing(0)
	ring.Add(topology.NodeID(1), "site1")
	ring.Add(topology.NodeID(2), "site2")
	dg.SetRing(ring)
	payload := bytes.Repeat([]byte("causal"), 256<<10/6)
	if err := g.K.Run(func(p *vtime.Proc) {
		if err := dg.Put(p, 0, "traced", payload); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		dg.WaitSettled(p)
	}); err != nil {
		t.Fatalf("run: %v", err)
	}

	spans := h.Spans()
	var root *telemetry.SpanInfo
	for i := range spans {
		if spans[i].Cat == "datagrid" && spans[i].Name == "put" {
			if root != nil {
				t.Fatal("more than one put root")
			}
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatal("no put root span")
	}
	if root.Trace != root.ID {
		t.Fatalf("put span is not a trace root: trace %d, id %d", root.Trace, root.ID)
	}

	// Collect the request's spans and check the tree is connected: every
	// member's parent is another member (the root's parent is 0).
	members := make(map[int64]telemetry.SpanInfo)
	for _, sp := range spans {
		if sp.Trace == root.Trace {
			members[sp.ID] = sp
		}
	}
	if len(members) < 10 {
		t.Fatalf("suspiciously small request tree: %d spans", len(members))
	}
	nodes := make(map[int]bool)
	segNodes := make(map[int]bool)
	for _, sp := range members {
		nodes[sp.Tid] = true
		if sp.Cat == "ipstack" && sp.Name == "tcp.seg" {
			segNodes[sp.Tid] = true
		}
		if sp.ID == root.ID {
			if sp.Parent != 0 {
				t.Errorf("root has a parent: %d", sp.Parent)
			}
			continue
		}
		if sp.Parent == 0 {
			t.Errorf("span %d (%s/%s on node %d) is disconnected from the put root",
				sp.ID, sp.Cat, sp.Name, sp.Tid)
		} else if _, ok := members[sp.Parent]; !ok {
			t.Errorf("span %d (%s/%s on node %d) has parent %d outside the trace",
				sp.ID, sp.Cat, sp.Name, sp.Tid, sp.Parent)
		}
	}
	// The tree must span all three participants and carry TCP payload
	// segments on each: the client pushes chunks, the entry relays the
	// fan-out, and the far replica's credit/status frames ride TCP back.
	for _, n := range []int{0, 1, 2} {
		if !nodes[n] {
			t.Errorf("no spans from node %d in the request tree", n)
		}
		if !segNodes[n] {
			t.Errorf("no tcp.seg events from node %d in the request tree", n)
		}
	}
}
