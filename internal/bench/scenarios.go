// The extension scenarios: everything that runs a data grid on a
// wide-area testbed — replication, group fan-out, network weather,
// store engines, the fully observed run, the degrade → partition → heal
// timeline (SLO table and sampled series) and the failure scenarios.
package bench

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"padico/internal/datagrid"
	"padico/internal/grid"
	"padico/internal/group"
	"padico/internal/netsim"
	"padico/internal/scenario"
	"padico/internal/selector"
	"padico/internal/session"
	"padico/internal/telemetry"
	"padico/internal/telemetry/series"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// randomPayload is size incompressible bytes from a seeded source.
func randomPayload(seed int64, size int) []byte {
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// weatherPayload is compressible (a repeated pseudo-random block):
// AdOC on a degraded link is one of the adaptations under test.
func weatherPayload(size int) []byte {
	return bytes.Repeat(randomPayload(97, 512), size/512)
}

// ---------------------------------------------------------------------
// Data grid: striped bulk replication across the WAN (the heavy-traffic
// workload the paper's crossroads argument points at).

// DataGridResult is the outcome of one data-grid configuration on the
// lossy two-cluster WAN testbed.
type DataGridResult struct {
	Streams  int
	Replicas int
	// Hierarchical marks runs whose Put fan-out rode group.Multicast
	// over the two-tier spanning tree instead of point-to-point jobs.
	Hierarchical bool
	// IngestMBps is the aggregate client->first-replica PUT rate.
	IngestMBps float64
	// ConvergeS is the virtual time from the last PUT returning until
	// every object reached its full replica set.
	ConvergeS float64
	// WANMB is the total wide-area traffic of the run, both directions.
	WANMB float64
	// CircuitJobs / VLinkJobs split transfers by paradigm; GroupJobs
	// counts replication fan-outs served by one hierarchical multicast.
	CircuitJobs int64
	VLinkJobs   int64
	GroupJobs   int64
}

// DataGridSizes: objects per run and bytes per object.
const (
	DataGridObjects    = 4
	DataGridObjectSize = 4 << 20
	DataGridWANLoss    = 0.01
)

// shape is one data-grid configuration of the tables below.
type shape struct {
	streams, replicas int
	hierarchical      bool
}

func dataGridRun(rn *run, c shape) DataGridResult {
	res := DataGridResult{Streams: c.streams, Replicas: c.replicas, Hierarchical: c.hierarchical}
	set := scenario.Set{Prefix: "bench", N: DataGridObjects, Clients: 4, Data: randomPayload(42, DataGridObjectSize)}
	rn.do(scenario.Spec{
		Name:     "datagrid",
		Testbed:  grid.TwoClusterWANLoss(2, 2, DataGridWANLoss),
		DataGrid: &datagrid.Config{Replicas: c.replicas, Streams: c.streams, Hierarchical: c.hierarchical},
	}, func(env *scenario.Env, p *vtime.Proc) error {
		start := p.Now()
		if err := env.Put(p, set, 0); err != nil {
			return err
		}
		putDone := p.Now()
		res.IngestMBps = float64(DataGridObjects*DataGridObjectSize) / putDone.Sub(start).Seconds() / 1e6
		env.DG.WaitSettled(p)
		res.ConvergeS = p.Now().Sub(putDone).Seconds()
		st := env.DG.Stats()
		res.CircuitJobs, res.VLinkJobs, res.GroupJobs = st.CircuitTransfers, st.VLinkTransfers, st.GroupFanouts
		res.WANMB = float64(st.WANBytes) / 1e6
		return env.Verify(set)
	})
	return res
}

// dataGridTable runs one data-grid configuration per shape and opens
// the table text with its title line (the tables share the workload, so
// they share the title's tail).
func dataGridTable(rn *run, title string, cfgs ...shape) (*strings.Builder, []DataGridResult) {
	var rows []DataGridResult
	for _, c := range cfgs {
		rows = append(rows, dataGridRun(rn, c))
	}
	b := new(strings.Builder)
	fmt.Fprintf(b, "=== %s %d objects x %dMB, two clusters, %.0f%% WAN loss ===\n",
		title, DataGridObjects, DataGridObjectSize>>20, DataGridWANLoss*100)
	return b, rows
}

// dataGridBench measures aggregate ingest throughput and replication
// convergence versus stripe count and replica factor.
func dataGridBench(rn *run) *Report {
	b, rows := dataGridTable(rn, "Data grid:", shape{1, 2, false}, shape{4, 2, false}, shape{4, 3, false})
	fmt.Fprintf(b, "%8s %9s %14s %14s %14s %12s\n",
		"stripes", "replicas", "ingest MB/s", "converge (s)", "circuit jobs", "vlink jobs")
	for _, r := range rows {
		fmt.Fprintf(b, "%8d %9d %14.1f %14.2f %14d %12d\n",
			r.Streams, r.Replicas, r.IngestMBps, r.ConvergeS, r.CircuitJobs, r.VLinkJobs)
	}
	return &Report{Text: b.String(), Rows: rows}
}

// DataGridWallClock is one flat replica-3 striped datagrid run — the
// single configuration tracked by BenchmarkDataGridWallClock and
// BENCH_4.json.
func DataGridWallClock() (DataGridResult, error) {
	rn := &run{}
	return dataGridRun(rn, shape{4, 3, false}), rn.err
}

// groupBench is the flat-vs-hierarchical fan-out experiment: the same
// replica-3 workload, once with point-to-point fan-out and once with
// group.Multicast over the two-tier spanning tree. With two of the
// three replicas landing in the remote site, the tree pays one WAN
// crossing per object where the flat fan-out pays two — strictly fewer
// WAN bytes and a lower convergence makespan, deterministically.
func groupBench(rn *run) *Report {
	b, rows := dataGridTable(rn, "Group fan-out: replica factor 3,", shape{4, 3, false}, shape{4, 3, true})
	fmt.Fprintf(b, "%-13s %10s %14s %14s %12s %12s\n",
		"fan-out", "WAN MB", "ingest MB/s", "converge (s)", "group jobs", "vlink jobs")
	for _, r := range rows {
		mode := "flat"
		if r.Hierarchical {
			mode = "hierarchical"
		}
		fmt.Fprintf(b, "%-13s %10.1f %14.1f %14.2f %12d %12d\n",
			mode, r.WANMB, r.IngestMBps, r.ConvergeS, r.GroupJobs, r.VLinkJobs)
	}
	flat, hier := rows[0], rows[1]
	fmt.Fprintf(b, "hierarchical fan-out: %.1fx WAN bytes, %.1f%% lower makespan\n",
		hier.WANMB/flat.WANMB, 100*(1-hier.ConvergeS/flat.ConvergeS))
	return &Report{Text: b.String(), Rows: rows}
}

// ---------------------------------------------------------------------
// Network weather: adaptive vs static on a degrading WAN.

// WeatherResult is one row of the adaptive-vs-static table on the
// grid.DegradingWAN testbed.
type WeatherResult struct {
	// Adaptive marks the run with weather monitoring + adaptation on
	// (weather.Service + selector oracle + adaptive sessions +
	// forecast-ranked GET sources). The static run sees the *same*
	// fabric degradation with none of the adaptation.
	Adaptive bool
	// MakespanS is the whole workload's virtual time.
	MakespanS float64
	// StreamS is the completion time of the bulk stream that crosses
	// the degrade instant (the re-selection showcase).
	StreamS float64
	// GetS is the post-degrade GET phase duration (the source-switch
	// showcase).
	GetS float64
	// DegradedLinkMB counts bytes serialized onto the degraded
	// site0-site1 core — the currency adaptation saves.
	DegradedLinkMB float64
	// Adaptation events.
	SourceSwitches, Reselects, Resumes int64
}

// Weather workload shape.
const (
	WeatherObjects    = 4
	WeatherObjectSize = 4 << 20
	WeatherStreamSize = 6 << 20
	WeatherGetRounds  = 2
)

// The degrading-WAN scripts share two instants: the bulk stream starts
// shortly before the degrade, so half of it rides the degraded link
// (static) or a re-selected stack (adaptive); the GET phase starts once
// the forecasts converged on the new conditions.
var (
	streamStart   = scenario.At(grid.DegradeAt - 200*time.Millisecond)
	forecastsDone = scenario.At(grid.DegradeAt + 2*time.Second)
)

// remoteSites places on the two remote sites of DegradingWAN(2) (site0
// {0,1} holds the clients, site1 {2,3}, site2 {4,5}): every GET from
// site0 has a choice of remote source, which is exactly what the
// forecast ranking decides.
var remoteSites = []string{"site1", "site2"}

// streamAcross opens a session channel from node 0 to node 2 and pushes
// size compressible bytes through it in 128 KiB writes to a sink that
// reads them in one piece.
func streamAcross(env *scenario.Env, p *vtime.Proc, size int, opts ...session.Option) error {
	ch, err := env.G.Open(p, 0, 2, opts...)
	if err != nil {
		return err
	}
	pipe := scenario.Pipe{Write: scenario.W(ch.Write), Read: ch.Remote().ReadFull}
	_, err = env.Stream(p, pipe, weatherPayload(128<<10), size, size)
	ch.Close()
	ch.Remote().Close()
	return err
}

// weatherRun is one degrading-WAN workload: ingest before the degrade,
// a bulk stream across it, GETs after it. Everything is deterministic;
// the two runs differ only in whether anything adapts.
func weatherRun(rn *run, adaptive bool) WeatherResult {
	res := WeatherResult{Adaptive: adaptive}
	set := scenario.Set{Prefix: "w", N: WeatherObjects, Clients: 2, Data: weatherPayload(WeatherObjectSize)}
	rn.do(scenario.Spec{
		Name:      "weather",
		Testbed:   grid.DegradingWAN(2),
		Weather:   adaptive,
		DataGrid:  &datagrid.Config{Replicas: 2, Streams: 4, Adaptive: adaptive},
		RingSites: remoteSites,
	}, func(env *scenario.Env, p *vtime.Proc) error {
		// Phase 1 (healthy): ingest + replication from site0 clients.
		if err := env.Put(p, set, 0); err != nil {
			return err
		}
		env.DG.WaitSettled(p)
		if p.Now() >= streamStart {
			return errors.New("ingest ran past the degrade instant")
		}
		scenario.SleepUntil(p, streamStart)
		var opts []session.Option
		if adaptive {
			opts = append(opts, session.WithAdaptive())
		}
		if err := streamAcross(env, p, WeatherStreamSize, opts...); err != nil {
			return err
		}
		res.StreamS = p.Now().Sub(streamStart).Seconds()
		// The static run sleeps identically — same phase boundaries.
		scenario.SleepUntil(p, forecastsDone)
		// Phase 2 (degraded): every object has one replica behind the
		// degraded link and one behind a healthy one.
		getStart := p.Now()
		for r := 0; r < WeatherGetRounds; r++ {
			if err := env.Get(p, set, 0); err != nil {
				return err
			}
		}
		res.GetS = p.Now().Sub(getStart).Seconds()
		res.MakespanS = p.Now().Seconds()
		res.DegradedLinkMB = float64(env.G.CoreHop(grid.DegradedCore).Bytes) / 1e6
		res.SourceSwitches = env.DG.Stats().SourceSwitches
		res.Reselects = env.G.Session().Stats().Reselects
		res.Resumes = env.G.Session().Stats().Resumes
		return nil
	})
	return res
}

// weatherBench runs the degrading-WAN workload twice — static
// selection, then full adaptation — and reports both rows.
func weatherBench(rn *run) *Report {
	st, ad := weatherRun(rn, false), weatherRun(rn, true)
	var b strings.Builder
	fmt.Fprintf(&b, "=== Network weather: adaptive vs static on DegradingWAN (site0-site1 core /%d at t=%v) ===\n",
		grid.DegradeFactor, grid.DegradeAt)
	fmt.Fprintf(&b, "%-9s %12s %10s %9s %14s %11s %9s %8s\n",
		"mode", "makespan (s)", "stream (s)", "gets (s)", "degraded MB", "src-switch", "reselect", "resume")
	for _, r := range []WeatherResult{st, ad} {
		mode := "static"
		if r.Adaptive {
			mode = "adaptive"
		}
		fmt.Fprintf(&b, "%-9s %12.2f %10.2f %9.2f %14.1f %11d %9d %8d\n",
			mode, r.MakespanS, r.StreamS, r.GetS, r.DegradedLinkMB,
			r.SourceSwitches, r.Reselects, r.Resumes)
	}
	fmt.Fprintf(&b, "adaptive: %.1fx lower makespan, %.1fx fewer bytes over the degraded link\n",
		st.MakespanS/ad.MakespanS, st.DegradedLinkMB/ad.DegradedLinkMB)
	return &Report{Text: b.String(), Rows: []WeatherResult{st, ad}}
}

// ---------------------------------------------------------------------
// The fully observed run.

// MetricRow is one registry metric in the BENCH_6.json sidecar.
type MetricRow struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Value int64  `json:"value,omitempty"`
	Count int64  `json:"count,omitempty"`
	P50US int64  `json:"p50_us,omitempty"`
	P99US int64  `json:"p99_us,omitempty"`
	SumUS int64  `json:"sum_us,omitempty"`
}

// observed executes one fully observed degrading-WAN run: weather
// monitoring, an adaptive striped data grid with hierarchical fan-out,
// one explicit collective round (multicast + the three-wave barrier),
// and a bulk adaptive stream across the degrade instant, with span
// tracing on and a mid-run loss burst on the degraded core so the TCP
// recovery path appears in the trace too. Its rows are the registry
// snapshot, minus the metrics telemetry marks volatile (GC-coupled pool
// misses would make the sidecar unpinnable).
func observed(rn *run) *Report {
	rn.obs.Trace = true // whatever else the caller observes with
	g := grid.DegradingWAN(2)
	hop := g.CoreHop(grid.DegradedCore)
	netsim.ScheduleLoss(g.K, scenario.At(2*time.Second), hop, 0.03)
	netsim.ScheduleLoss(g.K, scenario.At(4*time.Second), hop, 0)
	set := scenario.Set{Prefix: "t", N: 4, Clients: 2, Data: weatherPayload(1 << 20)}
	env := rn.do(scenario.Spec{
		Name:      "observed",
		Testbed:   g,
		Weather:   true,
		DataGrid:  &datagrid.Config{Replicas: 3, Streams: 4, Adaptive: true, Hierarchical: true},
		RingSites: remoteSites,
	}, func(env *scenario.Env, p *vtime.Proc) error {
		// Phase 1 (healthy, then through the loss burst): ingest with
		// hierarchical replication.
		if err := env.Put(p, set, 0); err != nil {
			return err
		}
		env.DG.WaitSettled(p)
		// One explicit collective round on a cross-site group.
		grp, err := g.NewGroup([]topology.NodeID{0, 2, 4}, group.Config{})
		if err != nil {
			return err
		}
		if _, err := grp.Multicast(p, 0, "trace", set.Data[:256<<10], 1); err != nil {
			return err
		}
		if err := grp.Barrier(p); err != nil {
			return err
		}
		scenario.SleepUntil(p, streamStart)
		if err := streamAcross(env, p, 4<<20, session.WithAdaptive(), session.WithStreams(4)); err != nil {
			return err
		}
		// Phase 2 (degraded): the source ranking walks away from the
		// degraded site.
		scenario.SleepUntil(p, forecastsDone)
		return env.Get(p, set, 0)
	})
	if rn.err != nil {
		return nil
	}
	reg := env.Hub.Registry()
	var rows []MetricRow
	for _, m := range reg.Snapshot() {
		if reg.Volatile(m.Name) {
			continue
		}
		r := MetricRow{Name: m.Name, Kind: "counter", Value: m.Value}
		switch m.Kind {
		case telemetry.KindHistogram:
			r = MetricRow{Name: m.Name, Kind: "histogram", Count: m.Count,
				P50US: m.P50.Microseconds(), P99US: m.P99.Microseconds(), SumUS: m.Sum.Microseconds()}
		case telemetry.KindGauge:
			r.Kind = "gauge"
		}
		rows = append(rows, r)
	}
	return &Report{Rows: rows}
}

// ---------------------------------------------------------------------
// The degrade → partition → heal timeline, watched two ways: by the SLO
// monitor (-slo) and by the metric sampler (-series).

// SLOWindows are the burn-rate look-backs of every bench objective:
// short enough that the degrade-era transfers heat both windows within
// the run, long enough that one slow transfer alone does not page.
var SLOWindows = []vtime.Duration{vtime.Duration(2 * time.Second), vtime.Duration(8 * time.Second)}

// SLOObjectives are the stack's standing objectives as exercised by the
// slo entry: transfer latency on the data grid, repair time-to-heal on
// the anti-entropy loop, and probe availability on the weather service.
func SLOObjectives() []telemetry.Objective {
	return []telemetry.Objective{
		{
			Name: "datagrid-transfer-p99", Target: 0.99,
			Hist: "datagrid.transfer_latency", Threshold: vtime.Duration(500 * time.Millisecond),
			Windows: SLOWindows,
		},
		{
			Name: "repair-time-to-heal", Target: 0.90,
			Hist: "store.repair_latency", Threshold: vtime.Duration(5 * time.Second),
			Windows: SLOWindows,
		},
		{
			Name: "probe-availability", Target: 0.95,
			Bad:     "weather.probe_failures",
			Total:   []string{"weather.pings", "weather.bandwidth_probes"},
			Windows: SLOWindows,
		},
		{
			// Recovery availability: every repair pass that finds an
			// object with no reachable fresh replica books one bad event
			// (datagrid.lost_objects), every completed repair a good one
			// — so the objective burns for exactly as long as data is
			// unreachable and clears once the heal restores sources.
			Name: "recovery-availability", Target: 0.95,
			Bad:     "datagrid.lost_objects",
			Total:   []string{"datagrid.repairs", "datagrid.lost_objects"},
			Windows: SLOWindows,
		},
	}
}

const partitionDetectEvery = 500 * time.Millisecond

// timeline runs the one degrade → partition → heal script: a healthy
// ingest era (gap between puts), the same traffic after the
// DegradingWAN core collapsed, a quiet tail, then site1 — the only
// replica site, so every transfer crosses the collapsing core —
// partitioned for 6 s and healed. It reports the partition and heal
// instants. The two pinned sidecars differ in object prefix, put
// spacing, tail and engine only.
func timeline(rn *run, prefix string, gap, tail time.Duration, pack bool) (env *scenario.Env, partAt, healAt vtime.Time) {
	data := weatherPayload(1 << 20)
	cores := []string{"core:vthd:site0+site1", "core:vthd:site1+site2"}
	env = rn.do(scenario.Spec{
		Name:        prefix,
		Testbed:     grid.DegradingWAN(2),
		Weather:     true,
		DataGrid:    &datagrid.Config{Replicas: 2, Streams: 4, RepairInterval: time.Second},
		Pack:        pack,
		RingSites:   []string{"site1"},
		DetectEvery: partitionDetectEvery,
	}, func(env *scenario.Env, p *vtime.Proc) error {
		if err := env.Put(p, scenario.Set{Prefix: prefix + "-a", N: 4, Clients: 1, Data: data}, gap); err != nil {
			return err
		}
		env.DG.WaitSettled(p)
		scenario.SleepUntil(p, scenario.At(grid.DegradeAt+250*time.Millisecond))
		if err := env.Put(p, scenario.Set{Prefix: prefix + "-b", N: 4, Clients: 1, Data: data}, 0); err != nil {
			return err
		}
		env.DG.WaitSettled(p)
		// Quiet tail: no new transfers; windows cool, queues drain.
		p.Sleep(tail)
		// Every repair pass now finds the objects unreachable and books
		// lost-object events.
		partAt = p.Now()
		env.Injector().PartitionSite("site1", cores...)
		p.Sleep(6 * time.Second)
		// The detector re-adds the site, the still-fresh replicas count
		// again, and the repair wave re-verifies everything.
		healAt = p.Now()
		env.Injector().HealSite("site1", cores...)
		p.Sleep(6 * time.Second)
		return nil
	})
	return env, partAt, healAt
}

// SLORow is one objective in the BENCH_8.json sidecar.
type SLORow struct {
	Name     string    `json:"name"`
	Breaches int64     `json:"breaches"`
	Clears   int64     `json:"clears"`
	Breached bool      `json:"breached"`
	Burns    []float64 `json:"burns"`
}

// sloBench runs the timeline under the SLO monitor: the healthy era
// stays inside the latency budget, the degraded era burns it (breach),
// the quiet tail lets the short window cool (clear); the partition then
// breaches recovery-availability and the heal clears it.
func sloBench(rn *run) *Report {
	rn.obs.SLO = SLOObjectives() // whatever else the caller observes with
	env, _, _ := timeline(rn, "slo", 0, 4*time.Second, false)
	if rn.err != nil {
		return nil
	}
	var rows []SLORow
	for _, s := range env.Monitor.Status() {
		rows = append(rows, SLORow{Name: s.Name, Breaches: s.Breaches, Clears: s.Clears, Breached: s.Breached, Burns: s.Burns})
	}
	return &Report{Rows: rows, Text: "=== SLO monitor: virtual-time burn-rate alerts across the DegradingWAN degrade ===\n" +
		env.Monitor.FormatSLO()}
}

// SeriesInterval is the sampler cadence of the sampled entry: fine
// enough to resolve the degrade edge, coarse enough that a ~26s virtual
// run stays far inside one ring (no downsampling, every scrape a point).
const SeriesInterval = 250 * time.Millisecond

// TrackRow summarizes one track in the BENCH_10.json sidecar.
type TrackRow struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Unit   string  `json:"unit,omitempty"`
	Points int     `json:"points"`
	Peak   float64 `json:"peak"`
	Last   float64 `json:"last"`
}

// sampled runs the timeline under the metric sampler, on durable pack
// engines so the store layer has fsync backlog and bundle-byte activity
// to show, with spaced ingest so the rate tracks show a plateau rather
// than one spike. Its curves tell the whole story: healthy ingest, the
// core collapsing (hop busy-fraction saturates, queued bytes pile up,
// transfer p99 explodes), the partition (lost-object rate screams) and
// the heal (repair wave, queues drain).
func sampled(rn *run) *Report {
	if rn.obs.Sample <= 0 {
		rn.obs.Sample = SeriesInterval
	}
	env, partAt, healAt := timeline(rn, "ts", 300*time.Millisecond, 2*time.Second, true)
	if rn.err != nil {
		return nil
	}
	var rows []TrackRow
	for _, t := range env.Sampler.Series().Tracks() {
		_, hi := t.MinMax()
		rows = append(rows, TrackRow{Name: t.Name, Kind: t.Kind, Unit: t.Unit, Points: len(t.Points()), Peak: hi, Last: t.Last()})
	}
	return &Report{Rows: rows, Dash: series.DashOptions{
		Title:    "padico · DegradingWAN degrade → partition → heal",
		Subtitle: "3 sites × 2 nodes, VTHD core collapses 16× at 6s; site1 partitioned, then healed. Sampler cadence 250ms of virtual time.",
		Marks: []series.Mark{
			{T: scenario.At(grid.DegradeAt), Label: "degrade"},
			{T: partAt, Label: "partition"},
			{T: healAt, Label: "heal"},
		},
	}}
}

// ---------------------------------------------------------------------
// Failure scenarios: crash-partition-and-heal, the headline robustness
// bench. Three rows, three failure modes: one node crash, one whole
// site blackout, one WAN partition routed around on the backup wire.

// PartitionResult is one failure-scenario row of the -partition table.
type PartitionResult struct {
	Scenario string // what failed
	Testbed  string
	// DetectS is the fault instant to the first detected transition
	// (failure-detector sweep, or the weather forecast going Down).
	DetectS float64
	// RecoverS is the fault instant to full reconvergence: every object
	// verified at its replication factor again, or — for the WAN
	// partition — a full client read round completing on the rerouted
	// wire.
	RecoverS float64
	// MovedMB counts payload bytes moved while healing (re-replication
	// traffic), or wire bytes the backup WAN carried after the reroute.
	MovedMB float64
	// Repairs counts repair transfers completed while healing.
	Repairs int64
	// Lost is the number of objects with no reachable fresh replica
	// once recovery settled — the headline number, asserted zero.
	Lost int
}

const (
	partitionObjects    = 8
	partitionObjectSize = 1 << 20
	// partitionDeadline bounds every wait of a failure scenario.
	partitionDeadline = 120 * time.Second
)

// partitionBench runs the three failure scenarios end to end and
// reports time-to-detect, time-to-reconverge, bytes moved while
// healing, and lost objects (always zero).
func partitionBench(rn *run) *Report {
	rows := []PartitionResult{
		crashRecoveryRun(rn, "node-crash", false),
		crashRecoveryRun(rn, "site-blackout", true),
		wanPartitionRun(rn),
	}
	var b strings.Builder
	fmt.Fprintln(&b, "=== Failure scenarios: crash, blackout and partition with self-healing recovery ===")
	fmt.Fprintf(&b, "%-14s %-18s %11s %12s %10s %8s %6s\n",
		"scenario", "testbed", "detect (s)", "recover (s)", "moved MB", "repairs", "lost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-18s %11.3f %12.3f %10.2f %8d %6d\n",
			r.Scenario, r.Testbed, r.DetectS, r.RecoverS, r.MovedMB, r.Repairs, r.Lost)
	}
	return &Report{Text: b.String(), Rows: rows}
}

// crashRecoveryRun ingests a replicated working set on the three-site
// testbed, then kills the primary holder of the first object — alone,
// or with its whole site — and measures the self-heal: the detector
// shrinks the ring, the repair loop re-replicates every object that
// lost a copy from weather-ranked surviving sources, and the run ends
// when every object verifies at full replication again.
func crashRecoveryRun(rn *run, scenarioName string, wholeSite bool) PartitionResult {
	res := PartitionResult{Scenario: scenarioName, Testbed: "MultiSiteLoss(3x2)"}
	set := scenario.Set{Prefix: "part", N: partitionObjects, Clients: 1, Data: weatherPayload(partitionObjectSize)}
	rn.do(scenario.Spec{
		Name:        scenarioName,
		Testbed:     grid.MultiSiteLoss(3, 2, DataGridWANLoss),
		DataGrid:    &datagrid.Config{Replicas: 2, Streams: 4, RepairInterval: time.Second},
		DetectEvery: partitionDetectEvery,
	}, func(env *scenario.Env, p *vtime.Proc) error {
		dg := env.DG
		if err := env.Put(p, set, 0); err != nil {
			return err
		}
		dg.WaitSettled(p)
		meta, _ := dg.Meta("part-0")
		victim := meta.Targets[0]
		before := dg.Stats()
		tFault := p.Now()
		if wholeSite {
			env.Injector().CrashSite(env.G.Topo.Node(victim).Site)
		} else {
			env.Injector().CrashNode(victim)
		}
		deadline := tFault.Add(partitionDeadline)
		// Wait out the detection latency first: until the detector's
		// sweep shrinks the ring, the stale placement still "verifies".
		for env.DetectedAt == 0 {
			p.Sleep(100 * time.Millisecond)
			if p.Now() > deadline {
				return errors.New("crash never detected")
			}
		}
		for healed := false; !healed; {
			p.Sleep(250 * time.Millisecond)
			dg.WaitSettled(p)
			// Healed: every catalogued object verifies at its (current)
			// placement.
			healed = true
			for _, name := range dg.Objects() {
				healed = healed && dg.VerifyReplicas(name) == nil
			}
			if !healed && p.Now() > deadline {
				return errors.New("no reconvergence within 120s of virtual time")
			}
		}
		after := dg.Stats()
		res.DetectS = env.DetectedAt.Sub(tFault).Seconds()
		res.RecoverS = p.Now().Sub(tFault).Seconds()
		res.MovedMB = float64(after.BytesMoved-before.BytesMoved) / 1e6
		res.Repairs = after.Repairs - before.Repairs
		res.Lost = len(dg.LostObjects())
		return nil
	})
	return res
}

// wanPartitionRun stores the working set in the remote site of the
// dual-homed testbed (site0 {0,1}, site1 {2,3}; cores "core:vthd" +
// "core:backup"), cuts the primary WAN core, and measures how long
// client reads take to move onto the backup wire: the weather service
// marks the dead network down after consecutive probe failures, the
// selector's next decisions carry Decision.Network = backup, and sysio
// dials the alternate wire. The core is healed at the end and the
// catalog verified intact.
func wanPartitionRun(rn *run) PartitionResult {
	res := PartitionResult{Scenario: "wan-partition", Testbed: "DualWAN(2x2)"}
	set := scenario.Set{Prefix: "wan", N: partitionObjects / 2, Clients: 1, Data: weatherPayload(partitionObjectSize)}
	rn.do(scenario.Spec{
		Name:    "wan-partition",
		Testbed: grid.DualWAN(2),
		Weather: true,
		DataGrid: &datagrid.Config{
			Replicas: 2, Streams: 4, Adaptive: true,
			RetryTimeout: 5 * time.Second, RepairInterval: time.Second,
		},
		// Both replicas in site1: every client read from site0 crosses a WAN.
		RingSites: []string{"site1"},
	}, func(env *scenario.Env, p *vtime.Proc) error {
		dg := env.DG
		var downAt vtime.Time
		unsub := env.Weather.Subscribe(func(a, b topology.NodeID, nw *topology.Network, f selector.Forecast) {
			if f.Down && nw.Name == "vthd" && downAt == 0 {
				downAt = env.G.K.Now()
			}
		})
		defer unsub()
		backup := env.G.CoreHop("core:backup")
		// A read round tries every object even after a failure: the
		// reads themselves are what moves the sessions onto the backup
		// wire.
		getRound := func() bool {
			clean := true
			for i := 0; i < set.N; i++ {
				if _, err := dg.Get(p, 0, fmt.Sprintf("wan-%d", i)); err != nil {
					clean = false
				}
			}
			return clean
		}
		if err := env.Put(p, set, 0); err != nil {
			return err
		}
		dg.WaitSettled(p)
		if !getRound() { // healthy round across the primary
			return errors.New("healthy read round failed")
		}
		backupBefore := backup.Bytes
		tFault := p.Now()
		deadline := tFault.Add(partitionDeadline)
		env.Injector().PartitionCores("core:vthd")
		// Wait for the weather service to notice the dead wire, then
		// read until a full round lands on the backup.
		for downAt == 0 {
			if p.Now() > deadline {
				return errors.New("weather never marked the core down")
			}
			p.Sleep(250 * time.Millisecond)
		}
		for !getRound() {
			if p.Now() > deadline {
				return errors.New("reads never reconverged on the backup")
			}
			p.Sleep(250 * time.Millisecond)
		}
		res.DetectS = downAt.Sub(tFault).Seconds()
		res.RecoverS = p.Now().Sub(tFault).Seconds()
		res.MovedMB = float64(backup.Bytes-backupBefore) / 1e6
		env.Injector().HealCores("core:vthd")
		p.Sleep(time.Second)
		if !getRound() {
			return errors.New("read round failed after the heal")
		}
		res.Lost = len(dg.LostObjects())
		return nil
	})
	return res
}

// ---------------------------------------------------------------------
// Store: the durable pack engine vs the in-memory map, plus the
// corrupt-and-repair anti-entropy drill.

// StoreResult is one engine row of the -store table. Every row runs
// the same workload on the lossy two-cluster WAN: ingest StoreObjects
// objects, read them all back from a non-entry client, scrub every
// node once, then corrupt two needles and drive one full
// audit -> quarantine -> repair cycle.
type StoreResult struct {
	Engine string // "memory" | "pack"
	// PutMBps is the aggregate client->first-replica ingest rate; on
	// the pack engine this includes the simulated needle appends and
	// batched fsyncs, so it trails the memory row.
	PutMBps float64
	// GetMBps is the aggregate read-back rate from a remote client.
	GetMBps float64
	// ScrubS is one synchronous grid-wide audit pass (every replica
	// re-read and re-hashed, paced to the scrub rate bound).
	ScrubS float64
	// Corrupted needles were injected; Quarantined is what the next
	// audit pass caught (must equal Corrupted); Repaired counts copies
	// the anti-entropy loop restored; Lost must be zero.
	Corrupted   int
	Quarantined int
	Repaired    int64
	Lost        int
}

// StoreSizes: objects per run and bytes per object.
const (
	StoreObjects    = 8
	StoreObjectSize = 1 << 20
)

// storeBench runs the store table: the in-memory map and the durable
// pack engine under the identical datagrid workload. Deterministic on
// both rows — the pack engine's disk charges are simulated virtual
// time, not wall clock.
func storeBench(rn *run) *Report {
	rows := []StoreResult{storeRun(rn, "memory"), storeRun(rn, "pack")}
	var b strings.Builder
	fmt.Fprintf(&b, "=== Store engines: %d objects x %dMB, replicas 2, two clusters, %.0f%% WAN loss ===\n",
		StoreObjects, StoreObjectSize>>20, DataGridWANLoss*100)
	fmt.Fprintf(&b, "%-8s %11s %11s %10s %10s %12s %10s %6s\n",
		"engine", "put MB/s", "get MB/s", "scrub (s)", "corrupted", "quarantined", "repaired", "lost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %11.1f %11.1f %10.3f %10d %12d %10d %6d\n",
			r.Engine, r.PutMBps, r.GetMBps, r.ScrubS, r.Corrupted, r.Quarantined, r.Repaired, r.Lost)
	}
	return &Report{Text: b.String(), Rows: rows}
}

func storeRun(rn *run, engine string) StoreResult {
	res := StoreResult{Engine: engine}
	set := scenario.Set{Prefix: "st", N: StoreObjects, Clients: 4, Data: randomPayload(7, StoreObjectSize)}
	const total = StoreObjects * StoreObjectSize
	rn.do(scenario.Spec{
		Name:     "store/" + engine,
		Testbed:  grid.TwoClusterWANLoss(2, 2, DataGridWANLoss),
		DataGrid: &datagrid.Config{Replicas: 2, Streams: 4},
		Pack:     engine == "pack",
	}, func(env *scenario.Env, p *vtime.Proc) error {
		dg := env.DG
		start := p.Now()
		if err := env.Put(p, set, 0); err != nil {
			return err
		}
		dg.WaitSettled(p)
		res.PutMBps = float64(total) / p.Now().Sub(start).Seconds() / 1e6

		gs := p.Now()
		if err := env.Get(p, set, 1); err != nil {
			return err
		}
		res.GetMBps = float64(total) / p.Now().Sub(gs).Seconds() / 1e6

		ss := p.Now()
		if n := dg.AuditNow(p); n != 0 {
			return fmt.Errorf("clean scrub quarantined %d", n)
		}
		res.ScrubS = p.Now().Sub(ss).Seconds()

		// The drill: two needles rot on different nodes; one audit pass
		// quarantines both, one repair pass restores the replication
		// factor, and nothing is lost.
		for _, i := range []int{1, 5} {
			name := fmt.Sprintf("st-%d", i)
			if !dg.EngineOn(dg.Holders(name)[i%2]).Corrupt(name) {
				return errors.New("could not corrupt " + name)
			}
		}
		res.Corrupted = 2
		res.Quarantined = dg.AuditNow(p)
		dg.RepairNow(p)
		dg.WaitSettled(p)
		if err := env.Verify(set); err != nil {
			return err
		}
		res.Lost = len(dg.LostObjects())
		res.Repaired = dg.Stats().Repairs
		return nil
	})
	return res
}
