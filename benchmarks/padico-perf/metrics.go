package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (a unit test holds the two
// together) and adds the regression bounds.
type metricDef struct {
	name, unit string
	clock      string // "host", "virtual", or "" for counts
}

// endToEndMetrics are printed by the measured pass (--trace 0), the
// same names on every workload. All host-time numbers are medians over
// the measured iterations of the run.
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "host"},
	{"wall_p75_s", "s", "host"},
	{"allocs_per_iter", "count", ""},
	{"alloc_mb_per_iter", "MB", ""},
	{"live_heap_mb", "MB", ""},
	{"setup_s", "s", "host"},
}

// perLayerMetrics are printed by the traced pass (--trace 1). A metric
// that the workload's layers or ladder do not produce reads 0.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"sim_s", "virtual_s", "virtual"},
		{"vtime.events_fired", "count", ""},
		{"vtime.proc_switches", "count", ""},
		{"vtime.procs_spawned", "count", ""},
		{"vtime.host_events_per_s", "1/s", "host"},
		{"vtime.ns_per_event", "ns", "host"},
		{"vtime.ns_per_switch", "ns", "host"},
		{"netsim.ns_per_packet_san", "ns", "host"},
		{"netsim.ns_per_packet_wan", "ns", "host"},
		{"netsim.drops", "count", ""},
		{"netsim.core_busy_frac", "frac", "virtual"},
		{"ipstack.ns_per_mb", "ns/MiB", "host"},
		{"ipstack.self_ns_per_mb", "ns/MiB", "host"},
		{"ipstack.allocs_per_segment", "count", ""},
		{"ipstack.tcp_segs_sent", "count", ""},
		{"ipstack.tcp_retransmits", "count", ""},
		{"iovec.pool_gets", "count", ""},
		{"iovec.pool_misses", "count", ""},
		{"iovec.pool_unpooled", "count", ""},
		{"iovec.pool_hit_ratio", "frac", ""},
	}
	for _, layer := range []string{"madeleine", "netaccess", "circuit", "vlink", "session", "mpi", "orb"} {
		defs = append(defs,
			metricDef{layer + ".ns_per_msg", "ns", "host"},
			metricDef{layer + ".self_ns_per_msg", "ns", "host"},
			metricDef{layer + ".ns_per_mb", "ns/MiB", "host"},
			metricDef{layer + ".self_ns_per_mb", "ns/MiB", "host"},
			metricDef{layer + ".alloc_bytes_per_payload_byte", "B/B", ""})
	}
	return append(defs,
		metricDef{"session.open_ns", "ns", "host"},
		metricDef{"session.opens", "count", ""},
		metricDef{"session.circuit_reuses", "count", ""},
		metricDef{"session.wan_self_ns_per_mb", "ns/MiB", "host"},
		metricDef{"vlink.wan_ns_per_mb", "ns/MiB", "host"},
		metricDef{"vlink.wan_self_ns_per_mb", "ns/MiB", "host"},
		metricDef{"pstreams.self_ns_per_mb", "ns/MiB", "host"},
		metricDef{"adoc.self_ns_per_mb", "ns/MiB", "host"},
		metricDef{"gsec.self_ns_per_mb", "ns/MiB", "host"},
		metricDef{"group.ns_per_mb", "ns/MiB", "host"},
		metricDef{"group.multicasts", "count", ""},
		metricDef{"group.edges_opened", "count", ""},
		metricDef{"group.wan_bytes", "B", ""},
		metricDef{"datagrid.put_wall_s", "s", "host"},
		metricDef{"datagrid.settle_wall_s", "s", "host"},
		metricDef{"datagrid.get_wall_s", "s", "host"},
		metricDef{"datagrid.verify_wall_s", "s", "host"},
		metricDef{"datagrid.jobs", "count", ""},
		metricDef{"datagrid.retries", "count", ""},
		metricDef{"datagrid.failures", "count", ""},
		metricDef{"datagrid.bytes_moved", "B", ""},
		metricDef{"datagrid.wan_bytes", "B", ""},
		metricDef{"datagrid.group_fanouts", "count", ""},
		metricDef{"datagrid.alloc_bytes_per_payload_byte", "B/B", ""},
		metricDef{"store.put_ns_per_mb", "ns/MiB", "host"},
		metricDef{"store.delete_ns_per_op", "ns", "host"},
		metricDef{"store.reopen_ns_per_needle", "ns", "host"},
		metricDef{"store.cold_read_ns_per_mb", "ns/MiB", "host"},
		metricDef{"store.warm_read_ns_per_mb", "ns/MiB", "host"},
		metricDef{"store.verify_ns_per_mb", "ns/MiB", "host"},
		metricDef{"store.needles_written", "count", ""},
		metricDef{"store.tombstones", "count", ""},
		metricDef{"store.bundle_bytes", "B", ""},
		metricDef{"store.bundle_rolls", "count", ""},
		metricDef{"store.cold_loads", "count", ""},
		metricDef{"store.alloc_bytes_per_payload_byte", "B/B", ""},
		metricDef{"grid.build_s", "s", "host"},
		metricDef{"telemetry.hub_on_overhead_frac", "frac", "host"},
		metricDef{"telemetry.spans_per_iter", "count", ""},
		metricDef{"harness.span_overhead_frac", "frac", "host"},
		metricDef{"harness.iters", "count", ""},
		metricDef{"harness.gomaxprocs", "count", ""},
	)
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run of one workload ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(defs []metricDef, values map[string]float64, attempted, failed int) *result {
	r := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	return r
}

// endToEnd folds the measured pass into the end-to-end metrics.
func endToEnd(s *samples) *result {
	n := float64(s.n())
	return newResult(endToEndMetrics, map[string]float64{
		"wall_s":            median(s.wall),
		"wall_p75_s":        percentile(s.wall, 0.75),
		"allocs_per_iter":   s.mallocs / n,
		"alloc_mb_per_iter": s.allocBytes / n / 1e6,
		"live_heap_mb":      median(s.liveHeap),
		"setup_s":           median(s.setup),
	}, s.attempted, s.failed)
}

// perLayer folds the traced pass into the per-layer metrics: counters
// and phase spans of the traced iterations, the workload's ladder, and
// the cost of the harness's own spans against the untraced iterations
// run beside them.
func perLayer(w *workload, plain, traced *samples, ladder map[string]float64) *result {
	v := map[string]float64{}
	for name, xs := range traced.counters {
		v[name] = median(xs)
	}
	for name, xs := range traced.observed {
		v[name] = median(xs)
	}
	for name, x := range ladder {
		v[name] = x
	}
	wall, n := median(plain.wall), float64(traced.n())
	v["sim_s"] = float64(traced.simNs) / 1e9
	v["vtime.host_events_per_s"] = v["vtime.events_fired"] / wall
	if gets := v["iovec.pool_gets"]; gets > 0 {
		v["iovec.pool_hit_ratio"] = 1 - v["iovec.pool_misses"]/gets
	}
	if traced.simNs > 0 {
		v["netsim.core_busy_frac"] = v["netsim.core_busy_ns"] / float64(traced.simNs)
	}
	if layer := allocLayer[w.name]; layer != "" && traced.payloadBytes > 0 {
		v[layer+".alloc_bytes_per_payload_byte"] = plain.allocBytes / float64(plain.n()) / float64(traced.payloadBytes)
	}
	v["grid.build_s"] = median(plain.gridBuild)
	v["harness.span_overhead_frac"] = median(traced.wall)/wall - 1
	v["harness.iters"] = n
	v["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	return newResult(perLayerMetrics, v, plain.attempted+traced.attempted, plain.failed+traced.failed)
}

// allocLayer names the layer whose copies a workload's allocation
// volume is charged to: bytes allocated per payload byte it was asked
// to move.
var allocLayer = map[string]string{"grid-replicate": "datagrid", "store-churn": "store"}

// printTable writes the human-readable rows: every metric by name with
// its value, unit, the clock it was read on and the sample count.
func printTable(w io.Writer, workload string, defs []metricDef, r *result, samples int, simS float64) {
	fmt.Fprintf(w, "%s: ops_attempted=%d ops_failed=%d correct=%v iterations=%d sim_s=%.9f (virtual clock, identical in every iteration)\n",
		workload, r.Attempted, r.Failed, r.Correct, samples, simS)
	for _, d := range defs {
		m := r.Metrics[d.name]
		if m.Value == 0 && strings.Contains(d.name, ".") {
			continue // a layer this workload does not exercise
		}
		clock := d.clock
		if clock == "" {
			clock = "-"
		}
		fmt.Fprintf(w, "  %-44s %18.6f %-10s clock=%-8s n=%d\n", workload+"/"+d.name, m.Value, m.Unit, clock, samples)
	}
}

// printLayers writes the span table of a traced run.
func printLayers(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "  %-12s %-16s %10s %16s %16s  (host clock, all traced iterations)\n", "layer", "span", "count", "inclusive_ns", "self_ns")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %-16s %10d %16.0f %16.0f\n", r.Layer, r.Name, r.Count, r.InclNs, r.SelfNs)
	}
}
