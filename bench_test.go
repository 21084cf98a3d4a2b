// Benchmarks regenerating the paper's evaluation (§5): one benchmark
// per table/figure plus the ablations. Metrics are reported in
// simulated (virtual-time) units: vMB/s and v-µs — see DESIGN.md §4.
// Run with: go test -bench=. -benchmem
package padico

import (
	"strings"
	"testing"

	"padico/internal/bench"
	"padico/internal/orb"
	"padico/internal/scenario"
)

// rows runs one registry entry plain and returns its typed rows.
func rows[T any](b *testing.B, entry string) T {
	return runEntry(b, entry, scenario.Observers{}).Rows.(T)
}

// metric builds a whitespace-free metric unit name.
func metric(prefix, name string) string {
	name = strings.NewReplacer(" ", "_", "/", "_").Replace(name)
	return prefix + ":" + name
}

// BenchmarkFig3 regenerates every curve of Figure 3 (bandwidth vs
// message size over Myrinet-2000, plus the Ethernet reference).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range rows[[]bench.Series](b, "fig3") {
			last := s.Points[len(s.Points)-1]
			b.ReportMetric(last.MBps, metric("vMB_s@1MB", s.Name[:6]))
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (one-way latency and peak
// bandwidth per API/middleware over Myrinet-2000).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range rows[[]bench.Row](b, "table1") {
			b.ReportMetric(r.OnewayUS, metric("v-us", r.Name))
		}
	}
}

// BenchmarkOverhead regenerates §5 ¶3: MadIO over Madeleine < 0.1 µs,
// and MPICH-in-Padico vs standalone.
func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := rows[bench.OverheadResult](b, "overhead")
		b.ReportMetric(o.MadIOCombinedUS, "v-us-madio-combined")
		b.ReportMetric(o.MadIOSeparateUS, "v-us-madio-separate")
		b.ReportMetric(o.MPIPadicoUS, "v-us-mpi-padico")
		b.ReportMetric(o.MPIDirectUS, "v-us-mpi-direct")
	}
}

// BenchmarkWAN regenerates §5 ¶4: single stream ~9 MB/s vs parallel
// streams ~12 MB/s on the VTHD-like WAN.
func BenchmarkWAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := rows[bench.WANResult](b, "wan")
		b.ReportMetric(w.SingleMBps, "vMB_s-single")
		b.ReportMetric(w.StripedMBps, "vMB_s-striped")
	}
}

// BenchmarkVRP regenerates §5 ¶5: TCP ~150 KB/s vs VRP ~500 KB/s on the
// lossy trans-continental link.
func BenchmarkVRP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := rows[bench.VRPResult](b, "vrp")
		b.ReportMetric(v.TCPKBps, "vKB_s-tcp")
		b.ReportMetric(v.VRPKBps, "vKB_s-vrp")
		b.ReportMetric(v.VRPKBps/v.TCPKBps, "x-speedup")
	}
}

// BenchmarkAblationORBProfiles isolates the marshalling-copy effect
// (zero-copy omniORB vs copying Mico) at 1 MB.
func BenchmarkAblationORBProfiles(b *testing.B) {
	profiles := []orb.Profile{orb.OmniORB4, orb.Mico}
	for i := 0; i < b.N; i++ {
		for _, pr := range profiles {
			_, mbps, err := bench.ORBOnMyrinet(pr).Measure(1<<20, 8)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(mbps, metric("vMB_s", pr.Name))
		}
	}
}

// BenchmarkAblationHeaderCombining isolates §4.1's header-combining
// design choice at the MadIO layer.
func BenchmarkAblationHeaderCombining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := rows[bench.OverheadResult](b, "overhead")
		b.ReportMetric(o.MadIOSeparateUS-o.MadIOCombinedUS, "v-us-saved")
	}
}

// BenchmarkDataGridWallClock is the hot-path allocation benchmark: one
// flat replica-3 striped datagrid run per iteration. Virtual-time
// metrics are pinned by determinism_test.go; allocs/op and B/op (run
// with -benchmem) are the zero-copy segment path's scoreboard.
func BenchmarkDataGridWallClock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.DataGridWallClock()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.IngestMBps, "vMB_s-ingest")
		b.ReportMetric(r.ConvergeS, "v-s-converge")
	}
}

// BenchmarkTCPBulk isolates the ipstack segment path: 8 MB through one
// raw TCP connection across the WAN testbed.
func BenchmarkTCPBulk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mbps, err := bench.TCPBulk()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mbps, "vMB_s")
	}
}

// BenchmarkGroupFanout runs the flat-vs-hierarchical replication
// fan-out experiment (replica factor 3 on the lossy two-cluster WAN):
// the spanning tree must move fewer WAN bytes and converge sooner.
func BenchmarkGroupFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range rows[[]bench.DataGridResult](b, "group") {
			mode := "flat"
			if r.Hierarchical {
				mode = "hier"
			}
			b.ReportMetric(r.WANMB, metric("vWAN_MB", mode))
			b.ReportMetric(r.ConvergeS, metric("v-s-converge", mode))
		}
	}
}

// BenchmarkWeather runs the adaptive-vs-static degrading-WAN workload
// (see BENCH_5.json): the adaptive run must finish sooner and move
// fewer bytes over the degraded core.
func BenchmarkWeather(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range rows[[]bench.WeatherResult](b, "weather") {
			mode := "static"
			if r.Adaptive {
				mode = "adaptive"
			}
			b.ReportMetric(r.MakespanS, metric("v-s-makespan", mode))
			b.ReportMetric(r.DegradedLinkMB, metric("vMB-degraded", mode))
		}
	}
}
