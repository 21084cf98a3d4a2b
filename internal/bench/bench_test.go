package bench

import (
	"fmt"
	"math"
	"regexp"
	"testing"

	"padico/internal/scenario"
)

// rowsOf runs one registry entry plain and returns its typed rows.
func rowsOf[T any](t *testing.T, name string) T {
	t.Helper()
	rep, err := Lookup(name).Run(scenario.Observers{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep.Rows.(T)
}

// Stated tolerances of the reproduction against the published figures.
// The published numbers are the ones the tree already quotes: Table 1
// latencies and 1 MB bandwidths from the derivations in
// internal/model/model.go (which the Fig. 3 plateaus share), the §5
// claims from the "(paper: ...)" strings the entries print.
const (
	latencyTolUS = 1.25 // one-way latency, absolute: the GM framing adds ≈ 0.85 µs to every row
	bandwidthTol = 0.03 // 1 MB bandwidth, relative
)

// TestPaperFidelity asserts every reproduced paper number against the
// published one, on the same entries padico-bench prints.
func TestPaperFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper evaluation")
	}
	near := func(what string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.4g, published %.4g (tolerance ±%.3g)", what, got, want, tol)
		}
	}

	// Table 1: every row, latency and peak bandwidth.
	published := []struct {
		name     string
		onewayUS float64
		peakMBps float64
		fig3     string // the row's Figure 3 curve, if it has one
	}{
		{"Circuit", 8.4, 240, ""},
		{"VLink", 10.2, 239, ""},
		{"MPICH", 12.06, 238.7, "MPICH/Myrinet-2000"},
		{"omniORB 3", 20.3, 238.4, "omniORB-3.0.2/Myrinet-2000"},
		{"omniORB 4", 18.4, 235.8, "omniORB-4.0.0/Myrinet-2000"},
		{"Java sockets", 40, 237.9, "Java socket/Myrinet-2000"},
		{"Mico", 63, 55, "Mico-2.3.7/Myrinet-2000"},
		{"ORBacus", 54, 63, "ORBacus-4.0.5/Myrinet-2000"},
	}
	table := rowsOf[[]Row](t, "table1")
	if len(table) != len(published) {
		t.Fatalf("Table 1 has %d rows, the paper's has %d", len(table), len(published))
	}
	lat := make(map[string]float64)
	for i, want := range published {
		got := table[i]
		if got.Name != want.name {
			t.Fatalf("Table 1 row %d is %q, want %q", i, got.Name, want.name)
		}
		near(want.name+" one-way latency (µs)", got.OnewayUS, want.onewayUS, latencyTolUS)
		near(want.name+" peak bandwidth (MB/s)", got.PeakMBps, want.peakMBps, bandwidthTol*want.peakMBps)
		lat[got.Name] = got.OnewayUS
	}
	if lat["omniORB 3"] <= lat["omniORB 4"] {
		t.Errorf("omniORB 3 (%.2f µs) should be slower than omniORB 4 (%.2f µs)", lat["omniORB 3"], lat["omniORB 4"])
	}

	// Figure 3: the 1 MB plateau of every curve is its Table 1 bandwidth;
	// the Ethernet reference peaks around 11 MB/s.
	plateau := make(map[string]float64)
	for _, s := range rowsOf[[]Series](t, "fig3") {
		last := s.Points[len(s.Points)-1]
		if last.Size != 1<<20 {
			t.Fatalf("%s ends at %d bytes, want 1 MB", s.Name, last.Size)
		}
		plateau[s.Name] = last.MBps
	}
	for _, want := range published {
		if want.fig3 != "" {
			near(want.fig3+" 1 MB plateau (MB/s)", plateau[want.fig3], want.peakMBps, bandwidthTol*want.peakMBps)
		}
	}
	near("TCP/Ethernet-100 1 MB plateau (MB/s)", plateau["TCP/Ethernet-100 (reference)"], 11, 1)

	// §5 overheads: MadIO adds less than 0.1 µs over plain Madeleine
	// (header combining is what buys it), and MPICH costs the same in-
	// and outside PadicoTM.
	o := rowsOf[OverheadResult](t, "overhead")
	if o.MadIOCombinedUS <= 0 || o.MadIOCombinedUS >= 0.1 {
		t.Errorf("MadIO overhead = %+.3f µs, published < 0.1 µs", o.MadIOCombinedUS)
	}
	if o.MadIOSeparateUS <= o.MadIOCombinedUS {
		t.Errorf("header combining saves nothing: %+.3f µs without, %+.3f µs with", o.MadIOSeparateUS, o.MadIOCombinedUS)
	}
	near("MPICH inside PadicoTM (µs)", o.MPIPadicoUS, 12.06, latencyTolUS)
	near("MPICH inside vs outside PadicoTM (µs)", o.MPIPadicoUS, o.MPIDirectUS, 0.1)

	// §5 VTHD: one stream ≈ 9 MB/s, parallel streams up to the 12 MB/s
	// access-link cap.
	w := rowsOf[WANResult](t, "wan")
	near("single WAN stream (MB/s)", w.SingleMBps, 9, 0.5)
	near("parallel WAN streams (MB/s)", w.StripedMBps, 12, 1)
	if w.StripedMBps <= w.SingleMBps || w.StripedMBps > 12.2 {
		t.Errorf("parallel streams %.2f MB/s vs single %.2f MB/s: want faster, under the access-link cap", w.StripedMBps, w.SingleMBps)
	}

	// §5 lossy link: TCP ≈ 150 KB/s, VRP ≈ 500 KB/s, i.e. about 3×,
	// without exceeding the 10 % loss budget.
	v := rowsOf[VRPResult](t, "vrp")
	near("TCP on the lossy link (KB/s)", v.TCPKBps, 150, 50)
	near("VRP on the lossy link (KB/s)", v.VRPKBps, 500, 60)
	near("VRP speedup over TCP", v.VRPKBps/v.TCPKBps, 3, 0.5)
	if v.SkippedFrac > v.Tolerance {
		t.Errorf("VRP skipped %.1f%%, above its %.0f%% tolerance", v.SkippedFrac*100, v.Tolerance*100)
	}
}

// TestRegistry is the registry's self-check: names are unique, every
// entry is reachable (a flag of its own, or a sidecar written through
// an export flag), sidecars are distinct BENCH_<pr>.json files, and
// the default set is what a flagless padico-bench has always printed.
func TestRegistry(t *testing.T) {
	benchFile := regexp.MustCompile(`^BENCH_[1-9][0-9]*\.json$`)
	names := make(map[string]bool)
	files := make(map[string]bool)
	var defaults []string
	for _, e := range Registry {
		if e.Name == "" || names[e.Name] {
			t.Errorf("entry name %q is empty or duplicated", e.Name)
		}
		names[e.Name] = true
		if Lookup(e.Name) != e {
			t.Errorf("Lookup(%q) does not return the entry", e.Name)
		}
		if e.Run == nil {
			t.Errorf("%s: no Run", e.Name)
		}
		if e.Desc == "" && (e.Workload == "" || e.Sidecar == nil || e.Sidecar.On == e.Name) {
			t.Errorf("%s: no flag of its own and no export flag that reaches it", e.Name)
		}
		if e.Default {
			defaults = append(defaults, e.Name)
		}
		if s := e.Sidecar; s != nil {
			if !benchFile.MatchString(s.File()) || files[s.File()] {
				t.Errorf("%s: sidecar file %q is malformed or shared", e.Name, s.File())
			}
			files[s.File()] = true
			if s.Title == "" || s.Command == "" || s.Note == "" || s.On == "" {
				t.Errorf("%s: sidecar %s is missing a field", e.Name, s.File())
			}
			if e.Desc != "" && s.On != e.Name {
				t.Errorf("%s: sidecar is written by -%s, not by the entry's own flag", e.Name, s.On)
			}
		}
	}
	if got, want := fmt.Sprint(defaults), "[fig3 table1 overhead wan vrp datagrid group weather store]"; got != want {
		t.Errorf("default set = %s, want %s", got, want)
	}
	if Lookup("no-such-entry") != nil {
		t.Error("Lookup invented an entry")
	}
}
