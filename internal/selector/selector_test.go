package selector

import (
	"testing"
	"time"

	"padico/internal/topology"
)

// testGrid builds: site A {n0,n1} with myrinet+sci+ethernet; site B
// {n2} reachable via WAN; n3 isolated on a lossy internet link with n2.
func testGrid() *topology.Grid {
	g := topology.New()
	myri := g.AddNetwork("myri", topology.Myrinet, true, 250e6, 2*time.Microsecond, 0, 0)
	sci := g.AddNetwork("sci", topology.SCI, true, 180e6, time.Microsecond, 0, 0)
	eth := g.AddNetwork("eth", topology.Ethernet, true, 12.5e6, 30*time.Microsecond, 0, 1500)
	wan := g.AddNetwork("wan", topology.WAN, false, 12.2e6, 8*time.Millisecond, 0, 1500)
	inet := g.AddNetwork("inet", topology.Internet, false, 600e3, 25*time.Millisecond, 0.05, 1500)

	n0 := g.AddNode("n0", "A")
	n1 := g.AddNode("n1", "A")
	n2 := g.AddNode("n2", "B")
	n3 := g.AddNode("n3", "C")
	for _, n := range []*topology.Node{n0, n1} {
		g.Attach(n, myri)
		g.Attach(n, sci)
		g.Attach(n, eth)
		g.Attach(n, wan)
	}
	g.Attach(n2, wan)
	g.Attach(n2, inet)
	g.Attach(n3, inet)
	return g
}

func TestSANPreferenceOrder(t *testing.T) {
	g := testGrid()
	d, err := Select(g, Request{Src: 0, Dst: 1, QoS: DefaultQoS()})
	if err != nil {
		t.Fatal(err)
	}
	if d.Network.Kind != topology.Myrinet || d.Method != "madio" {
		t.Fatalf("want Myrinet/madio, got %v", d)
	}
	if d.Secure || d.Compress {
		t.Fatalf("no wrappers expected on a secure fast SAN: %v", d)
	}
}

func TestWANGetsStreamsAndCipher(t *testing.T) {
	g := testGrid()
	d, err := Select(g, Request{Src: 0, Dst: 2, QoS: DefaultQoS()})
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != "pstreams" || d.Streams != 4 || !d.Secure {
		t.Fatalf("want pstreams x4 + gsec, got %v", d)
	}
}

func TestLossyLinkPolicies(t *testing.T) {
	g := testGrid()
	prefs := DefaultQoS()
	d, _ := Select(g, Request{Src: 2, Dst: 3, QoS: prefs})
	if d.Method != "sysio" || !d.Compress || !d.Secure {
		t.Fatalf("default lossy decision = %v", d)
	}
	prefs.LossTolerance = 0.1
	d, _ = Select(g, Request{Src: 2, Dst: 3, QoS: prefs})
	if d.Method != "vrp" {
		t.Fatalf("loss-tolerant decision = %v", d)
	}
	prefs.Cipher = CipherNever
	prefs.Compress = false
	d, _ = Select(g, Request{Src: 2, Dst: 3, QoS: prefs})
	if d.Secure || d.Compress {
		t.Fatalf("disabled wrappers still chosen: %v", d)
	}
}

func TestCipherAlways(t *testing.T) {
	g := testGrid()
	prefs := DefaultQoS()
	prefs.Cipher = CipherAlways
	d, _ := Select(g, Request{Src: 0, Dst: 1, QoS: prefs})
	if !d.Secure {
		t.Fatal("cipher=always ignored on SAN")
	}
}

func TestNoCommonNetwork(t *testing.T) {
	g := testGrid()
	if _, err := Select(g, Request{Src: 0, Dst: 3, QoS: DefaultQoS()}); err == nil {
		t.Fatal("disconnected pair got a decision")
	}
}

func TestSelfIsLoopback(t *testing.T) {
	g := testGrid()
	d, err := Select(g, Request{Src: 1, Dst: 1, QoS: DefaultQoS()})
	if err != nil || d.Method != "loopback" {
		t.Fatalf("self decision = %v, %v", d, err)
	}
}

func TestDecisionString(t *testing.T) {
	g := testGrid()
	d, _ := Select(g, Request{Src: 0, Dst: 2, QoS: DefaultQoS()})
	s := d.String()
	if s == "" {
		t.Fatal("empty decision string")
	}
	for _, want := range []string{"pstreams", "x4", "+gsec"} {
		if !contains(s, want) {
			t.Fatalf("decision string %q missing %q", s, want)
		}
	}
}

func TestClassify(t *testing.T) {
	g := testGrid()
	cases := []struct {
		a, b topology.NodeID
		want PathClass
	}{
		{0, 0, PathLocal}, // same node
		{1, 1, PathLocal}, // same node, non-zero id
		{0, 1, PathSAN},   // same-cluster SAN (myrinet beats sci and eth)
		{0, 2, PathWAN},   // cross-cluster WAN
		{2, 0, PathWAN},   // classification is symmetric
		{2, 3, PathLossy}, // lossy internet only
	}
	for _, c := range cases {
		got, err := Classify(g, c.a, c.b)
		if err != nil {
			t.Fatalf("Classify(%d,%d): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Classify(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if _, err := Classify(g, 0, 3); err == nil {
		t.Fatal("disconnected pair classified")
	}
}

// TestClassifyLANPreferredOverWAN pins the same-site non-SAN case: two
// nodes sharing ethernet and wan classify as LAN.
func TestClassifyLANPreferredOverWAN(t *testing.T) {
	g := topology.New()
	eth := g.AddNetwork("eth", topology.Ethernet, true, 12.5e6, 30*time.Microsecond, 0, 1500)
	wan := g.AddNetwork("wan", topology.WAN, false, 12.2e6, 8*time.Millisecond, 0, 1500)
	a := g.AddNode("a", "A")
	b := g.AddNode("b", "A")
	for _, n := range []*topology.Node{a, b} {
		g.Attach(n, eth)
		g.Attach(n, wan)
	}
	got, err := Classify(g, a.ID, b.ID)
	if err != nil || got != PathLAN {
		t.Fatalf("Classify = %v, %v; want lan", got, err)
	}
	if got.String() != "lan" {
		t.Fatalf("String() = %q", got.String())
	}
}

// TestClassifyAgreesWithSelect ensures the paradigm classification and
// the concrete driver decision never diverge on the canonical cases
// datagrid relies on.
func TestClassifyAgreesWithSelect(t *testing.T) {
	g := testGrid()
	pairs := [][2]topology.NodeID{{0, 1}, {0, 2}, {2, 3}, {1, 1}}
	for _, pr := range pairs {
		cls, err := Classify(g, pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Select(g, Request{Src: pr[0], Dst: pr[1], QoS: DefaultQoS()})
		if err != nil {
			t.Fatal(err)
		}
		switch cls {
		case PathSAN:
			if dec.Method != "madio" {
				t.Errorf("pair %v: class san but method %q", pr, dec.Method)
			}
		case PathLocal:
			if dec.Method != "loopback" {
				t.Errorf("pair %v: class local but method %q", pr, dec.Method)
			}
		case PathWAN:
			if dec.Method != "pstreams" && dec.Method != "sysio" {
				t.Errorf("pair %v: class wan but method %q", pr, dec.Method)
			}
		}
	}
}

// TestSelectValidatesQoS: malformed QoS is an error at selection time,
// never a silent fallthrough to a weaker stack.
func TestSelectValidatesQoS(t *testing.T) {
	g := testGrid()
	bad := []QoS{
		func() QoS { q := DefaultQoS(); q.Cipher = CipherPolicy(7); return q }(),
		func() QoS { q := DefaultQoS(); q.Cipher = CipherPolicy(-1); return q }(),
		func() QoS { q := DefaultQoS(); q.Streams = -2; return q }(),
		func() QoS { q := DefaultQoS(); q.LossTolerance = 1.5; return q }(),
		func() QoS { q := DefaultQoS(); q.CompressBelowBps = -1; return q }(),
	}
	for i, q := range bad {
		if _, err := Select(g, Request{Src: 0, Dst: 2, QoS: q}); err == nil {
			t.Errorf("case %d: invalid QoS %+v selected without error", i, q)
		}
	}
	if _, err := Select(g, Request{Src: 0, Dst: 2, QoS: DefaultQoS()}); err != nil {
		t.Fatalf("valid QoS rejected: %v", err)
	}
}

func TestCipherPolicyStringAndParse(t *testing.T) {
	for _, c := range []CipherPolicy{CipherNever, CipherAuto, CipherAlways} {
		got, err := ParseCipherPolicy(c.String())
		if err != nil || got != c {
			t.Fatalf("round-trip %v: got %v, %v", c, got, err)
		}
	}
	if _, err := ParseCipherPolicy("sometimes"); err == nil {
		t.Fatal("unknown policy parsed")
	}
	if s := CipherPolicy(9).String(); s != "CipherPolicy(9)" {
		t.Fatalf("out-of-range String() = %q", s)
	}
}

// TestLatencySensitiveSkipsBandwidthAdapters: a latency-sensitive
// channel refuses striping (reordering) and compression (CPU in the
// critical path) but keeps security, which is a correctness property.
func TestLatencySensitiveSkipsBandwidthAdapters(t *testing.T) {
	g := testGrid()
	q := DefaultQoS()
	q.LatencySensitive = true
	d, err := Select(g, Request{Src: 0, Dst: 2, QoS: q})
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != "sysio" || d.Streams != 1 {
		t.Fatalf("latency-sensitive WAN channel still striped: %v", d)
	}
	if !d.Secure {
		t.Fatalf("latency sensitivity must not drop ciphering: %v", d)
	}
	d, err = Select(g, Request{Src: 2, Dst: 3, QoS: q})
	if err != nil {
		t.Fatal(err)
	}
	if d.Compress {
		t.Fatalf("latency-sensitive slow link still compressed: %v", d)
	}
}

// TestCollectiveEdgeSkipsCompression pins the collective QoS hint: a
// spanning-tree edge forwards its payload verbatim to the next tier, so
// the selector must not stack AdOC on it even on a link slow enough to
// otherwise warrant compression — while keeping striping and ciphering.
func TestCollectiveEdgeSkipsCompression(t *testing.T) {
	g := testGrid()
	q := DefaultQoS()
	q.CompressBelowBps = 1e9 // every link qualifies for AdOC
	q.Collective = true
	d, err := Select(g, Request{Src: 2, Dst: 3, QoS: q})
	if err != nil {
		t.Fatal(err)
	}
	if d.Compress {
		t.Fatalf("collective edge on a slow link still compressed: %v", d)
	}
	d, err = Select(g, Request{Src: 0, Dst: 2, QoS: q})
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != "pstreams" || d.Streams != 4 || !d.Secure {
		t.Fatalf("collective hint must not drop striping/ciphering: %v", d)
	}
	if d.Compress {
		t.Fatalf("collective WAN edge still compressed: %v", d)
	}
}

// ---------------------------------------------------------------------
// Weather-aware selection.

// fakeOracle forecasts by network name, for every pair.
type fakeOracle map[string]Forecast

func (o fakeOracle) Forecast(a, b topology.NodeID, nw *topology.Network) (Forecast, bool) {
	f, ok := o[nw.Name]
	return f, ok
}

// weatherGrid builds two cross-site nodes joined by a primary WAN
// (nameplate 12.2 MB/s, declared first) and a slower backup WAN (5 MB/s).
func weatherGrid() *topology.Grid {
	g := topology.New()
	primary := g.AddNetwork("primary", topology.WAN, false, 12.2e6, 8*time.Millisecond, 0, 1500)
	backup := g.AddNetwork("backup", topology.WAN, false, 5e6, 12*time.Millisecond, 0, 1500)
	a := g.AddNode("a", "A")
	b := g.AddNode("b", "B")
	for _, n := range []*topology.Node{a, b} {
		g.Attach(n, primary)
		g.Attach(n, backup)
	}
	return g
}

// TestOracleMissingForecastFallsBackToStatic: an oracle with no
// forecast for the pair must reproduce the static decision exactly.
func TestOracleMissingForecastFallsBackToStatic(t *testing.T) {
	g := testGrid()
	for _, pr := range [][2]topology.NodeID{{0, 1}, {0, 2}, {2, 3}, {1, 1}} {
		want, err1 := Select(g, Request{Src: pr[0], Dst: pr[1], QoS: DefaultQoS()})
		got, err2 := Select(g, Request{Src: pr[0], Dst: pr[1], QoS: DefaultQoS(), Oracle: fakeOracle{}})
		if (err1 == nil) != (err2 == nil) || got != want {
			t.Fatalf("pair %v: with empty oracle %v (%v), static %v (%v)", pr, got, err2, want, err1)
		}
	}
}

// TestOracleHysteresisBoundaries pins the switch threshold: the backup
// network wins only when its forecast bandwidth strictly exceeds the
// incumbent's times the hysteresis factor.
func TestOracleHysteresisBoundaries(t *testing.T) {
	g := weatherGrid()
	q := DefaultQoS() // hysteresis defaults to 1.5
	sel := func(o Oracle, cur *Decision) Decision {
		d, err := Select(g, Request{Src: 0, Dst: 1, QoS: q, Oracle: o, Current: cur})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Healthy primary: stays primary whatever the backup nameplate says.
	d := sel(fakeOracle{"primary": {BandwidthBps: 12e6}, "backup": {BandwidthBps: 5e6}}, nil)
	if d.Network.Name != "primary" {
		t.Fatalf("healthy primary abandoned: %v", d)
	}
	// Degraded primary, backup exactly at the boundary (eff == inc*1.5):
	// not strictly above, so the incumbent survives (no thrash at the
	// threshold itself).
	d = sel(fakeOracle{"primary": {BandwidthBps: 2e6}, "backup": {BandwidthBps: 3e6}}, nil)
	if d.Network.Name != "primary" {
		t.Fatalf("boundary case switched: %v", d)
	}
	// Just above the boundary: switch.
	d = sel(fakeOracle{"primary": {BandwidthBps: 2e6}, "backup": {BandwidthBps: 3e6 + 1}}, nil)
	if d.Network.Name != "backup" {
		t.Fatalf("degraded primary kept: %v", d)
	}
	// Hysteresis respects the incumbent from Current: once on backup, a
	// recovering primary must beat backup*1.5 to win the channel back.
	cur := Decision{Network: g.Networks()[1], Method: "pstreams", Streams: 4}
	d = sel(fakeOracle{"primary": {BandwidthBps: 7e6}, "backup": {BandwidthBps: 5e6}}, &cur)
	if d.Network.Name != "backup" {
		t.Fatalf("flapped back below hysteresis: %v", d)
	}
	d = sel(fakeOracle{"primary": {BandwidthBps: 7.6e6}, "backup": {BandwidthBps: 5e6}}, &cur)
	if d.Network.Name != "primary" {
		t.Fatalf("recovered primary not retaken: %v", d)
	}
}

// TestOracleDownAndPartition: an incumbent in outage loses to any live
// alternative regardless of hysteresis; with every candidate down the
// static choice stands (nothing better exists) and nameplate figures
// drive the wrappers.
func TestOracleDownAndPartition(t *testing.T) {
	g := weatherGrid()
	q := DefaultQoS()
	d, err := Select(g, Request{Src: 0, Dst: 1, QoS: q,
		Oracle: fakeOracle{"primary": {Down: true}, "backup": {BandwidthBps: 1e5}}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Network.Name != "backup" {
		t.Fatalf("down incumbent kept: %v", d)
	}
	d, err = Select(g, Request{Src: 0, Dst: 1, QoS: q,
		Oracle: fakeOracle{"primary": {Down: true}, "backup": {Down: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Network.Name != "primary" {
		t.Fatalf("full partition should keep the static choice: %v", d)
	}
	if d.Compress {
		t.Fatalf("partition decision stacked wrappers from zeroed forecasts: %v", d)
	}
}

// TestOracleDrivesCompressionAndLoss: forecast bandwidth (not the
// nameplate rate) decides AdOC, and forecast loss decides VRP.
func TestOracleDrivesCompressionAndLoss(t *testing.T) {
	g := testGrid()
	q := DefaultQoS() // CompressBelowBps = 1e6
	// Degraded WAN below the compression threshold: AdOC turns on even
	// though the nameplate 12.2 MB/s would never qualify.
	d, err := Select(g, Request{Src: 0, Dst: 2, QoS: q,
		Oracle: fakeOracle{"wan": {BandwidthBps: 0.8e6}}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Compress {
		t.Fatalf("degraded WAN not compressed: %v", d)
	}
	// Lossy link measured clean: VRP not selected despite tolerance.
	q.LossTolerance = 0.1
	d, err = Select(g, Request{Src: 2, Dst: 3, QoS: q,
		Oracle: fakeOracle{"inet": {BandwidthBps: 600e3, Loss: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != "sysio" {
		t.Fatalf("clean forecast still picked vrp: %v", d)
	}
	// Measured loss present: VRP selected.
	d, err = Select(g, Request{Src: 2, Dst: 3, QoS: q,
		Oracle: fakeOracle{"inet": {BandwidthBps: 400e3, Loss: 0.08}}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != "vrp" {
		t.Fatalf("measured loss ignored: %v", d)
	}
}

// TestOracleInvalidQoSStillErrors: weather never rescues a malformed
// request.
func TestOracleInvalidQoSStillErrors(t *testing.T) {
	g := weatherGrid()
	o := fakeOracle{"primary": {BandwidthBps: 1e6}}
	q := DefaultQoS()
	q.Cipher = CipherPolicy(9)
	if _, err := Select(g, Request{Src: 0, Dst: 1, QoS: q, Oracle: o}); err == nil {
		t.Fatal("invalid cipher policy selected under weather")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
