package weather_test

import (
	"testing"
	"time"

	"padico/internal/grid"
	"padico/internal/netsim"
	"padico/internal/selector"
	"padico/internal/topology"
	"padico/internal/vtime"
	"padico/internal/weather"
)

// TestForecastConvergesToLinkRate: on a healthy two-cluster WAN the
// bandwidth forecast converges near the 12.2 MB/s access cap, the
// latency forecast near the 8 ms one-way VTHD figure, and passive RTT
// sweeps fold in (the probe connections themselves feed the ipstack
// estimator).
func TestForecastConvergesToLinkRate(t *testing.T) {
	g := grid.TwoClusterWAN(1, 1)
	svc := g.EnableWeather()
	if svc.Entries() != 1 {
		t.Fatalf("entries = %d, want 1 (one site pair, one WAN)", svc.Entries())
	}
	wan := g.Topo.Networks()[4]
	if err := g.K.Run(func(p *vtime.Proc) { p.Sleep(4 * time.Second) }); err != nil {
		t.Fatal(err)
	}
	f, ok := svc.Forecast(0, 1, wan)
	if !ok {
		t.Fatal("no forecast after 4s of monitoring")
	}
	if f.Down {
		t.Fatalf("healthy link forecast down: %+v", f)
	}
	if f.BandwidthBps < 8e6 || f.BandwidthBps > 14e6 {
		t.Fatalf("bandwidth forecast %.3g, want ~12.2e6", f.BandwidthBps)
	}
	if f.Latency < 6*time.Millisecond || f.Latency > 12*time.Millisecond {
		t.Fatalf("latency forecast %v, want ~8ms", f.Latency)
	}
	if svc.Stats().Pings == 0 || svc.Stats().BandwidthProbes == 0 || svc.Stats().PassiveRTT == 0 {
		t.Fatalf("probe stats %+v", svc.Stats())
	}
	// Forecasts only exist per monitored network.
	if _, ok := svc.Forecast(0, 1, g.Topo.Networks()[0]); ok {
		t.Fatal("SAN got a forecast")
	}
	// Same-site pairs are not monitored.
	if _, ok := svc.PairBandwidth(0, 0); ok {
		t.Fatal("self pair has weather")
	}
}

// TestForecastTracksDegradation: on the DegradingWAN testbed the
// site0–site1 forecast collapses after DegradeAt (step detection: one
// bandwidth probe suffices) while site0–site2 stays healthy, and the
// degraded-threshold crossing is published exactly once.
func TestForecastTracksDegradation(t *testing.T) {
	g := grid.DegradingWAN(1)
	svc := g.EnableWeather()
	if svc.Entries() != 3 {
		t.Fatalf("entries = %d, want 3 site pairs", svc.Entries())
	}
	var wan *topology.Network
	for _, nw := range g.Topo.Networks() {
		if nw.Name == "vthd" {
			wan = nw
		}
	}
	crossings := 0
	svc.Subscribe(func(a, b topology.NodeID, nw *topology.Network, f selector.Forecast) {
		crossings++
		if !g.Topo.SameSite(a, 0) && !g.Topo.SameSite(b, 0) {
			t.Errorf("publication for an unaffected pair %d-%d", a, b)
		}
	})
	if err := g.K.Run(func(p *vtime.Proc) {
		p.Sleep(grid.DegradeAt - time.Second)
		f01, ok := svc.Forecast(0, 1, wan)
		if !ok || f01.BandwidthBps < 8e6 {
			t.Fatalf("pre-degrade forecast site0-site1: %+v ok=%v", f01, ok)
		}
		p.Sleep(3 * time.Second) // past DegradeAt plus a probe cycle
		f01, ok = svc.Forecast(0, 1, wan)
		if !ok || f01.BandwidthBps > 1.2e6 || f01.Down {
			t.Fatalf("post-degrade forecast site0-site1: %+v ok=%v", f01, ok)
		}
		f02, ok := svc.Forecast(0, 2, wan)
		if !ok || f02.BandwidthBps < 8e6 {
			t.Fatalf("post-degrade forecast site0-site2: %+v ok=%v", f02, ok)
		}
		if bw, ok := svc.PairBandwidth(0, 1); !ok || bw > 1.2e6 {
			t.Fatalf("PairBandwidth(0,1) = %.3g ok=%v", bw, ok)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if crossings != 1 {
		t.Fatalf("published %d crossings, want exactly 1", crossings)
	}
}

// TestOutageMarksDownAndRecovers: a full outage of the WAN core flips
// the forecast to Down after the configured failure streak; restoring
// the link clears it.
func TestOutageMarksDownAndRecovers(t *testing.T) {
	g := grid.TwoClusterWAN(1, 1)
	core := g.CoreHop("core:vthd")
	if core == nil {
		t.Fatal("no core hop registered")
	}
	netsim.ScheduleOutage(g.K,
		vtime.Time(0).Add(2*time.Second), vtime.Time(0).Add(12*time.Second), core)
	svc := g.EnableWeather()
	wan := g.Topo.Networks()[4]
	if err := g.K.Run(func(p *vtime.Proc) {
		// Deep enough for a probe timeout (bandwidth probes wait 4x)
		// plus one failed re-dial (SYN timeout).
		p.Sleep(10500 * time.Millisecond)
		f, ok := svc.Forecast(0, 1, wan)
		if !ok || !f.Down {
			t.Fatalf("mid-outage forecast: %+v ok=%v", f, ok)
		}
		p.Sleep(9500 * time.Millisecond) // restored + re-dial + probe
		f, ok = svc.Forecast(0, 1, wan)
		if !ok || f.Down {
			t.Fatalf("post-restore forecast: %+v ok=%v", f, ok)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWeatherIsDeterministic: two identical monitored runs produce
// bit-identical forecasts and statistics.
func TestWeatherIsDeterministic(t *testing.T) {
	run := func() (selector.Forecast, weather.Stats) {
		g := grid.DegradingWAN(1)
		svc := g.EnableWeather()
		var wan *topology.Network
		for _, nw := range g.Topo.Networks() {
			if nw.Name == "vthd" {
				wan = nw
			}
		}
		if err := g.K.Run(func(p *vtime.Proc) { p.Sleep(grid.DegradeAt + 2*time.Second) }); err != nil {
			t.Fatal(err)
		}
		f, _ := svc.Forecast(0, 1, wan)
		return f, svc.Stats()
	}
	f1, s1 := run()
	f2, s2 := run()
	if f1 != f2 {
		t.Fatalf("forecasts diverged: %+v vs %+v", f1, f2)
	}
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
}
