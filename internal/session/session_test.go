package session_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"padico/internal/grid"
	"padico/internal/selector"
	"padico/internal/session"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// payload returns deterministic pseudo-random bytes.
func payload(seed int64, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// echoOnce runs one request/response exchange over a channel: the
// remote end receives a message and a stream chunk, then answers with a
// frame. It exercises both views on both ends.
func echoOnce(t *testing.T, p *vtime.Proc, k *vtime.Kernel, ch session.Channel, size int) {
	t.Helper()
	data := payload(7, size)
	done := vtime.NewWaitGroup("echo")
	done.Add(1)
	k.Go("peer", func(q *vtime.Proc) {
		defer done.Done()
		rc := ch.Remote()
		segs, err := rc.Recv(q, 4, 3)
		if err != nil {
			t.Error(err)
			return
		}
		if string(segs[0]) != "HEAD" || string(segs[1]) != "obj" {
			t.Errorf("message view got %q %q", segs[0], segs[1])
		}
		buf := make([]byte, size)
		if _, err := rc.ReadFull(q, buf); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(buf, data) {
			t.Error("stream view corrupted the payload")
		}
		if err := rc.Send(q, []byte{1}, []byte{0, 0, 0, 0, 0, 0, 0, 42}); err != nil {
			t.Error(err)
		}
	})
	if err := ch.Send(p, []byte("HEAD"), []byte("obj")); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Write(p, data); err != nil {
		t.Fatal(err)
	}
	segs, err := ch.Recv(p, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if segs[0][0] != 1 || segs[1][7] != 42 {
		t.Fatalf("reverse frame = %v %v", segs[0], segs[1])
	}
	done.Wait(p)
}

// TestChannelViewsPerSubstrate runs the same protocol over all three
// substrates the manager provisions — local pipe, SAN circuit, WAN
// VLink stack — which is the whole point of the session layer.
func TestChannelViewsPerSubstrate(t *testing.T) {
	cases := []struct {
		name     string
		build    func() *grid.Grid
		src, dst int
		class    selector.PathClass
		method   string
	}{
		{"local", func() *grid.Grid { return grid.Cluster(2) }, 0, 0, selector.PathLocal, "loopback"},
		{"san", func() *grid.Grid { return grid.Cluster(2) }, 0, 1, selector.PathSAN, "madio"},
		{"wan", func() *grid.Grid { return grid.TwoClusterWAN(1, 1) }, 0, 1, selector.PathWAN, "pstreams"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.build()
			if err := g.K.Run(func(p *vtime.Proc) {
				ch, err := g.Open(p, topoID(c.src), topoID(c.dst))
				if err != nil {
					t.Fatal(err)
				}
				info := ch.Info()
				if info.Class != c.class || info.Decision.Method != c.method {
					t.Fatalf("info = class %v method %q, want %v %q",
						info.Class, info.Decision.Method, c.class, c.method)
				}
				echoOnce(t, p, g.K, ch, 64<<10)
				if got := ch.Info(); got.BytesOut == 0 || got.BytesIn == 0 || got.Sends == 0 || got.Recvs == 0 {
					t.Fatalf("counters not maintained: %+v", got)
				}
				ch.Remote().Close()
				ch.Close()
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func topoID(i int) topology.NodeID { return topology.NodeID(i) }

// TestCircuitRefcountAndRelease pins the per-pair circuit cache
// semantics: overlapping sessions on one SAN pair share a single
// circuit (refcount up), and the circuit is torn down when the last
// session releases it — MadIO logical channels are a finite per-node
// resource.
func TestCircuitRefcountAndRelease(t *testing.T) {
	g := grid.Cluster(2)
	m := g.Session()
	if err := g.K.Run(func(p *vtime.Proc) {
		ch1, err := m.Open(p, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		// A second overlapping session reuses the cached circuit; it
		// queues on the pair's semaphore until ch1 closes.
		opened := vtime.NewQueue[session.Channel]("opened")
		g.K.Go("second", func(q *vtime.Proc) {
			ch2, err := m.Open(q, 1, 0) // same pair, either direction
			if err != nil {
				t.Error(err)
				return
			}
			opened.Push(ch2)
		})
		p.Yield()
		if m.Stats().CircuitsBuilt != 1 || m.Stats().CircuitReuses != 1 {
			t.Fatalf("cache stats after overlapping opens: %+v", m.Stats())
		}
		if m.Stats().CircuitsClosed != 0 {
			t.Fatalf("circuit closed while sessions were live: %+v", m.Stats())
		}
		echoOnce(t, p, g.K, ch1, 8<<10)
		ch1.Remote().Close()
		ch1.Close()
		// First release: the second session holds the circuit open.
		ch2 := opened.Pop(p)
		if m.Stats().CircuitsClosed != 0 {
			t.Fatalf("circuit closed on first release: %+v", m.Stats())
		}
		echoOnce(t, p, g.K, ch2, 8<<10)
		ch2.Remote().Close()
		ch2.Close()
		// Last release tears the circuit down.
		if m.Stats().CircuitsClosed != 1 {
			t.Fatalf("circuit not closed on last release: %+v", m.Stats())
		}
		// A later open rebuilds from scratch.
		ch3, err := m.Open(p, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.Stats().CircuitsBuilt != 2 {
			t.Fatalf("open after last release did not rebuild: %+v", m.Stats())
		}
		echoOnce(t, p, g.K, ch3, 8<<10)
		ch3.Remote().Close()
		ch3.Close()
		if m.Stats().CircuitsClosed != 2 {
			t.Fatalf("rebuilt circuit not closed: %+v", m.Stats())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedOpenDeterministic: the same program on a fresh testbed
// produces bit-identical virtual-time behaviour and counters — repeated
// Open under identical QoS is byte-for-bit deterministic.
func TestRepeatedOpenDeterministic(t *testing.T) {
	run := func(build func() *grid.Grid, src, dst int) (vtime.Duration, session.Info) {
		g := build()
		var elapsed vtime.Duration
		var info session.Info
		if err := g.K.Run(func(p *vtime.Proc) {
			start := p.Now()
			ch, err := g.Open(p, topoID(src), topoID(dst))
			if err != nil {
				t.Fatal(err)
			}
			echoOnce(t, p, g.K, ch, 256<<10)
			ch.Remote().Close()
			ch.Close()
			elapsed = p.Now().Sub(start)
			info = ch.Info()
		}); err != nil {
			t.Fatal(err)
		}
		return elapsed, info
	}
	for _, c := range []struct {
		name     string
		build    func() *grid.Grid
		src, dst int
	}{
		{"san", func() *grid.Grid { return grid.Cluster(2) }, 0, 1},
		{"wan", func() *grid.Grid { return grid.TwoClusterWAN(1, 1) }, 0, 1},
	} {
		e1, i1 := run(c.build, c.src, c.dst)
		e2, i2 := run(c.build, c.src, c.dst)
		if e1 != e2 {
			t.Fatalf("%s: elapsed %v vs %v across identical runs", c.name, e1, e2)
		}
		// The Decision carries a *Network into the run's own topology;
		// compare its name, and everything else by value.
		if i1.Decision.Network.Name != i2.Decision.Network.Name {
			t.Fatalf("%s: networks %q vs %q", c.name, i1.Decision.Network.Name, i2.Decision.Network.Name)
		}
		i1.Decision.Network, i2.Decision.Network = nil, nil
		if i1 != i2 {
			t.Fatalf("%s: info %+v vs %+v across identical runs", c.name, i1, i2)
		}
	}
}

// TestQoSOptionsSteerTheSelector: per-channel functional options
// override the manager's default QoS for that open only.
func TestQoSOptionsSteerTheSelector(t *testing.T) {
	g := grid.TwoClusterWAN(1, 1)
	if err := g.K.Run(func(p *vtime.Proc) {
		ch, err := g.Open(p, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d := ch.Info().Decision; d.Method != "pstreams" || d.Streams != 4 || !d.Secure {
			t.Fatalf("default WAN decision = %v", d)
		}
		ch.Close()

		ch, err = g.Open(p, 0, 1, session.WithStreams(1), session.WithCipher(selector.CipherNever))
		if err != nil {
			t.Fatal(err)
		}
		if d := ch.Info().Decision; d.Method != "sysio" || d.Secure {
			t.Fatalf("overridden decision = %v", d)
		}
		ch.Close()

		latency := g.Prefs
		latency.LatencySensitive = true
		ch, err = g.Open(p, 0, 1, session.WithQoS(latency))
		if err != nil {
			t.Fatal(err)
		}
		if d := ch.Info().Decision; d.Method == "pstreams" || d.Streams != 1 {
			t.Fatalf("latency-sensitive decision still striped: %v", d)
		}
		ch.Close()

		// The next optionless open is back on the defaults.
		ch, err = g.Open(p, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d := ch.Info().Decision; d.Method != "pstreams" {
			t.Fatalf("per-channel override leaked into defaults: %v", d)
		}
		ch.Close()

		// Invalid QoS surfaces as an Open error, not a fallthrough.
		if _, err := g.Open(p, 0, 1, session.WithCipher(selector.CipherPolicy(9))); err == nil {
			t.Fatal("invalid cipher policy accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSecureSANChannelIsActuallyCiphered: a CipherAlways channel inside
// a SAN must not ride the bare madio circuit (which cannot cipher) —
// the manager honours the QoS by provisioning the VLink madio driver
// stack with gsec, so Info's Secure=true is true of the wire too.
func TestSecureSANChannelIsActuallyCiphered(t *testing.T) {
	g := grid.Cluster(2)
	m := g.Session()
	if err := g.K.Run(func(p *vtime.Proc) {
		ch, err := m.Open(p, 0, 1, session.WithCipher(selector.CipherAlways))
		if err != nil {
			t.Fatal(err)
		}
		info := ch.Info()
		if info.Class != selector.PathSAN || !info.Decision.Secure {
			t.Fatalf("info = %+v, want secure SAN decision", info)
		}
		if m.Stats().CircuitOpens != 0 || m.Stats().VLinkOpens != 1 {
			t.Fatalf("secure SAN open rode the bare circuit: %+v", m.Stats())
		}
		echoOnce(t, p, g.K, ch, 32<<10)
		ch.Remote().Close()
		ch.Close()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPeerCloseGivesEOF: after one end closes, the peer drains what was
// delivered and then reads EOF — on the message substrate too, where
// there is no underlying byte stream to signal it.
func TestPeerCloseGivesEOF(t *testing.T) {
	g := grid.Cluster(2)
	if err := g.K.Run(func(p *vtime.Proc) {
		ch, err := g.Open(p, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ch.Write(p, []byte("tail")); err != nil {
			t.Fatal(err)
		}
		ch.Close()
		rc := ch.Remote()
		buf := make([]byte, 4)
		if _, err := rc.ReadFull(p, buf); err != nil || string(buf) != "tail" {
			t.Fatalf("drain after close: %q, %v", buf, err)
		}
		if n, err := rc.Read(p, buf); err == nil {
			t.Fatalf("read past close returned %d bytes", n)
		}
		rc.Close()
	}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// Adaptive sessions.

// fakeWeather is a scriptable session.Weather: forecasts keyed by
// network name, mutated by the test between operations.
type fakeWeather struct {
	forecasts map[string]selector.Forecast
	subs      []func(a, b topology.NodeID, nw *topology.Network, f selector.Forecast)
}

func newFakeWeather() *fakeWeather {
	return &fakeWeather{forecasts: make(map[string]selector.Forecast)}
}

func (w *fakeWeather) Forecast(a, b topology.NodeID, nw *topology.Network) (selector.Forecast, bool) {
	f, ok := w.forecasts[nw.Name]
	return f, ok
}

func (w *fakeWeather) ObserveTransfer(a, b topology.NodeID, network string, bytes int64, elapsed vtime.Duration, live bool) {
}

func (w *fakeWeather) Subscribe(fn func(a, b topology.NodeID, nw *topology.Network, f selector.Forecast)) func() {
	w.subs = append(w.subs, fn)
	return func() {}
}

// set updates a forecast and notifies subscribers (kernel context).
func (w *fakeWeather) set(nw *topology.Network, f selector.Forecast) {
	w.forecasts[nw.Name] = f
	for _, fn := range w.subs {
		fn(0, 1, nw, f)
	}
}

// TestAdaptiveChannelViews: without a weather service an adaptive
// channel is just a framed channel — both views work on every
// substrate and the peer reads EOF after close.
func TestAdaptiveChannelViews(t *testing.T) {
	for _, c := range []struct {
		name     string
		build    func() *grid.Grid
		src, dst int
	}{
		{"local", func() *grid.Grid { return grid.Cluster(2) }, 0, 0},
		{"san", func() *grid.Grid { return grid.Cluster(2) }, 0, 1},
		{"wan", func() *grid.Grid { return grid.TwoClusterWAN(1, 1) }, 0, 1},
	} {
		g := c.build()
		if err := g.K.Run(func(p *vtime.Proc) {
			ch, err := g.Open(p, topoID(c.src), topoID(c.dst), session.WithAdaptive())
			if err != nil {
				t.Fatal(err)
			}
			echoOnce(t, p, g.K, ch, 64<<10)
			if _, err := ch.Write(p, []byte("tail")); err != nil {
				t.Fatal(err)
			}
			ch.Close()
			rc := ch.Remote()
			buf := make([]byte, 4)
			if _, err := rc.ReadFull(p, buf); err != nil || string(buf) != "tail" {
				t.Fatalf("%s: drain after close: %q, %v", c.name, buf, err)
			}
			if _, err := rc.Read(p, buf); err == nil {
				t.Fatalf("%s: read past close succeeded", c.name)
			}
			rc.Close()
		}); err != nil {
			t.Fatal(err)
		}
		if g.Session().Stats().AdaptiveOpens != 1 {
			t.Fatalf("%s: AdaptiveOpens = %d", c.name, g.Session().Stats().AdaptiveOpens)
		}
	}
}

// TestAdaptiveReselectsOnDegradedForecast: a mid-stream forecast drop
// below the compression threshold changes the decision; the channel
// re-opens with a resume handshake and every byte still arrives, in
// order, exactly once.
func TestAdaptiveReselectsOnDegradedForecast(t *testing.T) {
	g := grid.TwoClusterWAN(1, 1)
	fw := newFakeWeather()
	g.Session().SetWeather(fw)
	wan := g.Topo.Networks()[4] // vthd (2x myri + 2x eth declared first)
	if wan.Name != "vthd" {
		t.Fatalf("topology layout changed: network[4] = %s", wan.Name)
	}
	fw.forecasts[wan.Name] = selector.Forecast{BandwidthBps: 12e6}
	const chunk = 64 << 10
	const chunks = 12
	data := payload(3, chunk*chunks)
	if err := g.K.Run(func(p *vtime.Proc) {
		ch, err := g.Open(p, 0, 1, session.WithAdaptive())
		if err != nil {
			t.Fatal(err)
		}
		if ch.Info().Decision.Compress {
			t.Fatalf("healthy forecast selected compression: %v", ch.Info().Decision)
		}
		got := make([]byte, len(data))
		done := vtime.NewWaitGroup("sink")
		done.Add(1)
		g.K.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			if _, err := ch.Remote().ReadFull(q, got); err != nil {
				t.Error(err)
			}
		})
		for i := 0; i < chunks; i++ {
			if i == chunks/2 {
				// The WAN degrades below CompressBelowBps: the next
				// boundary check must flip AdOC on and resume.
				fw.set(wan, selector.Forecast{BandwidthBps: 0.5e6})
			}
			if _, err := ch.Write(p, data[i*chunk:(i+1)*chunk]); err != nil {
				t.Fatal(err)
			}
		}
		done.Wait(p)
		if !bytes.Equal(got, data) {
			t.Fatal("payload corrupted across re-selection")
		}
		info := ch.Info()
		if info.Reselects != 1 || info.Resumes != 1 {
			t.Fatalf("Reselects=%d Resumes=%d, want 1/1", info.Reselects, info.Resumes)
		}
		if !info.Decision.Compress {
			t.Fatalf("post-degrade decision lacks compression: %v", info.Decision)
		}
		ch.Close()
		ch.Remote().Close()
	}); err != nil {
		t.Fatal(err)
	}
	if s := g.Session().Stats(); s.Reselects != 1 || s.Resumes != 1 {
		t.Fatalf("manager stats Reselects=%d Resumes=%d", s.Reselects, s.Resumes)
	}
}

// TestAdaptiveSurvivesOutageNotification: the weather declares the
// session's network down mid-stream; the subscription closes the
// substrate under the blocked operations, the session re-opens (the
// selector keeps the only network), replays the gap and completes.
func TestAdaptiveSurvivesOutageNotification(t *testing.T) {
	g := grid.TwoClusterWAN(1, 1)
	fw := newFakeWeather()
	g.Session().SetWeather(fw)
	wan := g.Topo.Networks()[4]
	fw.forecasts[wan.Name] = selector.Forecast{BandwidthBps: 9e6}
	const chunk = 64 << 10
	const chunks = 10
	data := payload(5, chunk*chunks)
	if err := g.K.Run(func(p *vtime.Proc) {
		ch, err := g.Open(p, 0, 1, session.WithAdaptive())
		if err != nil {
			t.Fatal(err)
		}
		// Mid-transfer, the link is declared down, then recovers.
		g.K.After(40*time.Millisecond, func() {
			fw.set(wan, selector.Forecast{Down: true})
		})
		g.K.After(60*time.Millisecond, func() {
			fw.forecasts[wan.Name] = selector.Forecast{BandwidthBps: 9e6}
		})
		got := make([]byte, len(data))
		done := vtime.NewWaitGroup("sink")
		done.Add(1)
		g.K.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			if _, err := ch.Remote().ReadFull(q, got); err != nil {
				t.Error(err)
			}
		})
		for i := 0; i < chunks; i++ {
			if _, err := ch.Write(p, data[i*chunk:(i+1)*chunk]); err != nil {
				t.Fatal(err)
			}
		}
		done.Wait(p)
		if !bytes.Equal(got, data) {
			t.Fatal("payload corrupted across outage resume")
		}
		if info := ch.Info(); info.Resumes < 1 {
			t.Fatalf("no resume recorded: %+v", info)
		}
		ch.Close()
		ch.Remote().Close()
	}); err != nil {
		t.Fatal(err)
	}
}
