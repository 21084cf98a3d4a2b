package grid_test

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"

	"padico/internal/grid"
	"padico/internal/madapi"
	"padico/internal/selector"
	"padico/internal/topology"
	"padico/internal/vrp"
	"padico/internal/vtime"
)

func TestSelectorDecisions(t *testing.T) {
	g := grid.TwoClusterWAN(2, 2)
	prefs := g.Prefs

	// Same cluster: straight parallel path on Myrinet.
	d, err := selector.Select(g.Topo, selector.Request{Src: 0, Dst: 1, QoS: prefs})
	if err != nil || d.Method != "madio" || d.Network.Kind != topology.Myrinet {
		t.Fatalf("intra-cluster decision = %+v, %v", d, err)
	}
	if d.Secure {
		t.Fatal("ciphering chosen on a secure machine-room network")
	}
	// Cross-site: parallel streams on the WAN, ciphered.
	d, err = selector.Select(g.Topo, selector.Request{Src: 0, Dst: 2, QoS: prefs})
	if err != nil || d.Method != "pstreams" || d.Network.Kind != topology.WAN {
		t.Fatalf("cross-site decision = %+v, %v", d, err)
	}
	if !d.Secure {
		t.Fatal("inter-site link not ciphered under auto policy")
	}
	// Loopback.
	d, _ = selector.Select(g.Topo, selector.Request{Src: 1, Dst: 1, QoS: prefs})
	if d.Method != "loopback" {
		t.Fatalf("self decision = %+v", d)
	}

	// Lossy pair with loss tolerance: VRP; slow link: compression.
	lg := grid.LossyPair()
	lp := lg.Prefs
	lp.LossTolerance = 0.1
	d, err = selector.Select(lg.Topo, selector.Request{Src: 0, Dst: 1, QoS: lp})
	if err != nil || d.Method != "vrp" {
		t.Fatalf("lossy decision = %+v, %v", d, err)
	}
	if !d.Compress {
		t.Fatal("600 KB/s link should trigger compression preference")
	}
}

func TestCircuitOverCluster(t *testing.T) {
	g := grid.Cluster(4)
	if err := g.K.Run(func(p *vtime.Proc) {
		nodes := []topology.NodeID{0, 1, 2, 3}
		circs, err := g.NewCircuits(p, "test", nodes)
		if err != nil {
			t.Fatal(err)
		}
		// Point-to-point with the packing API (rank 0 -> rank 3).
		done := vtime.NewWaitGroup("recv")
		done.Add(1)
		g.K.Go("rank3", func(q *vtime.Proc) {
			defer done.Done()
			in := circs[3].BeginUnpacking(q)
			if in.Src() != 0 {
				t.Errorf("src = %d", in.Src())
			}
			hdr := in.Unpack(4, madapi.ReceiveExpress)
			body := in.Unpack(11, madapi.ReceiveCheaper)
			in.EndUnpacking()
			if string(hdr) != "HEAD" || string(body) != "hello rank3" {
				t.Errorf("got %q %q", hdr, body)
			}
		})
		out := circs[0].BeginPacking(3)
		out.Pack([]byte("HEAD"), madapi.SendSafer)
		out.Pack([]byte("hello rank3"), madapi.SendCheaper)
		out.EndPacking()
		done.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCircuitSpansSites(t *testing.T) {
	g := grid.TwoClusterWAN(2, 2)
	g.Prefs.Cipher = selector.CipherNever // keep this test focused on adapters
	if err := g.K.Run(func(p *vtime.Proc) {
		nodes := []topology.NodeID{0, 1, 2, 3} // 0,1 rennes; 2,3 grenoble
		circs, err := g.NewCircuits(p, "span", nodes)
		if err != nil {
			t.Fatal(err)
		}
		// Intra-site link uses madio, inter-site uses a vlink adapter.
		if name := circs[0].Link(1).Name(); name != "madio" {
			t.Errorf("intra-site adapter = %s", name)
		}
		if name := circs[0].Link(2).Name(); name != "vlink" {
			t.Errorf("inter-site adapter = %s", name)
		}
		// Message across the WAN through the circuit.
		done := vtime.NewWaitGroup("recv")
		done.Add(1)
		g.K.Go("rank2", func(q *vtime.Proc) {
			defer done.Done()
			in := circs[2].BeginUnpacking(q)
			body := in.Unpack(9, madapi.ReceiveCheaper)
			in.EndUnpacking()
			if string(body) != "over wan!" || in.Src() != 0 {
				t.Errorf("got %q from %d", body, in.Src())
			}
		})
		out := circs[0].BeginPacking(2)
		out.Pack([]byte("over wan!"), madapi.SendSafer)
		out.EndPacking()
		done.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
}

// wanThroughput transfers size bytes over a VLink built per decision
// and returns the receiver-observed rate.
func wanThroughput(t *testing.T, dec *selector.Decision, size int) float64 {
	g := grid.TwoClusterWAN(1, 1)
	var rate float64
	if err := g.K.Run(func(p *vtime.Proc) {
		d := selector.Decision{}
		if dec == nil {
			dd, err := selector.Select(g.Topo, selector.Request{Src: 0, Dst: 1, QoS: g.Prefs})
			if err != nil {
				t.Fatal(err)
			}
			d = dd
		} else {
			d = *dec
		}
		la, lb, err := g.DialVLinkWith(p, 0, 1, d)
		if err != nil {
			t.Fatal(err)
		}
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		var end vtime.Time
		g.K.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			buf := make([]byte, 64<<10)
			total := 0
			for total < size {
				n, err := lb.Read(q, buf)
				total += n
				if err != nil {
					if err != io.EOF {
						t.Error(err)
					}
					break
				}
			}
			end = q.Now()
		})
		start := p.Now()
		chunk := make([]byte, 256<<10)
		rand.New(rand.NewSource(99)).Read(chunk) // incompressible
		sent := 0
		for sent < size {
			n := size - sent
			if n > len(chunk) {
				n = len(chunk)
			}
			if _, err := la.Write(p, chunk[:n]); err != nil {
				t.Fatal(err)
			}
			sent += n
		}
		done.Wait(p)
		rate = float64(size) / end.Sub(start).Seconds()
	}); err != nil {
		t.Fatal(err)
	}
	return rate
}

// The paper's VTHD experiment: one TCP stream ~9 MB/s; parallel streams
// reach the 12 MB/s access-link cap.
func TestParallelStreamsBeatSingleStreamOnWAN(t *testing.T) {
	single := wanThroughput(t, &selector.Decision{Method: "sysio", Streams: 1}, 8<<20)
	striped := wanThroughput(t, &selector.Decision{Method: "pstreams", Streams: 4}, 16<<20)
	if single < 7.5e6 || single > 10.5e6 {
		t.Fatalf("single stream = %.3g MB/s, want ~9", single/1e6)
	}
	if striped < 10.8e6 || striped > 12.6e6 {
		t.Fatalf("parallel streams = %.3g MB/s, want ~12 (access-link cap)", striped/1e6)
	}
	if striped <= single {
		t.Fatal("striping did not help")
	}
}

func TestSecureLinkRoundTripAndOverhead(t *testing.T) {
	g := grid.TwoClusterWAN(1, 1)
	if err := g.K.Run(func(p *vtime.Proc) {
		dec := selector.Decision{Method: "sysio", Streams: 1, Secure: true}
		la, lb, err := g.DialVLinkWith(p, 0, 1, dec)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 100000)
		rand.New(rand.NewSource(3)).Read(msg)
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		var got []byte
		g.K.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			buf := make([]byte, 32<<10)
			for len(got) < len(msg) {
				n, err := lb.Read(q, buf)
				got = append(got, buf[:n]...)
				if err != nil {
					return
				}
			}
		})
		la.Write(p, msg)
		done.Wait(p)
		if !bytes.Equal(got, msg) {
			t.Fatal("ciphered stream corrupted")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionHelpsOnSlowLink(t *testing.T) {
	// Compressible data over the lossy 600 KB/s link: AdOC should beat
	// the raw link capacity in goodput terms.
	run := func(compress bool) float64 {
		g := grid.LossyPair()
		size := 600 << 10
		var rate float64
		if err := g.K.Run(func(p *vtime.Proc) {
			dec := selector.Decision{Method: "sysio", Streams: 1, Compress: compress}
			la, lb, err := g.DialVLinkWith(p, 0, 1, dec)
			if err != nil {
				t.Fatal(err)
			}
			done := vtime.NewWaitGroup("done")
			done.Add(1)
			var end vtime.Time
			g.K.Go("sink", func(q *vtime.Proc) {
				defer done.Done()
				buf := make([]byte, 64<<10)
				total := 0
				for total < size {
					n, err := lb.Read(q, buf)
					total += n
					if err != nil {
						break
					}
				}
				end = q.Now()
			})
			start := p.Now()
			// Highly compressible payload (text-like repetition).
			block := bytes.Repeat([]byte("padico grid computing stream "), 1024)
			sent := 0
			for sent < size {
				n := size - sent
				if n > len(block) {
					n = len(block)
				}
				la.Write(p, block[:n])
				sent += n
			}
			done.Wait(p)
			rate = float64(size) / end.Sub(start).Seconds()
		}); err != nil {
			t.Fatal(err)
		}
		return rate
	}
	raw := run(false)
	compressed := run(true)
	if compressed < 2*raw {
		t.Fatalf("adoc rate %.3g KB/s not >2x raw %.3g KB/s on compressible data",
			compressed/1e3, raw/1e3)
	}
}

// The paper's VRP experiment: TCP ~150 KB/s on the lossy link; VRP with
// 10% tolerance ~500 KB/s, about 3x.
func TestVRPBeatsTCPOnLossyLink(t *testing.T) {
	// TCP side.
	g := grid.LossyPair()
	size := 512 << 10
	var tcpRate float64
	if err := g.K.Run(func(p *vtime.Proc) {
		dec := selector.Decision{Method: "sysio", Streams: 1}
		la, lb, err := g.DialVLinkWith(p, 0, 1, dec)
		if err != nil {
			t.Fatal(err)
		}
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		var end vtime.Time
		g.K.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			buf := make([]byte, 64<<10)
			total := 0
			for total < size {
				n, err := lb.Read(q, buf)
				total += n
				if err != nil {
					break
				}
			}
			end = q.Now()
		})
		start := p.Now()
		payload := make([]byte, size)
		rand.New(rand.NewSource(1)).Read(payload)
		la.Write(p, payload)
		done.Wait(p)
		tcpRate = float64(size) / end.Sub(start).Seconds()
	}); err != nil {
		t.Fatal(err)
	}

	// VRP side: paced datagrams with 10% tolerance.
	g2 := grid.LossyPair()
	var vrpRate float64
	var skipFrac float64
	if err := g2.K.Run(func(p *vtime.Proc) {
		ua, _ := g2.Stack.Host(0).ListenUDP(7000)
		ub, _ := g2.Stack.Host(1).ListenUDP(7001)
		sender := vrp.New(g2.K, ua, 1, 7001, 0.10, 600e3)
		recv := vrp.New(g2.K, ub, 0, 7000, 0.10, 600e3)
		payload := make([]byte, 1200)
		rand.New(rand.NewSource(2)).Read(payload)
		nmsgs := size / len(payload)
		start := p.Now()
		for i := 0; i < nmsgs; i++ {
			sender.Send(payload)
		}
		// Drain deliveries until the stream goes quiet.
		received := 0
		for {
			if _, ok := recv.RecvTimeout(p, 2*time.Second); !ok {
				break
			}
			received++
		}
		elapsed := p.Now().Sub(start).Seconds() - 2 // minus the quiet timeout
		vrpRate = float64(received*len(payload)) / elapsed
		skipFrac = float64(sender.Stats().Skipped) / float64(nmsgs)
	}); err != nil {
		t.Fatal(err)
	}

	if tcpRate < 90e3 || tcpRate > 260e3 {
		t.Fatalf("TCP on lossy link = %.3g KB/s, want ~150", tcpRate/1e3)
	}
	if vrpRate < 400e3 || vrpRate > 620e3 {
		t.Fatalf("VRP on lossy link = %.3g KB/s, want ~500", vrpRate/1e3)
	}
	if ratio := vrpRate / tcpRate; ratio < 2 {
		t.Fatalf("VRP/TCP = %.2f, paper reports ~3x", ratio)
	}
	if skipFrac > 0.11 {
		t.Fatalf("VRP skipped %.1f%%, above the 10%% tolerance", skipFrac*100)
	}
}
