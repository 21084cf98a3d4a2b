package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"padico/internal/topology"
	"padico/internal/vtime"
)

func TestCrossbarLatencyAndSerialization(t *testing.T) {
	k := vtime.NewKernel()
	xb := NewCrossbar(k, topology.Myrinet, 250e6, 650*time.Nanosecond, 2*time.Microsecond)
	var arrivals []vtime.Time
	xb.Attach(0, func(pkt *Packet) {})
	xb.Attach(1, func(pkt *Packet) { arrivals = append(arrivals, k.Now()) })
	err := k.Run(func(p *vtime.Proc) {
		// Two back-to-back 4096-byte packets from the same source must
		// serialize: second arrives one tx-time after the first.
		xb.Send(&Packet{Src: 0, Dst: 1, Wire: 4096})
		xb.Send(&Packet{Src: 0, Dst: 1, Wire: 4096})
		p.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(arrivals))
	}
	tx := time.Duration(4096.0/250e6*1e9) + 650*time.Nanosecond
	want1 := vtime.Time(0).Add(tx + 2*time.Microsecond)
	want2 := vtime.Time(0).Add(2*tx + 2*time.Microsecond)
	if arrivals[0] != want1 || arrivals[1] != want2 {
		t.Fatalf("arrivals = %v, want [%v %v]", arrivals, want1, want2)
	}
}

func TestCrossbarDistinctSourcesDoNotSerialize(t *testing.T) {
	k := vtime.NewKernel()
	xb := NewCrossbar(k, topology.Myrinet, 250e6, 0, time.Microsecond)
	var arrivals []vtime.Time
	xb.Attach(0, func(*Packet) {})
	xb.Attach(1, func(*Packet) {})
	xb.Attach(2, func(*Packet) { arrivals = append(arrivals, k.Now()) })
	err := k.Run(func(p *vtime.Proc) {
		xb.Send(&Packet{Src: 0, Dst: 2, Wire: 1000})
		xb.Send(&Packet{Src: 1, Dst: 2, Wire: 1000})
		p.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 || arrivals[0] != arrivals[1] {
		t.Fatalf("independent sources should arrive together: %v", arrivals)
	}
}

func TestCrossbarPayloadIntegrity(t *testing.T) {
	k := vtime.NewKernel()
	xb := NewCrossbar(k, topology.Myrinet, 250e6, 0, time.Microsecond)
	var got []byte
	xb.Attach(0, func(*Packet) {})
	xb.Attach(1, func(pkt *Packet) { got = pkt.Payload })
	err := k.Run(func(p *vtime.Proc) {
		xb.Send(&Packet{Src: 0, Dst: 1, Payload: []byte("hello grid"), Wire: 10})
		p.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello grid" {
		t.Fatalf("payload = %q", got)
	}
}

func TestLANStoreAndForward(t *testing.T) {
	k := vtime.NewKernel()
	lan := NewSwitchedLAN(k, 12.5e6, 38, 30*time.Microsecond, 0, 1)
	var at vtime.Time
	lan.Attach(0, func(*Packet) {})
	lan.Attach(1, func(pkt *Packet) { at = k.Now() })
	err := k.Run(func(p *vtime.Proc) {
		lan.Send(&Packet{Src: 0, Dst: 1, Wire: 1462}) // 1500-byte frame
		p.Sleep(10 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Store-and-forward: frame crosses ingress then egress, 120 µs each
	// at 12.5 MB/s, + 30 µs switch latency.
	frameTx := time.Duration(1500.0 / 12.5e6 * 1e9)
	want := vtime.Time(0).Add(2*frameTx + 30*time.Microsecond)
	if at != want {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}

func TestLANLossIsDeterministic(t *testing.T) {
	run := func() int64 {
		k := vtime.NewKernel()
		lan := NewSwitchedLAN(k, 12.5e6, 38, time.Microsecond, 0.3, 42)
		lan.Attach(0, func(*Packet) {})
		lan.Attach(1, func(*Packet) {})
		_ = k.Run(func(p *vtime.Proc) {
			for i := 0; i < 1000; i++ {
				lan.Send(&Packet{Src: 0, Dst: 1, Wire: 100})
			}
			p.Sleep(time.Second)
		})
		return lan.Drops
	}
	d1, d2 := run(), run()
	if d1 != d2 {
		t.Fatalf("loss not deterministic: %d vs %d", d1, d2)
	}
	if d1 < 200 || d1 > 400 {
		t.Fatalf("drops = %d out of 1000 at p=0.3", d1)
	}
}

// TestPathLossIsDeterministic pins the reproducibility contract: the
// loss RNG is per-path and seeded, so two runs with the same seed
// produce identical drop counts and identical delivery instants, while
// a different seed produces a different drop pattern.
func TestPathLossIsDeterministic(t *testing.T) {
	run := func(seed int64) (int64, []vtime.Time) {
		k := vtime.NewKernel()
		path := NewPath(k, "lossy", seed,
			&Hop{Name: "l", Rate: 1e6, Latency: time.Millisecond, Loss: 0.2, QueueCap: 1 << 20})
		var arrivals []vtime.Time
		path.SetDeliver(func(*Packet) { arrivals = append(arrivals, k.Now()) })
		_ = k.Run(func(p *vtime.Proc) {
			for i := 0; i < 500; i++ {
				path.Send(&Packet{Wire: 500})
			}
			p.Sleep(time.Second)
		})
		return path.Drops(), arrivals
	}
	d1, a1 := run(7)
	d2, a2 := run(7)
	if d1 != d2 || len(a1) != len(a2) {
		t.Fatalf("same seed diverged: %d/%d drops, %d/%d deliveries", d1, d2, len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("delivery %d at %v vs %v", i, a1[i], a2[i])
		}
	}
	if d1 < 50 || d1 > 150 {
		t.Fatalf("drops = %d of 500 at p=0.2", d1)
	}
	d3, _ := run(8)
	if d3 == d1 {
		t.Fatal("different seeds produced identical drop counts (suspicious)")
	}
}

func TestPathThroughputMatchesBottleneck(t *testing.T) {
	k := vtime.NewKernel()
	// Fast first hop, slow second: throughput set by the bottleneck.
	path := NewPath(k, "wan", 7,
		&Hop{Name: "access", Rate: 12.5e6, Latency: 30 * time.Microsecond, QueueCap: 1 << 20},
		&Hop{Name: "core", Rate: 1e6, Latency: 5 * time.Millisecond, QueueCap: 1 << 20},
	)
	var last vtime.Time
	var bytes int
	path.SetDeliver(func(pkt *Packet) { last = k.Now(); bytes += pkt.Wire })
	err := k.Run(func(p *vtime.Proc) {
		for i := 0; i < 100; i++ {
			path.Send(&Packet{Src: 0, Dst: 1, Wire: 1000})
		}
		p.Sleep(time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if bytes != 100000 {
		t.Fatalf("delivered %d bytes", bytes)
	}
	rate := float64(bytes) / last.Seconds()
	if rate < 0.9e6 || rate > 1.1e6 {
		t.Fatalf("path rate = %.3g B/s, want ~1e6", rate)
	}
}

func TestPathQueueOverflowDrops(t *testing.T) {
	k := vtime.NewKernel()
	path := NewPath(k, "narrow", 7,
		&Hop{Name: "slow", Rate: 1e5, Latency: time.Millisecond, QueueCap: 4},
	)
	delivered := 0
	path.SetDeliver(func(*Packet) { delivered++ })
	err := k.Run(func(p *vtime.Proc) {
		for i := 0; i < 100; i++ {
			path.Send(&Packet{Wire: 1000})
		}
		p.Sleep(5 * time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if path.Drops() == 0 {
		t.Fatal("no tail drops despite tiny queue")
	}
	if delivered+int(path.Drops()) != 100 {
		t.Fatalf("delivered %d + drops %d != 100", delivered, path.Drops())
	}
}

// TestPathConditionsSchedule pins the dynamic-fabric contract: a rate
// change armed on the kernel takes effect at its virtual instant, the
// schedule is deterministic across runs, and byte accounting follows
// the packets that actually serialized.
func TestPathConditionsSchedule(t *testing.T) {
	run := func() (vtime.Time, int64) {
		k := vtime.NewKernel()
		hop := &Hop{Name: "core", Rate: 10e6, Latency: time.Millisecond, QueueCap: 1 << 20}
		path := NewPath(k, "wan", 7, hop)
		var last vtime.Time
		path.SetDeliver(func(*Packet) { last = k.Now() })
		// Degrade to a tenth of the rate at t=5ms.
		ScheduleRate(k, vtime.Time(0).Add(5*time.Millisecond), hop, 1e6)
		err := k.Run(func(p *vtime.Proc) {
			for i := 0; i < 100; i++ {
				path.Send(&Packet{Wire: 1000}) // 100 µs each at 10 MB/s
			}
			p.Sleep(10 * time.Millisecond)
			for i := 0; i < 100; i++ {
				path.Send(&Packet{Wire: 1000}) // 1 ms each at 1 MB/s
			}
			p.Sleep(200 * time.Millisecond)
		})
		if err != nil {
			t.Fatal(err)
		}
		return last, hop.Bytes
	}
	last, bytes := run()
	// Second burst starts at 10 ms and serializes at 1 MB/s: 100 ms of
	// wire time + 1 ms latency.
	want := vtime.Time(0).Add(10*time.Millisecond + 100*time.Millisecond + time.Millisecond)
	if last != want {
		t.Fatalf("last delivery = %v, want %v", last, want)
	}
	if bytes != 200000 {
		t.Fatalf("hop bytes = %d, want 200000", bytes)
	}
	last2, bytes2 := run()
	if last2 != last || bytes2 != bytes {
		t.Fatalf("schedule not deterministic: %v/%d vs %v/%d", last, bytes, last2, bytes2)
	}
}

// TestLANConditionsSchedule: LAN conditions are schedulable like hop
// conditions — a rate change armed on the kernel takes effect at its
// instant for packets sent afterwards.
func TestLANConditionsSchedule(t *testing.T) {
	k := vtime.NewKernel()
	lan := NewSwitchedLAN(k, 10e6, 0, time.Microsecond, 0, 1)
	var arrivals []vtime.Time
	lan.Attach(0, func(*Packet) {})
	lan.Attach(1, func(*Packet) { arrivals = append(arrivals, k.Now()) })
	k.At(vtime.Time(0).Add(5*time.Millisecond), func() { lan.SetRate(1e6) })
	k.At(vtime.Time(0).Add(50*time.Millisecond), func() { lan.SetLoss(1.0) })
	err := k.Run(func(p *vtime.Proc) {
		lan.Send(&Packet{Src: 0, Dst: 1, Wire: 10000}) // 1 ms/side at 10 MB/s
		p.Sleep(10 * time.Millisecond)
		lan.Send(&Packet{Src: 0, Dst: 1, Wire: 10000}) // 10 ms/side at 1 MB/s
		p.Sleep(50 * time.Millisecond)
		lan.Send(&Packet{Src: 0, Dst: 1, Wire: 10000}) // loss=1: dropped
		p.Sleep(100 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	want1 := vtime.Time(0).Add(2*time.Millisecond + time.Microsecond)
	want2 := vtime.Time(0).Add(10*time.Millisecond + 20*time.Millisecond + time.Microsecond)
	if len(arrivals) != 2 || arrivals[0] != want1 || arrivals[1] != want2 {
		t.Fatalf("arrivals = %v, want [%v %v]", arrivals, want1, want2)
	}
	if lan.Drops != 1 {
		t.Fatalf("drops = %d, want 1 after SetLoss(1)", lan.Drops)
	}
}

// TestPathOutageAndRestore pins outage semantics: while down every
// packet is dropped (and counted); after restore traffic flows again.
func TestPathOutageAndRestore(t *testing.T) {
	k := vtime.NewKernel()
	hop := &Hop{Name: "core", Rate: 1e6, Latency: time.Millisecond, QueueCap: 1 << 20}
	path := NewPath(k, "wan", 7, hop)
	delivered := 0
	path.SetDeliver(func(*Packet) { delivered++ })
	down := vtime.Time(0).Add(10 * time.Millisecond)
	up := vtime.Time(0).Add(20 * time.Millisecond)
	ScheduleOutage(k, down, up, hop)
	dropHits := 0
	err := k.Run(func(p *vtime.Proc) {
		send := func() {
			path.Send(&Packet{Wire: 100, Drop: func() { dropHits++ }})
		}
		send() // healthy
		p.Sleep(15 * time.Millisecond)
		if !hop.Down() {
			t.Fatal("hop should be down at t=15ms")
		}
		send() // during outage: dropped
		p.Sleep(10 * time.Millisecond)
		if hop.Down() {
			t.Fatal("hop should be restored at t=25ms")
		}
		send() // restored
		p.Sleep(10 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 2 || hop.Drops != 1 || dropHits != 1 {
		t.Fatalf("delivered=%d drops=%d dropHooks=%d, want 2/1/1", delivered, hop.Drops, dropHits)
	}
}

// Property: on a loss-free crossbar, every packet sent is delivered
// exactly once, in per-source FIFO order.
func TestQuickCrossbarFIFO(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		k := vtime.NewKernel()
		xb := NewCrossbar(k, topology.Myrinet, 250e6, 0, time.Microsecond)
		var got []int
		xb.Attach(0, func(*Packet) {})
		xb.Attach(1, func(pkt *Packet) { got = append(got, pkt.Meta.(int)) })
		err := k.Run(func(p *vtime.Proc) {
			for i, s := range sizes {
				xb.Send(&Packet{Src: 0, Dst: 1, Wire: int(s) + 1, Meta: i})
			}
			p.Sleep(time.Second)
		})
		if err != nil || len(got) != len(sizes) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyGridDescription(t *testing.T) {
	g := topology.New()
	myri := g.AddNetwork("myri0", topology.Myrinet, true, 250e6, 2*time.Microsecond, 0, 0)
	eth := g.AddNetwork("eth0", topology.Ethernet, true, 12.5e6, 30*time.Microsecond, 0, 1500)
	a := g.AddNode("n0", "rennes")
	b := g.AddNode("n1", "rennes")
	c := g.AddNode("n2", "lyon")
	g.Attach(a, myri)
	g.Attach(b, myri)
	g.Attach(a, eth)
	g.Attach(b, eth)
	g.Attach(c, eth)

	if !g.SameSite(a.ID, b.ID) || g.SameSite(a.ID, c.ID) {
		t.Fatal("site classification wrong")
	}
	common := g.Common(a.ID, b.ID)
	if len(common) != 2 || common[0] != myri {
		t.Fatalf("common(a,b) = %v", common)
	}
	if got := g.Common(a.ID, c.ID); len(got) != 1 || got[0] != eth {
		t.Fatalf("common(a,c) should be eth only")
	}
	if ms := myri.Members(); len(ms) != 2 || ms[0] != a.ID || ms[1] != b.ID {
		t.Fatalf("myrinet members = %v", ms)
	}
	if !topology.Myrinet.Parallel() || topology.Ethernet.Parallel() {
		t.Fatal("paradigm classification wrong")
	}
}
