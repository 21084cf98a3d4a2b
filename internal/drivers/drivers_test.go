// Package drivers_test exercises the four vendor-style SAN drivers
// against the crossbar fabrics.
package drivers_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"padico/internal/drivers/bip"
	"padico/internal/drivers/gm"
	"padico/internal/drivers/sisci"
	"padico/internal/drivers/via"
	"padico/internal/iovec"
	"padico/internal/model"
	"padico/internal/netsim"
	"padico/internal/topology"
	"padico/internal/vtime"
)

func myrinet(k *vtime.Kernel) *netsim.Crossbar {
	return netsim.NewCrossbar(k, topology.Myrinet, model.MyrinetRate,
		model.MyrinetPktOverhd, model.MyrinetWireLat)
}

func sciFabric(k *vtime.Kernel) *netsim.Crossbar {
	return netsim.NewCrossbar(k, topology.SCI, model.SCIRate, 300*time.Nanosecond, model.SCIWireLat)
}

// --- GM ---------------------------------------------------------------

func TestGMRoundTripLatency(t *testing.T) {
	k := vtime.NewKernel()
	xb := myrinet(k)
	n0 := gm.OpenNIC(k, xb, 0)
	n1 := gm.OpenNIC(k, xb, 1)
	p0, _ := n0.OpenPort(0)
	p1, _ := n1.OpenPort(0)
	var oneway time.Duration
	if err := k.Run(func(p *vtime.Proc) {
		got := vtime.NewQueue[gm.RecvEvent]("rx0")
		p0.SetHandler(func(ev gm.RecvEvent) { got.Push(ev) })
		p1.SetHandler(func(ev gm.RecvEvent) { p1.Send(ev.SrcAddr, ev.SrcPort, ev.Msg) })
		const rounds = 100
		start := p.Now()
		for i := 0; i < rounds; i++ {
			p0.Send(1, 0, iovec.Make([]byte{1}))
			got.Pop(p)
		}
		oneway = p.Now().Sub(start) / (2 * rounds)
	}); err != nil {
		t.Fatal(err)
	}
	// GM one-way for tiny messages: 2×1.5 µs host + 2 µs wire + packet
	// overhead ≈ 5.7 µs.
	if oneway < 4500*time.Nanosecond || oneway > 7*time.Microsecond {
		t.Fatalf("GM one-way latency = %v, want ~5-6 µs", oneway)
	}
}

func TestGMBandwidthNearWireRate(t *testing.T) {
	k := vtime.NewKernel()
	xb := myrinet(k)
	n0 := gm.OpenNIC(k, xb, 0)
	n1 := gm.OpenNIC(k, xb, 1)
	p0, _ := n0.OpenPort(0)
	p1, _ := n1.OpenPort(0)
	var rate float64
	if err := k.Run(func(p *vtime.Proc) {
		acks := vtime.NewQueue[struct{}]("acks")
		p0.SetHandler(func(gm.RecvEvent) { acks.Push(struct{}{}) })
		p1.SetHandler(func(ev gm.RecvEvent) { p1.Send(0, 0, iovec.Make([]byte{1})) })
		const msgs, size = 32, 1 << 20
		buf := make([]byte, size)
		start := p.Now()
		for i := 0; i < msgs; i++ {
			p0.Send(1, 0, iovec.Make(buf))
			acks.Pop(p)
		}
		rate = float64(msgs*size) / p.Now().Sub(start).Seconds()
	}); err != nil {
		t.Fatal(err)
	}
	// Effective wire rate with per-packet overhead is ~240 MB/s.
	if rate < 230e6 || rate > 245e6 {
		t.Fatalf("GM bandwidth = %.4g MB/s, want ~240", rate/1e6)
	}
}

func TestGMPortLimitIsHardwareLimit(t *testing.T) {
	k := vtime.NewKernel()
	n := gm.OpenNIC(k, myrinet(k), 0)
	if _, err := n.OpenPort(0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenPort(1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenPort(2); err == nil {
		t.Fatal("port beyond MyrinetHWChannels opened")
	}
	if _, err := n.OpenPort(0); err == nil {
		t.Fatal("duplicate port opened")
	}
}

func TestGMScatterGatherSend(t *testing.T) {
	k := vtime.NewKernel()
	xb := myrinet(k)
	n0 := gm.OpenNIC(k, xb, 0)
	n1 := gm.OpenNIC(k, xb, 1)
	p0, _ := n0.OpenPort(0)
	p1, _ := n1.OpenPort(1)
	head := []byte("head|")
	var got iovec.Vec
	if err := k.Run(func(p *vtime.Proc) {
		q := vtime.NewQueue[iovec.Vec]("rx")
		p1.SetHandler(func(ev gm.RecvEvent) { q.Push(ev.Msg) })
		p0.Send(1, 1, iovec.Make(head, []byte("body|"), nil, []byte("tail")))
		got = q.Pop(p)
	}); err != nil {
		t.Fatal(err)
	}
	// Boundaries survive (the empty segment too) and nothing was copied:
	// the receiver reads the sender's memory.
	if len(got.Segs) != 4 || string(got.AppendFrom(nil, 0)) != "head|body|tail" || len(got.Segs[2].B) != 0 {
		t.Fatalf("got %d segments %q", len(got.Segs), got.AppendFrom(nil, 0))
	}
	if &got.Segs[0].B[0] != &head[0] {
		t.Fatal("GM copied the first segment instead of passing it by reference")
	}
}

// A message whose port closes while it is on the wire is dropped by the
// receiving NIC; the pooled buffers it carries go back with its last
// packet, whether the port closed before the first packet or between two.
func TestGMClosedPortReleasesBuffers(t *testing.T) {
	for _, closeAfter := range []time.Duration{0, 20 * time.Microsecond} {
		k := vtime.NewKernel()
		xb := myrinet(k)
		n0 := gm.OpenNIC(k, xb, 0)
		n1 := gm.OpenNIC(k, xb, 1)
		p0, _ := n0.OpenPort(0)
		p1, _ := n1.OpenPort(0)
		p1.SetHandler(func(gm.RecvEvent) { t.Error("message delivered to a closed port") })
		base := iovec.Outstanding()
		if err := k.Run(func(p *vtime.Proc) {
			head, body := iovec.Get(64), iovec.Get(3*model.MyrinetPacket)
			p0.Send(1, 0, iovec.Vec{Segs: []iovec.Seg{{B: head.Bytes(), Owner: head}, {B: body.Bytes(), Owner: body}}})
			p.Sleep(closeAfter)
			p1.Close()
			p.Sleep(time.Millisecond)
		}); err != nil {
			t.Fatal(err)
		}
		if got := iovec.Outstanding(); got != base {
			t.Errorf("port closed after %v: %d buffers outstanding, want %d", closeAfter, got, base)
		}
	}
}

// Property: GM delivers any mix of message sizes intact and in order.
func TestQuickGMIntegrity(t *testing.T) {
	f := func(sizes []uint16, seed int64) bool {
		if len(sizes) == 0 || len(sizes) > 20 {
			return true
		}
		rnd := rand.New(rand.NewSource(seed))
		msgs := make([][]byte, len(sizes))
		for i, s := range sizes {
			msgs[i] = make([]byte, int(s)%20000+1)
			rnd.Read(msgs[i])
		}
		k := vtime.NewKernel()
		xb := myrinet(k)
		n0 := gm.OpenNIC(k, xb, 0)
		n1 := gm.OpenNIC(k, xb, 1)
		p0, _ := n0.OpenPort(0)
		p1, _ := n1.OpenPort(0)
		ok := true
		err := k.Run(func(p *vtime.Proc) {
			q := vtime.NewQueue[iovec.Vec]("rx")
			p1.SetHandler(func(ev gm.RecvEvent) { q.Push(ev.Msg) })
			for _, m := range msgs {
				// Two segments split at an arbitrary point: packets cut
				// across the boundary.
				cut := len(m) / 3
				p0.Send(1, 0, iovec.Make(m[:cut], m[cut:]))
			}
			for _, want := range msgs {
				if !bytes.Equal(q.Pop(p).AppendFrom(nil, 0), want) {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// --- BIP --------------------------------------------------------------

func TestBIPEagerShortMessages(t *testing.T) {
	k := vtime.NewKernel()
	xb := myrinet(k)
	e0 := bip.Open(k, xb, 0)
	e1 := bip.Open(k, xb, 1)
	var got []byte
	if err := k.Run(func(p *vtime.Proc) {
		q := vtime.NewQueue[[]byte]("rx")
		e1.SetHandler(func(ev bip.RecvEvent) { q.Push(ev.Data) })
		e0.Send(1, []byte("short")) // below eager limit: no PostRecv needed
		got = q.Pop(p)
	}); err != nil {
		t.Fatal(err)
	}
	if string(got) != "short" || e0.Rendezvous != 0 {
		t.Fatalf("got %q, rendezvous=%d", got, e0.Rendezvous)
	}
}

func TestBIPRendezvousWaitsForPostedRecv(t *testing.T) {
	k := vtime.NewKernel()
	xb := myrinet(k)
	e0 := bip.Open(k, xb, 0)
	e1 := bip.Open(k, xb, 1)
	long := make([]byte, 100000)
	rand.New(rand.NewSource(5)).Read(long)
	if err := k.Run(func(p *vtime.Proc) {
		q := vtime.NewQueue[[]byte]("rx")
		e1.SetHandler(func(ev bip.RecvEvent) { q.Push(ev.Data) })
		e0.Send(1, long)
		// Without a posted receive the payload must not arrive.
		if _, ok := q.PopTimeout(p, 10*time.Millisecond); ok {
			t.Error("rendezvous payload arrived before PostRecv")
		}
		e1.PostRecv()
		got := q.Pop(p)
		if !bytes.Equal(got, long) {
			t.Error("payload corrupted")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if e0.Rendezvous != 1 {
		t.Fatalf("rendezvous count = %d", e0.Rendezvous)
	}
}

func TestBIPManyLongMessagesFIFO(t *testing.T) {
	k := vtime.NewKernel()
	xb := myrinet(k)
	e0 := bip.Open(k, xb, 0)
	e1 := bip.Open(k, xb, 1)
	if err := k.Run(func(p *vtime.Proc) {
		q := vtime.NewQueue[[]byte]("rx")
		e1.SetHandler(func(ev bip.RecvEvent) { q.Push(ev.Data) })
		for i := 0; i < 5; i++ {
			e1.PostRecv()
			msg := make([]byte, 5000)
			msg[0] = byte(i)
			e0.Send(1, msg)
		}
		for i := 0; i < 5; i++ {
			got := q.Pop(p)
			if got[0] != byte(i) || len(got) != 5000 {
				t.Errorf("message %d out of order or truncated", i)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// --- SISCI ------------------------------------------------------------

func TestSISCIRemoteWriteAndInterrupt(t *testing.T) {
	k := vtime.NewKernel()
	xb := sciFabric(k)
	n0 := sisci.Open(k, xb, 0)
	n1 := sisci.Open(k, xb, 1)
	seg := n1.CreateSegment(7, 4096)
	if err := k.Run(func(p *vtime.Proc) {
		intr := vtime.NewQueue[int]("intr")
		n1.RegisterInterrupt(3, func(src int) { intr.Push(src) })
		rs := n0.Connect(1, 7, 4096)
		if err := rs.Write(100, []byte("sci remote store")); err != nil {
			t.Fatal(err)
		}
		rs.TriggerInterrupt(3)
		src := intr.Pop(p)
		if src != 0 {
			t.Errorf("interrupt src = %d", src)
		}
		// FIFO ordering: by interrupt time the store is visible.
		if string(seg.Mem[100:116]) != "sci remote store" {
			t.Errorf("segment = %q", seg.Mem[100:116])
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSISCIBoundsChecked(t *testing.T) {
	k := vtime.NewKernel()
	xb := sciFabric(k)
	n0 := sisci.Open(k, xb, 0)
	n1 := sisci.Open(k, xb, 1)
	n1.CreateSegment(1, 128)
	if err := k.Run(func(p *vtime.Proc) {
		rs := n0.Connect(1, 1, 128)
		if err := rs.Write(120, make([]byte, 16)); err == nil {
			t.Error("out-of-bounds write accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// --- VIA --------------------------------------------------------------

func TestVIADescriptorFlow(t *testing.T) {
	k := vtime.NewKernel()
	xb := myrinet(k)
	n0 := via.Open(k, xb, 0)
	n1 := via.Open(k, xb, 1)
	v0 := n0.CreateVI(0)
	v1 := n1.CreateVI(0)
	if err := k.Run(func(p *vtime.Proc) {
		q := vtime.NewQueue[via.Completion]("cq")
		v1.SetHandler(func(c via.Completion) { q.Push(c) })
		v1.PostRecv(make([]byte, 8192))
		v0.PostSend(1, 0, []byte("via message"))
		c := q.Pop(p)
		if string(c.Data) != "via message" || c.SrcAddr != 0 {
			t.Errorf("completion = %+v", c)
		}
		if v1.PostedRecvs() != 0 {
			t.Errorf("descriptor not consumed")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestVIADropWithoutDescriptor(t *testing.T) {
	k := vtime.NewKernel()
	xb := myrinet(k)
	n0 := via.Open(k, xb, 0)
	n1 := via.Open(k, xb, 1)
	v0 := n0.CreateVI(0)
	n1.CreateVI(0)
	if err := k.Run(func(p *vtime.Proc) {
		v0.PostSend(1, 0, []byte("doomed"))
		p.Sleep(time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	if n1.Dropped == 0 {
		t.Fatal("message without posted receive was not dropped")
	}
}

func TestVIAMultiPacketMessage(t *testing.T) {
	k := vtime.NewKernel()
	xb := myrinet(k)
	n0 := via.Open(k, xb, 0)
	n1 := via.Open(k, xb, 1)
	v0 := n0.CreateVI(0)
	v1 := n1.CreateVI(0)
	msg := make([]byte, model.MyrinetPacket*3) // exact multiple: boundary case
	rand.New(rand.NewSource(9)).Read(msg)
	if err := k.Run(func(p *vtime.Proc) {
		q := vtime.NewQueue[via.Completion]("cq")
		v1.SetHandler(func(c via.Completion) { q.Push(c) })
		v1.PostRecv(make([]byte, len(msg)))
		v0.PostSend(1, 0, msg)
		c := q.Pop(p)
		if !bytes.Equal(c.Data, msg) {
			t.Error("multi-packet message corrupted")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestVIATruncationToPostedBuffer(t *testing.T) {
	k := vtime.NewKernel()
	xb := myrinet(k)
	n0 := via.Open(k, xb, 0)
	n1 := via.Open(k, xb, 1)
	v0 := n0.CreateVI(0)
	v1 := n1.CreateVI(0)
	if err := k.Run(func(p *vtime.Proc) {
		q := vtime.NewQueue[via.Completion]("cq")
		v1.SetHandler(func(c via.Completion) { q.Push(c) })
		v1.PostRecv(make([]byte, 4))
		v0.PostSend(1, 0, []byte("longer than four"))
		c := q.Pop(p)
		if string(c.Data) != "long" {
			t.Errorf("truncated data = %q", c.Data)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestVIAPollCQWithoutHandler(t *testing.T) {
	k := vtime.NewKernel()
	xb := myrinet(k)
	n0 := via.Open(k, xb, 0)
	n1 := via.Open(k, xb, 1)
	v0 := n0.CreateVI(0)
	v1 := n1.CreateVI(0)
	if err := k.Run(func(p *vtime.Proc) {
		if _, err := v1.PollCQ(); err == nil {
			t.Error("PollCQ on empty queue succeeded")
		}
		v1.PostRecv(make([]byte, 64))
		v0.PostSend(1, 0, []byte("polled"))
		p.Sleep(time.Millisecond)
		c, err := v1.PollCQ()
		if err != nil || string(c.Data) != "polled" {
			t.Errorf("PollCQ = %v, %v", c, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
