// Package gm_test exercises the GM SAN driver against the
// Myrinet crossbar.
package gm_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"padico/internal/drivers/gm"
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
