package ipstack

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"padico/internal/model"
	"padico/internal/netsim"
	"padico/internal/vtime"
)

// lanPair wires two hosts over a loss-free Ethernet-100 LAN.
func lanPair(k *vtime.Kernel) (*Stack, *Host, *Host) {
	st := New(k)
	lan := netsim.NewSwitchedLAN(k, model.EthernetRate, model.EthernetFrameOH,
		model.EthernetWireLat, 0, 1)
	st.ConnectLAN(lan, 0, 0, 1, 1, model.EthernetMTU)
	return st, st.Host(0), st.Host(1)
}

// wanPair wires two hosts across a VTHD-like WAN: Ethernet access hops
// feeding a fast 8 ms core.
func wanPair(k *vtime.Kernel) (*Stack, *Host, *Host) {
	st := New(k)
	st.ConnectPath(0, 1, wanPath(k, 11), wanPath(k, 12), model.EthernetMTU)
	return st, st.Host(0), st.Host(1)
}

// wanPath is one direction of wanPair.
func wanPath(k *vtime.Kernel, seed int64) *netsim.Path {
	return netsim.NewPath(k, "vthd", seed,
		&netsim.Hop{Name: "access", Rate: 12.2e6, Latency: 50 * time.Microsecond, QueueCap: 64},
		&netsim.Hop{Name: "core", Rate: model.VTHDCoreRate, Latency: model.VTHDWireLat, QueueCap: 4096},
	)
}

// lossyPair wires two hosts across the trans-continental lossy link.
func lossyPair(k *vtime.Kernel) (*Stack, *Host, *Host) {
	st := New(k)
	mk := func(seed int64) *netsim.Path {
		return netsim.NewPath(k, "lossy", seed,
			&netsim.Hop{Name: "transcont", Rate: model.LossyRate,
				Latency: model.LossyWireLat, Loss: model.LossyLossPct, QueueCap: 256},
		)
	}
	st.ConnectPath(0, 1, mk(21), mk(22), model.EthernetMTU)
	return st, st.Host(0), st.Host(1)
}

func TestUDPDelivery(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, hb := lanPair(k)
	if err := k.Run(func(p *vtime.Proc) {
		ua, _ := ha.ListenUDP(5000)
		ub, _ := hb.ListenUDP(6000)
		if err := ua.SendTo(1, 6000, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		dg := ub.Recv(p)
		if string(dg.Data) != "ping" || dg.From != 0 || dg.FromPort != 5000 {
			t.Fatalf("got %+v", dg)
		}
		if err := ub.SendTo(0, 5000, []byte("pong")); err != nil {
			t.Fatal(err)
		}
		if dg := ua.Recv(p); string(dg.Data) != "pong" {
			t.Fatalf("got %q", dg.Data)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPMTULimit(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, _ := lanPair(k)
	if err := k.Run(func(p *vtime.Proc) {
		ua, _ := ha.ListenUDP(0)
		mtu, err := ua.MTU(1)
		if err != nil || mtu != model.EthernetMTU-28 {
			t.Fatalf("MTU = %d, %v", mtu, err)
		}
		if err := ua.SendTo(1, 9, make([]byte, mtu+1)); err == nil {
			t.Fatal("oversized datagram accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPConnectTransferClose(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, hb := lanPair(k)
	msg := make([]byte, 100000)
	rnd := rand.New(rand.NewSource(3))
	rnd.Read(msg)
	var got []byte
	if err := k.Run(func(p *vtime.Proc) {
		ln, err := hb.Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		k.Go("server", func(q *vtime.Proc) {
			defer done.Done()
			c, err := ln.Accept(q)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 4096)
			for {
				n, err := c.Read(q, buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		})
		c, err := ha.Dial(p, 1, 80)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Write(p, msg); err != nil {
			t.Fatal(err)
		}
		c.Close()
		done.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(msg))
	}
}

func TestTCPDialNoListener(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, _ := lanPair(k)
	if err := k.Run(func(p *vtime.Proc) {
		if _, err := ha.Dial(p, 1, 9999); !errors.Is(err, ErrRefused) {
			t.Fatalf("err = %v, want ErrRefused", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPDialNoRoute(t *testing.T) {
	k := vtime.NewKernel()
	st := New(k)
	if err := k.Run(func(p *vtime.Proc) {
		if _, err := st.Host(0).Dial(p, 42, 80); !errors.Is(err, ErrNoRoute) {
			t.Fatalf("err = %v, want ErrNoRoute", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// transfer pushes size bytes a->b and returns goodput in bytes/s of
// virtual time.
func transfer(t *testing.T, k *vtime.Kernel, ha, hb *Host, size int) float64 {
	t.Helper()
	var rate float64
	if err := k.Run(func(p *vtime.Proc) {
		ln, _ := hb.Listen(80)
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		var recvEnd vtime.Time
		k.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			c, _ := ln.Accept(q)
			buf := make([]byte, 64<<10)
			total := 0
			for total < size {
				n, err := c.Read(q, buf)
				total += n
				if err != nil {
					if err != io.EOF {
						t.Error(err)
					}
					break
				}
			}
			recvEnd = q.Now()
		})
		c, err := ha.Dial(p, hb.ID(), 80)
		if err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		chunk := make([]byte, 64<<10)
		sent := 0
		for sent < size {
			n := size - sent
			if n > len(chunk) {
				n = len(chunk)
			}
			if err := c.Write(p, chunk[:n]); err != nil {
				t.Fatal(err)
			}
			sent += n
		}
		done.Wait(p)
		rate = float64(size) / recvEnd.Sub(start).Seconds()
	}); err != nil {
		t.Fatal(err)
	}
	return rate
}

func TestTCPLANThroughputNearLineRate(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, hb := lanPair(k)
	rate := transfer(t, k, ha, hb, 4<<20)
	// Paper's Ethernet-100 reference peaks around 11 MB/s.
	if rate < 10.5e6 || rate > 12.5e6 {
		t.Fatalf("LAN TCP rate = %.3g MB/s, want ~11", rate/1e6)
	}
}

func TestTCPWANWindowLimited(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, hb := wanPair(k)
	rate := transfer(t, k, ha, hb, 8<<20)
	// Paper §5: "a bandwidth of 9 MB/s" for one stream on VTHD —
	// the 160 KiB window over a ~17 ms RTT.
	if rate < 7.5e6 || rate > 10.5e6 {
		t.Fatalf("WAN TCP rate = %.3g MB/s, want ~9", rate/1e6)
	}
}

// TestRTOHoldsAtMostTwoHeapEntries: the sender re-arms its RTO on every
// ACK round, and the event heap must not grow with the rounds: checked
// after each ACK that arrives with data outstanding, the connection's
// alarm holds at most two heap entries.
func TestRTOHoldsAtMostTwoHeapEntries(t *testing.T) {
	k := vtime.NewKernel()
	st := New(k)
	ab, ba := wanPath(k, 11), wanPath(k, 12)
	st.ConnectPath(0, 1, ab, ba, model.EthernetMTU)
	ha, hb := st.Host(0), st.Host(1)
	rounds, most := 0, 0
	ba.SetDeliver(func(pkt *netsim.Packet) {
		ha.input(pkt)
		for _, c := range ha.conns {
			if c.sndUna != c.sndNxt {
				rounds++
				most = max(most, rtoEntries(k, c))
			}
		}
	})
	transfer(t, k, ha, hb, 16<<20)
	if rounds < 10000 || most > 2 {
		t.Fatalf("%d ACK rounds with data outstanding, RTO held up to %d heap entries; want >= 10000 and <= 2", rounds, most)
	}
}

// rtoEntries counts the entries c's retransmission alarm holds in k's
// event heap. The heap is internal to vtime, so it is read by reflection.
func rtoEntries(k *vtime.Kernel, c *TCPConn) int {
	alarm := reflect.ValueOf(&c.rtoAlarm).Pointer()
	events := reflect.ValueOf(k).Elem().FieldByName("events")
	n := 0
	for i := 0; i < events.Len(); i++ {
		if events.Index(i).FieldByName("al").Pointer() == alarm {
			n++
		}
	}
	return n
}

func TestTCPLossyLinkCollapses(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, hb := lossyPair(k)
	rate := transfer(t, k, ha, hb, 512<<10)
	// Paper §5: "with TCP/IP and plain sockets, we get 150 KB/s" on the
	// 5-10%-loss link. Emergent Reno behaviour: well under the link's
	// 600 KB/s capacity, in the 100-250 KB/s band.
	if rate < 90e3 || rate > 260e3 {
		t.Fatalf("lossy TCP rate = %.3g KB/s, want ~150", rate/1e3)
	}
}

func TestTCPRetransmitsOnLossyLink(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, hb := lossyPair(k)
	var retrans int64
	if err := k.Run(func(p *vtime.Proc) {
		ln, _ := hb.Listen(80)
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		k.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			c, _ := ln.Accept(q)
			buf := make([]byte, 32<<10)
			total := 0
			for total < 200000 {
				n, err := c.Read(q, buf)
				total += n
				if err != nil {
					break
				}
			}
		})
		c, err := ha.Dial(p, 1, 80)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Write(p, make([]byte, 200000)); err != nil {
			t.Fatal(err)
		}
		done.Wait(p)
		retrans = c.Retransmits
	}); err != nil {
		t.Fatal(err)
	}
	if retrans == 0 {
		t.Fatal("no retransmissions on a 5% loss link")
	}
}

func TestTCPBidirectional(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, hb := lanPair(k)
	if err := k.Run(func(p *vtime.Proc) {
		ln, _ := hb.Listen(80)
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		k.Go("echo", func(q *vtime.Proc) {
			defer done.Done()
			c, _ := ln.Accept(q)
			buf := make([]byte, 1024)
			for {
				n, err := c.Read(q, buf)
				if n > 0 {
					if err := c.Write(q, buf[:n]); err != nil {
						return
					}
				}
				if err != nil {
					c.Close()
					return
				}
			}
		})
		c, _ := ha.Dial(p, 1, 80)
		for i := 0; i < 10; i++ {
			msg := []byte("echo-me-please-0123456789")
			if err := c.Write(p, msg); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(msg))
			if _, err := c.ReadFull(p, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("echo mismatch: %q", got)
			}
		}
		c.Close()
		done.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPFlowControlBlocksSender(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, hb := lanPair(k)
	if err := k.Run(func(p *vtime.Proc) {
		ln, _ := hb.Listen(80)
		accepted := vtime.NewQueue[*TCPConn]("acc")
		k.GoDaemon("acceptor", func(q *vtime.Proc) {
			c, _ := ln.Accept(q)
			accepted.Push(c)
			// Never reads: receiver window must stall the sender.
			vtime.NewCond("forever").Wait(q)
		})
		c, _ := ha.Dial(p, 1, 80)
		// Try to push well past snd+rcv buffering; must not complete.
		big := make([]byte, DefaultSndBuf+DefaultRcvBuf+1<<20)
		wrote := vtime.NewWaitGroup("wrote")
		wrote.Add(1)
		finished := false
		k.GoDaemon("writer", func(q *vtime.Proc) {
			_ = c.Write(q, big)
			finished = true
			wrote.Done()
		})
		p.Sleep(5 * time.Second)
		if finished {
			t.Error("write of unbounded data completed against a stalled reader")
		}
		srv, _ := accepted.TryPop()
		if srv == nil {
			t.Fatal("no accepted conn")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPSetBuffersChangesWANThroughput(t *testing.T) {
	// Halving the receive window must roughly halve window-limited WAN
	// throughput — the mechanism behind the paper's parallel-streams fix.
	run := func(rcv int) float64 {
		k := vtime.NewKernel()
		_, ha, hb := wanPair(k)
		var rate float64
		if err := k.Run(func(p *vtime.Proc) {
			ln, _ := hb.Listen(80)
			done := vtime.NewWaitGroup("done")
			done.Add(1)
			var end vtime.Time
			size := 4 << 20
			k.Go("sink", func(q *vtime.Proc) {
				defer done.Done()
				c, _ := ln.Accept(q)
				c.SetBuffers(0, rcv)
				buf := make([]byte, 64<<10)
				total := 0
				for total < size {
					n, err := c.Read(q, buf)
					total += n
					if err != nil {
						break
					}
				}
				end = q.Now()
			})
			c, _ := ha.Dial(p, 1, 80)
			start := p.Now()
			c.Write(p, make([]byte, size))
			done.Wait(p)
			rate = float64(size) / end.Sub(start).Seconds()
		}); err != nil {
			t.Fatal(err)
		}
		return rate
	}
	full := run(DefaultRcvBuf)
	half := run(DefaultRcvBuf / 2)
	if ratio := full / half; ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("window halving gave ratio %.2f, want ~2", ratio)
	}
}

// Property: any payload split into arbitrary write chunks arrives intact
// and in order over the lossy link.
func TestQuickTCPStreamIntegrityUnderLoss(t *testing.T) {
	f := func(seed int64, chunks []uint16) bool {
		if len(chunks) == 0 || len(chunks) > 12 {
			return true
		}
		var msg []byte
		rnd := rand.New(rand.NewSource(seed))
		var sizes []int
		for _, c := range chunks {
			n := int(c)%4000 + 1
			sizes = append(sizes, n)
			b := make([]byte, n)
			rnd.Read(b)
			msg = append(msg, b...)
		}
		k := vtime.NewKernel()
		_, ha, hb := lossyPair(k)
		var got []byte
		err := k.Run(func(p *vtime.Proc) {
			ln, _ := hb.Listen(80)
			done := vtime.NewWaitGroup("done")
			done.Add(1)
			k.Go("sink", func(q *vtime.Proc) {
				defer done.Done()
				c, _ := ln.Accept(q)
				buf := make([]byte, 8192)
				for {
					n, err := c.Read(q, buf)
					got = append(got, buf[:n]...)
					if err != nil {
						return
					}
				}
			})
			c, err := ha.Dial(p, 1, 80)
			if err != nil {
				t.Log(err)
				return
			}
			off := 0
			for _, n := range sizes {
				if err := c.Write(p, msg[off:off+n]); err != nil {
					t.Log(err)
					return
				}
				off += n
			}
			c.Close()
			done.Wait(p)
		})
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestReadyHandlerFires(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, hb := lanPair(k)
	fired := 0
	if err := k.Run(func(p *vtime.Proc) {
		ln, _ := hb.Listen(80)
		lnReady := 0
		ln.SetReadyHandler(func() { lnReady++ })
		c, err := ha.Dial(p, 1, 80)
		if err != nil {
			t.Fatal(err)
		}
		if lnReady == 0 {
			t.Error("listener ready handler did not fire")
		}
		srv, _ := ln.Accept(p)
		srv.SetReadyHandler(func() { fired++ })
		c.Write(p, []byte("x"))
		p.Sleep(10 * time.Millisecond)
		if fired == 0 {
			t.Error("conn ready handler did not fire")
		}
		if !srv.Readable() {
			t.Error("srv not readable")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPortConflicts(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, _ := lanPair(k)
	if err := k.Run(func(p *vtime.Proc) {
		if _, err := ha.Listen(80); err != nil {
			t.Fatal(err)
		}
		if _, err := ha.Listen(80); !errors.Is(err, ErrPortInUse) {
			t.Fatalf("dup Listen err = %v", err)
		}
		if _, err := ha.ListenUDP(53); err != nil {
			t.Fatal(err)
		}
		if _, err := ha.ListenUDP(53); !errors.Is(err, ErrPortInUse) {
			t.Fatalf("dup ListenUDP err = %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPLossOnLossyLink(t *testing.T) {
	k := vtime.NewKernel()
	_, ha, hb := lossyPair(k)
	received := 0
	if err := k.Run(func(p *vtime.Proc) {
		ua, _ := ha.ListenUDP(1000)
		ub, _ := hb.ListenUDP(2000)
		k.GoDaemon("sink", func(q *vtime.Proc) {
			for {
				ub.Recv(q)
				received++
			}
		})
		for i := 0; i < 500; i++ {
			ua.SendTo(1, 2000, make([]byte, 1000))
			p.Sleep(2 * time.Millisecond) // pace under link rate
		}
		p.Sleep(time.Second)
		if ub.Drops != 0 {
			t.Errorf("socket queue overflowed: %d drops", ub.Drops)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if received == 500 {
		t.Fatal("no loss on 5% lossy link")
	}
	if received < 400 {
		t.Fatalf("too much loss: %d/500", received)
	}
}
