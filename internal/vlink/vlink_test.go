package vlink_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"padico/internal/drivers/gm"
	"padico/internal/ipstack"
	"padico/internal/madeleine"
	"padico/internal/model"
	"padico/internal/netaccess"
	"padico/internal/netsim"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// testbed builds two nodes with VLink endpoints carrying the sysio,
// madio and loopback drivers.
type testbed struct {
	k   *vtime.Kernel
	ep  [2]*vlink.Endpoint
	mio [2]*netaccess.MadIO
}

// madioLogical is the MadIO logical channel the madio drivers share.
const madioLogical = 100

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	k := vtime.NewKernel()
	tb := &testbed{k: k}
	xb := netsim.NewCrossbar(k, topology.Myrinet, model.MyrinetRate, model.MyrinetPktOverhd, model.MyrinetWireLat)
	lan := netsim.NewSwitchedLAN(k, model.EthernetRate, model.EthernetFrameOH, model.EthernetWireLat, 0, 1)
	st := ipstack.New(k)
	st.ConnectLAN(lan, 0, 0, 1, 1, model.EthernetMTU)
	group := []int{0, 1}
	nodeOf := func(r int) topology.NodeID { return topology.NodeID(r) }
	rankOf := func(n topology.NodeID) (int, bool) { return int(n), int(n) < 2 }
	for i := 0; i < 2; i++ {
		na := netaccess.New(k, string(rune('a'+i)))
		sys := netaccess.NewSysIO(na)
		ad := madeleine.New(k, madeleine.NewGM(gm.OpenNIC(k, xb, i), group), i, 2)
		ch, err := ad.Open(0)
		if err != nil {
			t.Fatal(err)
		}
		mio := netaccess.NewMadIO(na, ch, "myri", true)
		node := topology.NodeID(i)
		ep := vlink.NewEndpoint(node)
		ep.AddDriver(vlink.NewSysIODriver(k, st.Host(node), sys))
		ep.AddDriver(vlink.NewMadIODriver(k, node, mio, madioLogical, rankOf, nodeOf))
		ep.AddDriver(vlink.NewLoopbackDriver(k, node))
		tb.ep[i], tb.mio[i] = ep, mio
	}
	return tb
}

var vlinkDrivers = []string{"sysio", "madio", "loopback"}

func (tb *testbed) echoServer(t *testing.T, driver string, port int) {
	ln, err := tb.ep[1].Listen(driver, port)
	if err != nil {
		t.Fatal(err)
	}
	srvEp := tb.ep[1]
	if driver == "loopback" {
		// loopback is intra-node: server lives on node 0's endpoint.
		ln.Close()
		ln, err = tb.ep[0].Listen(driver, port)
		if err != nil {
			t.Fatal(err)
		}
		srvEp = tb.ep[0]
	}
	_ = srvEp
	tb.k.GoDaemon("echo:"+driver, func(p *vtime.Proc) {
		for {
			v := ln.Accept(p)
			tb.k.GoDaemon("echo-conn", func(q *vtime.Proc) {
				buf := make([]byte, 64<<10)
				for {
					n, err := v.Read(q, buf)
					if n > 0 {
						if _, werr := v.Write(q, buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						v.Close()
						return
					}
				}
			})
		}
	})
}

func (tb *testbed) dialTarget(driver string) vlink.Addr {
	if driver == "loopback" {
		return vlink.Addr{Node: 0, Port: 9000}
	}
	return vlink.Addr{Node: 1, Port: 9000}
}

func TestEchoAcrossAllDrivers(t *testing.T) {
	for _, drv := range vlinkDrivers {
		drv := drv
		t.Run(drv, func(t *testing.T) {
			tb := newTestbed(t)
			tb.echoServer(t, drv, 9000)
			msg := make([]byte, 50000)
			rand.New(rand.NewSource(7)).Read(msg)
			if err := tb.k.Run(func(p *vtime.Proc) {
				v, err := tb.ep[0].ConnectWait(p, drv, tb.dialTarget(drv))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := v.Write(p, msg); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(msg))
				if _, err := v.ReadFull(p, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatal("echo corrupted")
				}
				v.Close()
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAsyncCompletionHandler(t *testing.T) {
	tb := newTestbed(t)
	tb.echoServer(t, "madio", 9000)
	if err := tb.k.Run(func(p *vtime.Proc) {
		v, err := tb.ep[0].ConnectWait(p, "madio", vlink.Addr{Node: 1, Port: 9000})
		if err != nil {
			t.Fatal(err)
		}
		done := vtime.NewQueue[int]("handlers")
		v.PostWrite([]byte("ping")).SetHandler(func(n int, err error) {
			done.Push(n)
		})
		buf := make([]byte, 16)
		v.PostRead(buf).SetHandler(func(n int, err error) {
			done.Push(100 + n)
		})
		if w := done.Pop(p); w != 4 {
			t.Errorf("write handler n = %d", w)
		}
		if r := done.Pop(p); r != 104 {
			t.Errorf("read handler n = %d", r-100)
		}
		if string(buf[:4]) != "ping" {
			t.Errorf("buf = %q", buf[:4])
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPollingCompletion(t *testing.T) {
	tb := newTestbed(t)
	tb.echoServer(t, "sysio", 9000)
	if err := tb.k.Run(func(p *vtime.Proc) {
		v, err := tb.ep[0].ConnectWait(p, "sysio", vlink.Addr{Node: 1, Port: 9000})
		if err != nil {
			t.Fatal(err)
		}
		op := v.PostWrite([]byte("x"))
		buf := make([]byte, 1)
		rop := v.PostRead(buf)
		// Poll until both complete (paper: "completion may be tested by
		// polling the VLink descriptor").
		for !op.Done() || !rop.Done() {
			p.Sleep(10 * time.Microsecond)
		}
		if n, err := rop.Result(); n != 1 || err != nil {
			t.Errorf("read result = %d,%v", n, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectRefused(t *testing.T) {
	tb := newTestbed(t)
	if err := tb.k.Run(func(p *vtime.Proc) {
		for _, drv := range []string{"madio", "loopback"} {
			if _, err := tb.ep[0].ConnectWait(p, drv, tb.dialTarget(drv)); err == nil {
				t.Errorf("%s: dial with no listener succeeded", drv)
			}
		}
		// sysio returns its own refusal error.
		if _, err := tb.ep[0].ConnectWait(p, "sysio", vlink.Addr{Node: 1, Port: 9000}); err == nil {
			t.Error("sysio: dial with no listener succeeded")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownDriver(t *testing.T) {
	tb := newTestbed(t)
	if err := tb.k.Run(func(p *vtime.Proc) {
		_, err := tb.ep[0].ConnectWait(p, "nonesuch", vlink.Addr{Node: 1, Port: 1})
		if !errors.Is(err, vlink.ErrNoDriver) {
			t.Errorf("err = %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseDeliversEOF(t *testing.T) {
	for _, drv := range vlinkDrivers {
		drv := drv
		t.Run(drv, func(t *testing.T) {
			tb := newTestbed(t)
			epIdx := 1
			if drv == "loopback" {
				epIdx = 0
			}
			ln, err := tb.ep[epIdx].Listen(drv, 9000)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.k.Run(func(p *vtime.Proc) {
				got := vtime.NewQueue[error]("eof")
				tb.k.GoDaemon("server", func(q *vtime.Proc) {
					v := ln.Accept(q)
					buf := make([]byte, 16)
					for {
						n, err := v.Read(q, buf)
						if err != nil {
							got.Push(err)
							return
						}
						_ = n
					}
				})
				v, err := tb.ep[0].ConnectWait(p, drv, tb.dialTarget(drv))
				if err != nil {
					t.Fatal(err)
				}
				v.Write(p, []byte("bye"))
				v.Close()
				if e := got.Pop(p); e != io.EOF {
					t.Errorf("server got %v, want EOF", e)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Table 1: VLink one-way latency over Myrinet = 10.2 µs.
func TestVLinkLatencyOverMyrinet(t *testing.T) {
	tb := newTestbed(t)
	tb.echoServer(t, "madio", 9000)
	var oneway time.Duration
	if err := tb.k.Run(func(p *vtime.Proc) {
		v, err := tb.ep[0].ConnectWait(p, "madio", vlink.Addr{Node: 1, Port: 9000})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		const rounds = 200
		start := p.Now()
		for i := 0; i < rounds; i++ {
			v.Write(p, buf)
			v.ReadFull(p, buf)
		}
		oneway = p.Now().Sub(start) / (2 * rounds)
	}); err != nil {
		t.Fatal(err)
	}
	want := 10200 * time.Nanosecond
	if oneway < want-1500*time.Nanosecond || oneway > want+1500*time.Nanosecond {
		t.Fatalf("VLink one-way = %v, want ~%v (Table 1)", oneway, want)
	}
}

// Property: arbitrary write chunkings arrive intact over the madio
// driver (stream semantics on a message fabric).
func TestQuickStreamChunking(t *testing.T) {
	f := func(chunks []uint16) bool {
		if len(chunks) == 0 || len(chunks) > 10 {
			return true
		}
		tb := newTestbed(&testing.T{})
		ln, err := tb.ep[1].Listen("madio", 9000)
		if err != nil {
			return false
		}
		var msg []byte
		rnd := rand.New(rand.NewSource(11))
		sizes := make([]int, len(chunks))
		for i, c := range chunks {
			sizes[i] = int(c)%8000 + 1
			b := make([]byte, sizes[i])
			rnd.Read(b)
			msg = append(msg, b...)
		}
		var got []byte
		err = tb.k.Run(func(p *vtime.Proc) {
			done := vtime.NewWaitGroup("done")
			done.Add(1)
			tb.k.GoDaemon("sink", func(q *vtime.Proc) {
				v := ln.Accept(q)
				buf := make([]byte, 4096)
				for {
					n, err := v.Read(q, buf)
					got = append(got, buf[:n]...)
					if err != nil {
						done.Done()
						return
					}
				}
			})
			v, err := tb.ep[0].ConnectWait(p, "madio", vlink.Addr{Node: 1, Port: 9000})
			if err != nil {
				return
			}
			off := 0
			for _, n := range sizes {
				v.Write(p, msg[off:off+n])
				off += n
			}
			v.Close()
			done.Wait(p)
		})
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
