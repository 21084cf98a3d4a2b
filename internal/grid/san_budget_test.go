package grid_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"padico/internal/drivers/gm"
	"padico/internal/grid"
	"padico/internal/iovec"
	"padico/internal/madapi"
	"padico/internal/madeleine"
	"padico/internal/model"
	"padico/internal/netsim"
	"padico/internal/selector"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// A rung is one height of the SAN stack between node 0 and node 1. open
// wires it on g's kernel and returns the round trip: msg travels 0 -> 1
// by the cheapest call the layer has, a one-byte acknowledgement comes
// back. budget is the most the rung may allocate per payload byte: the
// copies it is allowed to make, plus a tenth for descriptors and events.
// allocs is the most heap objects one 64 B round trip may cost, the
// rung's own calls (iovec.Make, variadic arguments) included.
type rung struct {
	name   string
	budget float64
	allocs float64
	open   func(tb testing.TB, p *vtime.Proc, g *grid.Grid) func(p *vtime.Proc, msg []byte)
}

var ack = []byte{1}

// gmPair opens GM NICs 0 and 1 on a Myrinet crossbar of their own.
func gmPair(k *vtime.Kernel) (n0, n1 *gm.NIC) {
	xb := netsim.NewCrossbar(k, topology.Myrinet, model.MyrinetRate, model.MyrinetPktOverhd, model.MyrinetWireLat)
	return gm.OpenNIC(k, xb, 0), gm.OpenNIC(k, xb, 1)
}

// packTo sends one single-segment message on a Madeleine-interface
// channel.
func packTo(ch madapi.Channel, dst int, data []byte, mode madapi.PackMode) {
	out := ch.BeginPacking(dst)
	out.Pack(data, mode)
	out.EndPacking()
}

// unpackFrom receives one single-segment message of n bytes.
func unpackFrom(ch madapi.Channel, p *vtime.Proc, n int) {
	in := ch.BeginUnpacking(p)
	in.Unpack(n, madapi.ReceiveCheaper)
	in.EndUnpacking()
}

// echoAcks answers every n-byte message arriving on ch from rank 0.
func echoAcks(g *grid.Grid, ch madapi.Channel, n int) {
	g.K.GoDaemon("acks", func(q *vtime.Proc) {
		for {
			unpackFrom(ch, q, n)
			packTo(ch, 0, ack, madapi.SendSafer)
		}
	})
}

func sanRungs(size int) []rung {
	return []rung{
		{"gm", 0.1, 2, func(tb testing.TB, p *vtime.Proc, g *grid.Grid) func(*vtime.Proc, []byte) {
			n0, n1 := gmPair(g.K)
			p0, _ := n0.OpenPort(0)
			p1, _ := n1.OpenPort(0)
			acks := vtime.NewQueue[struct{}]("acks")
			p0.SetHandler(func(gm.RecvEvent) { acks.Push(struct{}{}) })
			p1.SetHandler(func(ev gm.RecvEvent) { p1.Send(ev.SrcAddr, ev.SrcPort, iovec.Make(ack)) })
			return func(p *vtime.Proc, msg []byte) {
				p0.Send(1, 0, iovec.Make(msg))
				acks.Pop(p)
			}
		}},
		{"madeleine", 0.1, 4, func(tb testing.TB, p *vtime.Proc, g *grid.Grid) func(*vtime.Proc, []byte) {
			n0, n1 := gmPair(g.K)
			var chs [2]*madeleine.Channel
			for r, nic := range []*gm.NIC{n0, n1} {
				ch, err := madeleine.New(g.K, madeleine.NewGM(nic, []int{0, 1}), r, 2).Open(0)
				if err != nil {
					tb.Fatal(err)
				}
				chs[r] = ch
			}
			echoAcks(g, chs[1], size)
			return func(p *vtime.Proc, msg []byte) {
				packTo(chs[0], 1, msg, madapi.SendLater)
				unpackFrom(chs[0], p, len(ack))
			}
		}},
		{"madio", 0.1, 4, func(tb testing.TB, p *vtime.Proc, g *grid.Grid) func(*vtime.Proc, []byte) {
			const logical = 900
			myri := g.Topo.Networks()[0]
			m0, m1 := g.RT[0].MadIO[myri], g.RT[1].MadIO[myri]
			acks := vtime.NewQueue[struct{}]("acks")
			m1.Register(logical, func(_ *vtime.Proc, src int, in madapi.InMessage) {
				in.Unpack(size, madapi.ReceiveCheaper)
				in.EndUnpacking()
				m1.Send(src, logical, ack)
			})
			m0.Register(logical, func(_ *vtime.Proc, _ int, in madapi.InMessage) {
				in.Unpack(len(ack), madapi.ReceiveCheaper)
				in.EndUnpacking()
				acks.Push(struct{}{})
			})
			return func(p *vtime.Proc, msg []byte) {
				m0.Send(1, logical, msg)
				acks.Pop(p)
			}
		}},
		{"circuit", 0.1, 8, func(tb testing.TB, p *vtime.Proc, g *grid.Grid) func(*vtime.Proc, []byte) {
			circs, err := g.NewCircuits(p, "budget", pair)
			if err != nil {
				tb.Fatal(err)
			}
			echoAcks(g, circs[1], size)
			return func(p *vtime.Proc, msg []byte) {
				packTo(circs[0], 1, msg, madapi.SendLater)
				unpackFrom(circs[0], p, len(ack))
			}
		}},
		// The madio driver's contract ends the borrow: one copy, into the
		// message's pooled buffer, which the receiver releases.
		{"vlink", 0.1, 4, func(tb testing.TB, p *vtime.Proc, g *grid.Grid) func(*vtime.Proc, []byte) {
			va, vb, err := g.DialVLinkWith(p, 0, 1, selector.Decision{Method: "madio"})
			if err != nil {
				tb.Fatal(err)
			}
			g.K.GoDaemon("acks", func(q *vtime.Proc) {
				buf := make([]byte, size)
				for {
					if _, err := vb.ReadFull(q, buf); err != nil {
						return
					}
					if _, err := vb.Write(q, ack); err != nil {
						return
					}
				}
			})
			got := make([]byte, len(ack))
			return func(p *vtime.Proc, msg []byte) {
				if _, err := va.Write(p, msg); err != nil {
					tb.Error(err)
				}
				if _, err := va.ReadFull(p, got); err != nil {
					tb.Error(err)
				}
			}
		}},
		// Send's contract ends the borrow: one copy, into the message.
		{"session", 1.1, 18, func(tb testing.TB, p *vtime.Proc, g *grid.Grid) func(*vtime.Proc, []byte) {
			ch, err := g.Open(p, 0, 1)
			if err != nil {
				tb.Fatal(err)
			}
			remote := ch.Remote()
			g.K.GoDaemon("acks", func(q *vtime.Proc) {
				for {
					if _, err := remote.Recv(q, size); err != nil {
						return
					}
					if remote.Send(q, ack) != nil {
						return
					}
				}
			})
			return func(p *vtime.Proc, msg []byte) {
				if err := ch.Send(p, msg); err != nil {
					tb.Error(err)
				}
				if _, err := ch.Recv(p, len(ack)); err != nil {
					tb.Error(err)
				}
			}
		}},
	}
}

// The copy budget of the SAN path: below the first call whose contract
// ends the sender's borrow nothing copies payload — a message crosses
// GM, Madeleine, MadIO and Circuit by reference — and session.Send
// copies it once. Measured as bytes allocated per payload byte over 16
// messages of 1 MiB, so a staging buffer or a flatten that creeps back
// in fails here, not in a profile months later.
func TestSANCopyBudget(t *testing.T) {
	const size, msgs = 1 << 20, 16
	// The vlink rung's one copy lands in a pooled buffer. sync.Pool keeps
	// a buffer per P and the collector empties it, so measure on one P
	// with the collector off: a miss then means the code asked for a
	// buffer it did not give back. The race detector drops pooled
	// buffers at random, so that rung does not count there.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	msg := make([]byte, size)
	for _, r := range sanRungs(size) {
		if raceEnabled && r.name == "vlink" {
			t.Logf("%-9s skipped under the race detector", r.name)
			continue
		}
		g := grid.Cluster(2)
		var allocated uint64
		if err := g.K.Run(func(p *vtime.Proc) {
			roundTrip := r.open(t, p, g)
			roundTrip(p, msg) // lazy set-up is not per-byte cost
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < msgs; i++ {
				roundTrip(p, msg)
			}
			runtime.ReadMemStats(&after)
			allocated = after.TotalAlloc - before.TotalAlloc
		}); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		perByte := float64(allocated) / (size * msgs)
		t.Logf("%-9s %.3f B allocated per payload byte (budget %.1f)", r.name, perByte, r.budget)
		if perByte > r.budget {
			t.Errorf("%s allocates %.3f B per payload byte, budget %.1f", r.name, perByte, r.budget)
		}
	}
}

// The small-message budget of the SAN path: below the session layer a
// 64 B round trip allocates one handle per message end — Madeleine's and
// Circuit's out/in messages, each message's own so that a stale one
// still panics — and nothing else. GM messages, Circuit transits, the
// events that carry them and the SendSafer copies of short segments are
// recycled by the layer that ends their life. gm's two are the rung's
// own iovec.Make calls; session's ten above circuit's eight are its own
// per-message slices and the rung's variadic arguments.
func TestSANMessageAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	msg := make([]byte, 64)
	for _, r := range sanRungs(len(msg)) {
		g := grid.Cluster(2)
		var allocs float64
		if err := g.K.Run(func(p *vtime.Proc) {
			roundTrip := r.open(t, p, g)
			allocs = testing.AllocsPerRun(200, func() { roundTrip(p, msg) })
		}); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		t.Logf("%-9s %g allocations per round trip (ceiling %g)", r.name, allocs, r.allocs)
		if allocs > r.allocs {
			t.Errorf("%s allocates %g objects per 64 B round trip, ceiling %g", r.name, allocs, r.allocs)
		}
	}
}

// benchmarkRung times round trips through one rung at 64 B and 1 MiB
// (host clock; run with -benchmem for the allocation columns).
func benchmarkRung(b *testing.B, name string) {
	for _, size := range []int{64, 1 << 20} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			var r rung
			for _, c := range sanRungs(size) {
				if c.name == name {
					r = c
				}
			}
			msg := make([]byte, size)
			g := grid.Cluster(2)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			if err := g.K.Run(func(p *vtime.Proc) {
				roundTrip := r.open(b, p, g)
				roundTrip(p, msg)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					roundTrip(p, msg)
				}
				b.StopTimer()
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkGMMessage(b *testing.B)      { benchmarkRung(b, "gm") }
func BenchmarkMadIOMessage(b *testing.B)   { benchmarkRung(b, "madio") }
func BenchmarkCircuitMessage(b *testing.B) { benchmarkRung(b, "circuit") }
func BenchmarkSessionMessage(b *testing.B) { benchmarkRung(b, "session") }

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool
