package grid_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"padico/internal/drivers/gm"
	"padico/internal/grid"
	"padico/internal/iovec"
	"padico/internal/madapi"
	"padico/internal/madeleine"
	"padico/internal/mpi"
	"padico/internal/orb"
	"padico/internal/personality"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// sanDoor is one front door of the Myrinet stack on grid.Cluster(2).
// open wires it and returns its halves: send moves one message of one
// or more segments from node 0 through calls whose contract ends the
// caller's borrow when they return; recv blocks on node 1 for the next
// message and returns its segments exactly as the layer handed them
// over; cut, where the layer has one, severs the receiving end under
// whatever is in flight.
type sanDoor struct {
	name string
	open func(t *testing.T, p *vtime.Proc, g *grid.Grid) (
		send func(p *vtime.Proc, segs [][]byte),
		recv func(q *vtime.Proc, sizes []int) [][]byte,
		cut func())
}

var pair = []topology.NodeID{0, 1}

var sanDoors = []sanDoor{
	{"circuit", func(t *testing.T, p *vtime.Proc, g *grid.Grid) (func(*vtime.Proc, [][]byte), func(*vtime.Proc, []int) [][]byte, func()) {
		circs, err := g.NewCircuits(p, "own", pair)
		if err != nil {
			t.Fatal(err)
		}
		send := func(p *vtime.Proc, segs [][]byte) {
			out := circs[0].BeginPacking(1)
			for _, s := range segs {
				out.Pack(s, madapi.SendSafer)
			}
			out.EndPacking()
		}
		recv := func(q *vtime.Proc, sizes []int) (segs [][]byte) {
			in := circs[1].BeginUnpacking(q)
			for _, n := range sizes {
				segs = append(segs, in.Unpack(n, madapi.ReceiveCheaper))
			}
			in.EndUnpacking()
			return segs
		}
		return send, recv, circs[1].Close
	}},
	{"vlink/madio", func(t *testing.T, p *vtime.Proc, g *grid.Grid) (func(*vtime.Proc, [][]byte), func(*vtime.Proc, []int) [][]byte, func()) {
		ln, err := g.RT[1].VLink.Listen("madio", 7000)
		if err != nil {
			t.Fatal(err)
		}
		va, err := g.RT[0].VLink.ConnectWait(p, "madio", vlink.Addr{Node: 1, Port: 7000})
		if err != nil {
			t.Fatal(err)
		}
		vb := ln.Accept(p)
		send := func(p *vtime.Proc, segs [][]byte) {
			if _, err := va.WriteVec(p, iovec.Make(segs...)); err != nil {
				t.Error(err)
			}
		}
		recv := func(q *vtime.Proc, sizes []int) (segs [][]byte) {
			for _, n := range sizes {
				buf := make([]byte, n)
				if _, err := vb.ReadFull(q, buf); err != nil {
					t.Error(err)
				}
				segs = append(segs, buf)
			}
			return segs
		}
		return send, recv, vb.Close
	}},
	{"mpi/vmad", func(t *testing.T, p *vtime.Proc, g *grid.Grid) (func(*vtime.Proc, [][]byte), func(*vtime.Proc, []int) [][]byte, func()) {
		circs, err := g.NewCircuits(p, "mpi", pair)
		if err != nil {
			t.Fatal(err)
		}
		c0 := mpi.New(g.K, personality.NewVMad(g.K, circs[0]))
		c1 := mpi.New(g.K, personality.NewVMad(g.K, circs[1]))
		// One tag per segment: Circuit charges its per-byte cost as a
		// delay before the link, so a short message sent behind a long
		// one overtakes it.
		send := func(p *vtime.Proc, segs [][]byte) {
			for i, s := range segs {
				c0.Send(p, 1, i, s)
			}
		}
		recv := func(q *vtime.Proc, sizes []int) (segs [][]byte) {
			for i, n := range sizes {
				buf := make([]byte, n)
				if st := c1.Recv(q, 0, i, buf); st.Count != n {
					t.Errorf("mpi: received %d bytes, want %d", st.Count, n)
				}
				segs = append(segs, buf)
			}
			return segs
		}
		return send, recv, circs[1].Close
	}},
	{"orb", func(t *testing.T, p *vtime.Proc, g *grid.Grid) (func(*vtime.Proc, [][]byte), func(*vtime.Proc, []int) [][]byte, func()) {
		server := orb.New(g.K, g.RT[1].VLink, orb.OmniORB4, "madio", 7001)
		got := vtime.NewQueue[[][]byte]("orb:got")
		server.RegisterServant("sink", orb.Servant{
			"put": func(q *vtime.Proc, args *orb.Decoder, reply *orb.Encoder) error {
				segs := make([][]byte, args.U32())
				for i := range segs {
					segs[i] = args.Bytes()
				}
				got.Push(segs)
				return nil
			},
		})
		if err := server.Activate(); err != nil {
			t.Fatal(err)
		}
		ref, err := orb.New(g.K, g.RT[0].VLink, orb.OmniORB4, "madio", 7002).Resolve(server.IOR("sink"))
		if err != nil {
			t.Fatal(err)
		}
		send := func(p *vtime.Proc, segs [][]byte) {
			args := orb.NewEncoder()
			args.PutU32(uint32(len(segs)))
			for _, s := range segs {
				args.PutBytes(s)
			}
			if _, err := ref.Invoke(p, "put", args); err != nil {
				t.Error(err)
			}
			clear(args.Bytes()) // what Invoke was lent is the encoder, not the segments
		}
		recv := func(q *vtime.Proc, _ []int) [][]byte { return got.Pop(q) }
		// An ORB cannot sever a connection; what it has in flight are the
		// VLink door's buffers.
		return send, recv, nil
	}},
}

// Every SAN door delivers the bytes it was given, keeps delivering them
// when the sender scribbles over its buffers the moment the call that
// ends its borrow returns, and leaves no pooled buffer behind — neither
// after a drained exchange nor when the receiving end is cut under a
// message in flight.
func TestSANDoorsOwnTheirMessages(t *testing.T) {
	shapes := [][]int{{0}, {1}, {4095}, {4096}, {4097}, {1 << 20}, {1, 4096, 0, 70000}, {1 << 20, 5}}
	rnd := rand.New(rand.NewSource(13))
	for _, door := range sanDoors {
		t.Run(door.name, func(t *testing.T) {
			g := grid.Cluster(2)
			if err := g.K.Run(func(p *vtime.Proc) {
				send, recv, cut := door.open(t, p, g)
				expect := vtime.NewQueue[[]int]("expect")
				got := vtime.NewQueue[[][]byte]("got")
				g.K.GoDaemon("receiver", func(q *vtime.Proc) {
					for {
						got.Push(recv(q, expect.Pop(q)))
					}
				})
				before := iovec.Outstanding()
				exchange := func(shape []int, receive bool) {
					segs := make([][]byte, len(shape))
					var want []byte
					for i, n := range shape {
						segs[i] = make([]byte, n)
						rnd.Read(segs[i])
						want = append(want, segs[i]...)
					}
					if receive {
						expect.Push(shape)
					}
					send(p, segs)
					for _, s := range segs {
						clear(s) // the borrow is over: the sender reuses its memory
					}
					if !receive {
						return
					}
					have := got.Pop(p)
					if len(have) != len(shape) {
						t.Fatalf("%v: received %d segments", shape, len(have))
					}
					for i, n := range shape {
						if len(have[i]) != n {
							t.Fatalf("%v: segment %d has %d bytes", shape, i, len(have[i]))
						}
					}
					if !bytes.Equal(bytes.Join(have, nil), want) {
						t.Errorf("%v: receiver saw other bytes than were sent", shape)
					}
					if left := iovec.Outstanding() - before; left != 0 {
						t.Errorf("%v: %d buffers outstanding after the exchange", shape, left)
					}
				}
				for _, shape := range shapes {
					exchange(shape, true)
				}
				if cut == nil {
					return
				}
				exchange([]int{10000, 3}, false)
				cut()
				p.Sleep(time.Millisecond)
				if left := iovec.Outstanding() - before; left != 0 {
					t.Errorf("%d buffers outstanding after the receiving end was cut under a message", left)
				}
			}); err != nil {
				t.Fatal(fmt.Errorf("%s: %w", door.name, err))
			}
		})
	}
}

// A message handle outlives its message only as a tombstone: once a
// later message is being packed and unpacked on the same channel, the
// earlier one's handles still refuse Pack, a second EndPacking and
// Unpack, and the later message arrives with its own segments — a
// stale handle can never pack into or read from another message.
func TestStaleHandlesPanicAfterReuse(t *testing.T) {
	chans := []struct {
		name string
		open func(t *testing.T, p *vtime.Proc, g *grid.Grid) (a, b madapi.Channel)
	}{
		{"madeleine", func(t *testing.T, p *vtime.Proc, g *grid.Grid) (madapi.Channel, madapi.Channel) {
			n0, n1 := gmPair(g.K)
			var chs [2]madapi.Channel
			for r, nic := range []*gm.NIC{n0, n1} {
				ch, err := madeleine.New(g.K, madeleine.NewGM(nic, []int{0, 1}), r, 2).Open(0)
				if err != nil {
					t.Fatal(err)
				}
				chs[r] = ch
			}
			return chs[0], chs[1]
		}},
		{"circuit", func(t *testing.T, p *vtime.Proc, g *grid.Grid) (madapi.Channel, madapi.Channel) {
			circs, err := g.NewCircuits(p, "stale", pair)
			if err != nil {
				t.Fatal(err)
			}
			return circs[0], circs[1]
		}},
	}
	for _, c := range chans {
		g := grid.Cluster(2)
		if err := g.K.Run(func(p *vtime.Proc) {
			a, b := c.open(t, p, g)
			for round := 0; round < 3; round++ { // later rounds run on warm free lists
				out1 := a.BeginPacking(1)
				out1.Pack([]byte("first"), madapi.SendSafer)
				out1.EndPacking()
				in1 := b.BeginUnpacking(p)
				in1.Unpack(5, madapi.ReceiveCheaper)
				in1.EndUnpacking()

				out2 := a.BeginPacking(1)
				out2.Pack([]byte("second"), madapi.SendSafer)
				mustPanic(t, c.name+": Pack after EndPacking", func() { out1.Pack([]byte("stale!"), madapi.SendSafer) })
				mustPanic(t, c.name+": EndPacking twice", func() { out1.EndPacking() })
				out2.EndPacking()
				in2 := b.BeginUnpacking(p)
				mustPanic(t, c.name+": Unpack after EndUnpacking", func() { in1.Unpack(6, madapi.ReceiveCheaper) })
				if got := in2.Unpack(6, madapi.ReceiveCheaper); string(got) != "second" {
					t.Errorf("%s: later message reads %q, want %q", c.name, got, "second")
				}
				in2.EndUnpacking()
				p.Sleep(time.Millisecond)
				if _, ok := b.TryBeginUnpacking(); ok {
					t.Errorf("%s: a stale handle sent a message", c.name)
				}
			}
		}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}
