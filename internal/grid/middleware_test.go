package grid_test

import (
	"testing"
	"time"

	"padico/internal/grid"
	"padico/internal/mpi"
	"padico/internal/orb"
	"padico/internal/personality"
	"padico/internal/topology"
	"padico/internal/vtime"
)

func TestMPICollectivesAndWildcards(t *testing.T) {
	g := grid.Cluster(4)
	if err := g.K.Run(func(p *vtime.Proc) {
		circs, err := g.NewCircuits(p, "mpi4", []topology.NodeID{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		comms := make([]*mpi.Comm, 4)
		for r := range comms {
			comms[r] = mpi.New(g.K, personality.NewVMad(g.K, circs[r]))
		}

		// Wildcard receive.
		done := vtime.NewWaitGroup("wc")
		done.Add(1)
		g.K.Go("wc", func(q *vtime.Proc) {
			defer done.Done()
			buf := make([]byte, 16)
			st := comms[3].Recv(q, mpi.AnySource, mpi.AnyTag, buf)
			if st.Source != 1 || st.Tag != 42 || string(buf[:st.Count]) != "wild" {
				t.Errorf("wildcard recv = %+v %q", st, buf[:st.Count])
			}
		})
		comms[1].Send(p, 3, 42, []byte("wild"))
		done.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
}

// The ORB profiles differ where the paper says they do: omniORB 3 pays
// more per request than omniORB 4, and Mico far more than either. The
// published figures themselves are asserted in one place, against the
// entries padico-bench prints (internal/bench TestPaperFidelity).
func TestORBProfilesMatchPaper(t *testing.T) {
	lat := func(profile orb.Profile) time.Duration {
		g := grid.Cluster(2)
		var oneway time.Duration
		if err := g.K.Run(func(p *vtime.Proc) {
			server := orb.New(g.K, g.RT[1].VLink, profile, "madio", 5000)
			server.RegisterServant("o", orb.Servant{
				"echo": func(q *vtime.Proc, args *orb.Decoder, reply *orb.Encoder) error {
					reply.PutBytes(args.Bytes())
					return nil
				},
			})
			if err := server.Activate(); err != nil {
				t.Fatal(err)
			}
			client := orb.New(g.K, g.RT[0].VLink, profile, "madio", 5001)
			ref, err := client.Resolve(server.IOR("o"))
			if err != nil {
				t.Fatal(err)
			}
			args := orb.NewEncoder()
			args.PutBytes([]byte{1})
			ref.Invoke(p, "echo", args) // warm-up: connection setup
			const rounds = 100
			start := p.Now()
			for i := 0; i < rounds; i++ {
				a := orb.NewEncoder()
				a.PutBytes([]byte{1})
				if _, err := ref.Invoke(p, "echo", a); err != nil {
					t.Fatal(err)
				}
			}
			oneway = p.Now().Sub(start) / (2 * rounds)
		}); err != nil {
			t.Fatal(err)
		}
		return oneway
	}
	o4, o3, mico := lat(orb.OmniORB4), lat(orb.OmniORB3), lat(orb.Mico)
	if o3 <= o4 {
		t.Fatalf("omniORB3 (%v) should be slower than omniORB4 (%v)", o3, o4)
	}
	if mico <= 2*o3 {
		t.Fatalf("Mico (%v) should be far slower than omniORB3 (%v)", mico, o3)
	}
}

func TestORBExceptionPath(t *testing.T) {
	g := grid.Cluster(2)
	if err := g.K.Run(func(p *vtime.Proc) {
		server := orb.New(g.K, g.RT[1].VLink, orb.OmniORB4, "madio", 5000)
		server.RegisterServant("o", orb.Servant{})
		server.Activate()
		client := orb.New(g.K, g.RT[0].VLink, orb.OmniORB4, "madio", 5001)
		ref, _ := client.Resolve(server.IOR("o"))
		if _, err := ref.Invoke(p, "nope", nil); err == nil {
			t.Fatal("missing operation did not raise")
		}
		badRef, _ := client.Resolve("IOR:1:5000/ghost")
		if _, err := badRef.Invoke(p, "x", nil); err == nil {
			t.Fatal("missing servant did not raise")
		}
		if _, _, _, err := orb.ParseIOR("garbage"); err == nil {
			t.Fatal("garbage IOR parsed")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// The paper's core demonstration: a parallel middleware (MPI) and a
// distributed one (CORBA) share the same Myrinet at the same time.
func TestMPIAndCORBASimultaneously(t *testing.T) {
	g := grid.Cluster(2)
	if err := g.K.Run(func(p *vtime.Proc) {
		circs, err := g.NewCircuits(p, "mix", []topology.NodeID{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		c0 := mpi.New(g.K, personality.NewVMad(g.K, circs[0]))
		c1 := mpi.New(g.K, personality.NewVMad(g.K, circs[1]))
		server := orb.New(g.K, g.RT[1].VLink, orb.OmniORB4, "madio", 5000)
		hits := 0
		server.RegisterServant("monitor", orb.Servant{
			"progress": func(q *vtime.Proc, args *orb.Decoder, reply *orb.Encoder) error {
				hits++
				reply.PutU32(uint32(hits))
				return nil
			},
		})
		server.Activate()
		client := orb.New(g.K, g.RT[0].VLink, orb.OmniORB4, "madio", 5001)
		ref, _ := client.Resolve(server.IOR("monitor"))

		done := vtime.NewWaitGroup("mpi")
		done.Add(1)
		g.K.Go("mpi-peer", func(q *vtime.Proc) {
			defer done.Done()
			buf := make([]byte, 32<<10)
			for i := 0; i < 20; i++ {
				c1.Recv(q, 0, 1, buf)
				c1.Send(q, 0, 2, buf[:1])
			}
		})
		blob := make([]byte, 32<<10)
		for i := 0; i < 20; i++ {
			c0.Send(p, 1, 1, blob)
			c0.Recv(p, 1, 2, make([]byte, 1))
			if i%5 == 0 {
				if _, err := ref.Invoke(p, "progress", nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		done.Wait(p)
		if hits != 4 {
			t.Fatalf("CORBA monitor hits = %d, want 4", hits)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
