package grid_test

import (
	"fmt"
	"testing"
	"time"

	"padico/internal/dsm"
	"padico/internal/grid"
	"padico/internal/hla"
	"padico/internal/mpi"
	"padico/internal/orb"
	"padico/internal/personality"
	"padico/internal/pvm"
	"padico/internal/rmi"
	"padico/internal/soapx"
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
		wg := vtime.NewWaitGroup("ranks")
		run := func(r int, q *vtime.Proc) {
			defer wg.Done()
			c := comms[r]
			c.Barrier(q)
			got := c.Bcast(q, 0, pick(r == 0, []byte("payload"), nil))
			if string(got) != "payload" {
				t.Errorf("rank %d bcast got %q", r, got)
			}
			sum := c.Allreduce(q, []float64{float64(r)}, mpi.Sum)
			if sum[0] != 6 {
				t.Errorf("rank %d allreduce = %v", r, sum)
			}
			parts := c.Gather(q, 0, []byte{byte('a' + r)})
			if r == 0 {
				joined := ""
				for _, pt := range parts {
					joined += string(pt)
				}
				if joined != "abcd" {
					t.Errorf("gather = %q", joined)
				}
			}
			all := c.Allgather(q, []byte{byte('0' + r)})
			if len(all) != 4 || string(all[3]) != "3" {
				t.Errorf("rank %d allgather = %v", r, all)
			}
			mine := c.Alltoall(q, [][]byte{{byte(r)}, {byte(r)}, {byte(r)}, {byte(r)}})
			for src, m := range mine {
				if len(m) != 1 || m[0] != byte(src) {
					t.Errorf("rank %d alltoall[%d] = %v", r, src, m)
				}
			}
			c.Barrier(q)
		}
		for r := 1; r < 4; r++ {
			r := r
			wg.Add(1)
			g.K.Go(fmt.Sprintf("rank%d", r), func(q *vtime.Proc) { run(r, q) })
		}
		wg.Add(1)
		run(0, p)
		wg.Wait(p)

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

func pick(cond bool, a, b []byte) []byte {
	if cond {
		return a
	}
	return b
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

func TestRMICall(t *testing.T) {
	g := grid.Cluster(2)
	if err := g.K.Run(func(p *vtime.Proc) {
		reg, err := rmi.NewRegistry(g.K, g.RT[1].VLink, "sysio", 1099)
		if err != nil {
			t.Fatal(err)
		}
		reg.Bind("Adder", rmi.RemoteObject{
			"add": func(q *vtime.Proc, args []byte) ([]byte, error) {
				return []byte{args[0] + args[1]}, nil
			},
		})
		stub, err := rmi.Lookup(p, g.RT[0].VLink, "sysio", 1, 1099, "Adder")
		if err != nil {
			t.Fatal(err)
		}
		out, err := stub.Call(p, "add", []byte{20, 22})
		if err != nil || out[0] != 42 {
			t.Fatalf("rmi add = %v, %v", out, err)
		}
		if _, err := stub.Call(p, "mul", nil); err == nil {
			t.Fatal("missing method did not raise")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSOAPMonitoring(t *testing.T) {
	g := grid.Cluster(2)
	if err := g.K.Run(func(p *vtime.Proc) {
		srv, err := soapx.NewServer(g.K, g.RT[1].VLink, "sysio", 8080)
		if err != nil {
			t.Fatal(err)
		}
		srv.Handle("GetStatus", func(q *vtime.Proc, params map[string]string) (map[string]string, error) {
			return map[string]string{"step": "128", "node": params["node"]}, nil
		})
		cl, err := soapx.Dial(p, g.RT[0].VLink, "sysio", 1, 8080)
		if err != nil {
			t.Fatal(err)
		}
		out, err := cl.Call(p, "GetStatus", map[string]string{"node": "n0"})
		if err != nil || out["step"] != "128" || out["node"] != "n0" {
			t.Fatalf("soap call = %v, %v", out, err)
		}
		if _, err := cl.Call(p, "Nope", nil); err == nil {
			t.Fatal("missing operation did not fault")
		}
		cl.Close()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestHLAFederationPubSubAndTime(t *testing.T) {
	g := grid.Cluster(3)
	if err := g.K.Run(func(p *vtime.Proc) {
		if _, err := hla.CreateFederation(g.K, g.RT[0].VLink, "fed", "sysio", 9100); err != nil {
			t.Fatal(err)
		}
		f1, err := hla.Join(p, g.RT[1].VLink, "sysio", 0, 9100, "sim1")
		if err != nil {
			t.Fatal(err)
		}
		f2, err := hla.Join(p, g.RT[2].VLink, "sysio", 0, 9100, "viz")
		if err != nil {
			t.Fatal(err)
		}
		f2.Subscribe(p, "Aircraft")
		p.Sleep(10 * time.Millisecond) // subscription propagates
		f1.UpdateAttributes(p, "Aircraft", []byte("pos=1,2"), 1.0)
		refl := f2.NextReflection(p)
		if refl.Class != "Aircraft" || string(refl.Value) != "pos=1,2" || refl.Time != 1.0 {
			t.Fatalf("reflection = %+v", refl)
		}
		// Conservative time management: both must request before grant.
		done := vtime.NewWaitGroup("t")
		done.Add(1)
		var t2 float64
		g.K.Go("f2", func(q *vtime.Proc) {
			defer done.Done()
			t2 = f2.TimeAdvanceRequest(q, 2.0)
		})
		if got := f1.TimeAdvanceRequest(p, 2.0); got != 2.0 {
			t.Fatalf("f1 grant = %v", got)
		}
		done.Wait(p)
		if t2 != 2.0 {
			t.Fatalf("f2 grant = %v", t2)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDSMCoherence(t *testing.T) {
	g := grid.Cluster(3)
	if err := g.K.Run(func(p *vtime.Proc) {
		circs, err := g.NewCircuits(p, "dsm", []topology.NodeID{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]*dsm.DSM, 3)
		for r := range ds {
			ds[r] = dsm.New(g.K, circs[r], 8)
		}
		// Rank 1 writes page 3 (home = rank 0); every rank must observe
		// the write after completion.
		done := vtime.NewWaitGroup("w")
		done.Add(1)
		g.K.Go("writer", func(q *vtime.Proc) {
			defer done.Done()
			ds[1].Acquire(q, 0)
			ds[1].Write(q, 3, 100, []byte("shared-state"))
			ds[1].Release(q, 0)
		})
		done.Wait(p)
		readers := vtime.NewWaitGroup("readers")
		readers.Add(1)
		g.K.Go("reader1", func(q *vtime.Proc) {
			defer readers.Done()
			// Rank 1 reads and caches the page (it is not the home).
			if page := ds[1].Read(q, 3); string(page[100:112]) != "shared-state" {
				t.Errorf("rank 1 sees %q", page[100:112])
			}
		})
		readers.Wait(p)
		if page := ds[0].Read(p, 3); string(page[100:112]) != "shared-state" {
			t.Fatalf("home sees %q", page[100:112])
		}
		// Overwrite from rank 2: rank 1's cached copy must be invalidated
		// before the write completes.
		done2 := vtime.NewWaitGroup("w2")
		done2.Add(1)
		g.K.Go("writer2", func(q *vtime.Proc) {
			defer done2.Done()
			ds[2].Acquire(q, 0)
			ds[2].Write(q, 3, 100, []byte("NEWER-STATE!"))
			ds[2].Release(q, 0)
		})
		done2.Wait(p)
		fresh := vtime.NewWaitGroup("fresh")
		fresh.Add(1)
		g.K.Go("reader1b", func(q *vtime.Proc) {
			defer fresh.Done()
			if got := ds[1].Read(q, 3); string(got[100:112]) != "NEWER-STATE!" {
				t.Errorf("stale read after invalidation: %q", got[100:112])
			}
		})
		fresh.Wait(p)
		if ds[1].Invalidates == 0 {
			t.Fatal("no invalidations recorded at the cached reader")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPVMPackSendRecv(t *testing.T) {
	g := grid.Cluster(2)
	if err := g.K.Run(func(p *vtime.Proc) {
		circs, err := g.NewCircuits(p, "pvm", []topology.NodeID{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		t0 := pvm.New(g.K, circs[0])
		t1 := pvm.New(g.K, circs[1])
		if t0.MyTID() != 0 || t1.NTasks() != 2 {
			t.Fatal("enrollment wrong")
		}
		buf := pvm.NewBuffer().PkInt(42).PkDouble(3.5).PkString("pvm msg")
		t0.Send(1, 9, buf)
		done := vtime.NewWaitGroup("r")
		done.Add(1)
		g.K.Go("recv", func(q *vtime.Proc) {
			defer done.Done()
			in, src, tag := t1.Recv(q, pvm.AnyTID, 9)
			if src != 0 || tag != 9 {
				t.Errorf("src/tag = %d/%d", src, tag)
			}
			if in.UpkInt() != 42 || in.UpkDouble() != 3.5 || in.UpkString() != "pvm msg" {
				t.Error("pvm buffer corrupted")
			}
		})
		done.Wait(p)
		if t1.Probe(pvm.AnyTID, pvm.AnyTag) {
			t.Fatal("queue should be empty")
		}
	}); err != nil {
		t.Fatal(err)
	}
}
