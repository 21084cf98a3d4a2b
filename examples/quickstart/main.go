// Quickstart: the paper's headline capability in one file — a parallel
// middleware (MPI) and a distributed middleware (CORBA) running at the
// same time on the same Myrinet cluster, both at full speed, thanks to
// the arbitration + dual-abstraction + personality stack.
//
// The input data is staged through the session layer first: one
// g.Open call, and the selector transparently provisions the SAN
// parallel path — the same front door a WAN pair would get striped
// streams from, with no code change here.
package main

import (
	"fmt"
	"os"

	"padico/internal/grid"
	"padico/internal/mpi"
	"padico/internal/orb"
	"padico/internal/personality"
	"padico/internal/scenario"
	"padico/internal/topology"
	"padico/internal/vtime"
)

func main() {
	env, err := scenario.New(scenario.Spec{Name: "quickstart", Testbed: grid.Cluster(2)}, scenario.Observers{})
	if err == nil {
		err = env.Run(func(p *vtime.Proc) error { return run(env.G, p) })
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(g *grid.Grid, p *vtime.Proc) error {
	// Stage the dataset to node 1 through the paradigm-agnostic
	// session channel (the selector picks Myrinet/madio here).
	dataset := make([]byte, 1<<20)
	ch, err := g.Open(p, 0, 1)
	if err != nil {
		return err
	}
	var stageErr error
	staged := vtime.NewWaitGroup("staged")
	staged.Add(1)
	g.K.Go("stage-in", func(q *vtime.Proc) {
		defer staged.Done()
		rc := ch.Remote()
		buf := make([]byte, len(dataset))
		_, stageErr = rc.ReadFull(q, buf)
		rc.Close()
	})
	if _, err := ch.Write(p, dataset); err != nil {
		return err
	}
	staged.Wait(p)
	if stageErr != nil {
		return fmt.Errorf("stage-in: %w", stageErr)
	}
	ch.Close()
	info := ch.Info()
	fmt.Printf("staged %d KiB via session channel: %s (path class %s)\n",
		info.BytesOut>>10, info.Decision, info.Class)

	// Parallel side: MPI over the virtual-Madeleine personality.
	circs, err := g.NewCircuits(p, "app", []topology.NodeID{0, 1})
	if err != nil {
		return err
	}
	mpi0 := mpi.New(g.K, personality.NewVMad(g.K, circs[0]))
	mpi1 := mpi.New(g.K, personality.NewVMad(g.K, circs[1]))

	// Distributed side: a CORBA servant on node 1.
	server := orb.New(g.K, g.RT[1].VLink, orb.OmniORB4, "madio", 5000)
	ior := server.RegisterServant("counter", orb.Servant{
		"get": func(q *vtime.Proc, args *orb.Decoder, reply *orb.Encoder) error {
			reply.PutU32(42)
			return nil
		},
	})
	if err := server.Activate(); err != nil {
		return err
	}
	fmt.Println("servant activated:", ior)

	// Node 1: MPI worker echoing messages.
	g.K.GoDaemon("worker", func(q *vtime.Proc) {
		buf := make([]byte, 1<<20)
		for {
			st := mpi1.Recv(q, mpi.AnySource, mpi.AnyTag, buf)
			mpi1.Send(q, st.Source, st.Tag+1, buf[:st.Count])
		}
	})

	// Node 0: interleave MPI traffic with CORBA invocations.
	client := orb.New(g.K, g.RT[0].VLink, orb.OmniORB4, "madio", 5001)
	ref, err := client.Resolve(ior)
	if err != nil {
		return err
	}
	payload := make([]byte, 256<<10)
	start := p.Now()
	for i := 0; i < 8; i++ {
		mpi0.Send(p, 1, 10, payload)
		mpi0.Recv(p, 1, 11, payload)
		dec, err := ref.Invoke(p, "get", nil)
		if err != nil {
			return err
		}
		if v := dec.U32(); v != 42 {
			return fmt.Errorf("counter = %d, want 42", v)
		}
	}
	elapsed := p.Now().Sub(start)
	fmt.Printf("8 MPI round-trips of 256 KiB + 8 CORBA calls in %v of simulated time\n", elapsed)
	fmt.Printf("MPI moved %d bytes; ORB served %d requests — on the same Myrinet, simultaneously\n",
		mpi0.BytesOut, server.Served)
	return nil
}
