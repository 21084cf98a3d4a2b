// Failover: what the stack does when a node dies with traffic in
// flight. The demo replicates a working set across three sites, then
// crashes the SAN-preferred source in the middle of a GET: the
// transfer errors promptly instead of hanging, the client switches to
// the surviving WAN replica within the same GET, and the flight
// recorder dumps the moments around the crash. A failure detector
// then notices the silence, shrinks the placement ring, and the
// repair loop re-replicates every object the dead node held from
// weather-ranked surviving sources — back to full replication with
// nothing lost.
package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"padico/internal/datagrid"
	"padico/internal/grid"
	"padico/internal/scenario"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// Virtual-time budgets after the crash: a detector or repair loop that
// regresses fails the run instead of sleeping forever.
const (
	detectWithin = 5 * time.Second
	repairWithin = 30 * time.Second
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	// The flight recorder needs the telemetry hub but not span tracing:
	// attach the hub to the testbed before the harness builds the layers
	// that discover it.
	tb := grid.MultiSiteLoss(3, 2, 0.01) // site0 {0,1}, site1 {2,3}, site2 {4,5}
	hub := tb.Telemetry()
	// The failure detector is the bridge between the fault layer's
	// ground truth and the datagrid's view: a detected crash marks the
	// node down and shrinks the ring (DataGrid.NodeStateChanged does both
	// halves), which reroutes every placement the victim was part of
	// through the repair loop.
	env, err := scenario.New(scenario.Spec{
		Name:    "failover",
		Testbed: tb,
		DataGrid: &datagrid.Config{
			Replicas:       2,
			Streams:        4,
			RepairInterval: 500 * time.Millisecond,
		},
		DetectEvery: 500 * time.Millisecond,
	}, scenario.Observers{})
	if err != nil {
		return err
	}
	dg := env.DG
	set := scenario.Set{Prefix: "obj", N: 4, Clients: 4, Data: make([]byte, 8<<20)}
	rand.New(rand.NewSource(9)).Read(set.Data)
	return env.Run(func(p *vtime.Proc) error {
		if err := env.Put(p, set, 0); err != nil {
			return err
		}
		dg.WaitSettled(p)
		fmt.Println("4x8 MiB ingested, replica factor 2 across three sites")

		// Pick the GET so its preferred source is doomed: the client is
		// the victim's SAN neighbour, so the ranked holder list tries the
		// victim first and only then the WAN replica.
		victim := dg.Holders("obj-0")[0]
		var client topology.NodeID
		for _, n := range env.G.Topo.Nodes() {
			if n.Site == env.G.Topo.Node(victim).Site && n.ID != victim {
				client = n.ID
			}
		}
		fmt.Printf("node %d holds obj-0; crashing it 5ms into node %d's GET\n", victim, client)

		crashAt := p.Now().Add(5 * time.Millisecond)
		preCrash := dg.Stats()
		env.Injector().ScheduleCrash(crashAt, victim)
		got, err := dg.Get(p, client, "obj-0")
		if err != nil {
			return fmt.Errorf("GET did not survive the crash: %w", err)
		}
		if len(got) != len(set.Data) {
			return errors.New("short read")
		}
		fmt.Printf("GET survived: SAN source died mid-transfer, switched to the WAN replica, done %v after the crash\n",
			p.Now().Sub(crashAt))
		hub.DumpFlight("failover demo: GET completed across a source crash")

		// Let the detector notice and the repair loop re-replicate
		// everything the dead node held.
		for env.DetectedAt == 0 {
			if p.Now().Sub(crashAt) > detectWithin {
				return fmt.Errorf("detector did not flag node %d within %v of the crash", victim, detectWithin)
			}
			p.Sleep(100 * time.Millisecond)
		}
		fmt.Printf("detector flagged node %d %v after the crash; ring shrunk to %d members\n",
			victim, env.DetectedAt.Sub(crashAt), dg.Ring().Size())
		for {
			p.Sleep(250 * time.Millisecond)
			dg.WaitSettled(p)
			if env.Verify(set) == nil {
				break
			}
			if p.Now().Sub(crashAt) > repairWithin {
				return fmt.Errorf("replication not restored within %v of the crash", repairWithin)
			}
		}
		st := dg.Stats()
		fmt.Printf("repair loop restored full replication %v after the crash (%d repair transfers, %.1f MB moved)\n",
			p.Now().Sub(crashAt), st.Repairs-preCrash.Repairs,
			float64(st.BytesMoved-preCrash.BytesMoved)/1e6)
		if lost := dg.LostObjects(); len(lost) != 0 {
			return fmt.Errorf("lost objects: %v", lost)
		}
		fmt.Println("zero objects lost")
		return nil
	})
}
