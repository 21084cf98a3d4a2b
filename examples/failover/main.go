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
	"fmt"
	"math/rand"
	"time"

	"padico/internal/datagrid"
	"padico/internal/faults"
	"padico/internal/grid"
	"padico/internal/topology"
	"padico/internal/vtime"
)

func main() {
	g := grid.MultiSiteLoss(3, 2, 0.01) // site0 {0,1}, site1 {2,3}, site2 {4,5}
	hub := g.Telemetry()
	dg := g.NewDataGrid(datagrid.Config{
		Replicas:       2,
		Streams:        4,
		RepairInterval: 500 * time.Millisecond,
	})
	inj := faults.NewInjector(g)

	// The failure detector is the bridge between the fault layer's
	// ground truth and the datagrid's view: a detected crash marks the
	// node down and shrinks the ring (DataGrid.NodeStateChanged does both
	// halves), which reroutes every placement the victim was part of
	// through the repair loop.
	var detectedAt vtime.Time
	faults.NewDetector(inj, 500*time.Millisecond, func(n topology.NodeID, down bool) {
		if down && detectedAt == 0 {
			detectedAt = g.K.Now()
		}
		dg.NodeStateChanged(n, down)
	}).Start()

	if err := g.K.Run(func(p *vtime.Proc) {
		// Ingest a replicated working set.
		data := make([]byte, 8<<20)
		rand.New(rand.NewSource(9)).Read(data)
		for i := 0; i < 4; i++ {
			if err := dg.Put(p, topology.NodeID(i), fmt.Sprintf("obj-%d", i), data); err != nil {
				panic(err)
			}
		}
		dg.WaitSettled(p)
		fmt.Println("4x8 MiB ingested, replica factor 2 across three sites")

		// Pick the GET so its preferred source is doomed: the client is
		// the victim's SAN neighbour, so the ranked holder list tries the
		// victim first and only then the WAN replica.
		victim := dg.Holders("obj-0")[0]
		var client topology.NodeID
		for _, n := range g.Topo.Nodes() {
			if n.Site == g.Topo.Node(victim).Site && n.ID != victim {
				client = n.ID
			}
		}
		fmt.Printf("node %d holds obj-0; crashing it 5ms into node %d's GET\n", victim, client)

		crashAt := p.Now().Add(5 * time.Millisecond)
		preCrash := dg.Stats()
		inj.ScheduleCrash(crashAt, victim)
		got, err := dg.Get(p, client, "obj-0")
		if err != nil {
			panic(fmt.Sprintf("GET did not survive the crash: %v", err))
		}
		if len(got) != len(data) {
			panic("short read")
		}
		fmt.Printf("GET survived: SAN source died mid-transfer, switched to the WAN replica, done %v after the crash\n",
			p.Now().Sub(crashAt))
		hub.DumpFlight("failover demo: GET completed across a source crash")

		// Let the detector notice and the repair loop re-replicate
		// everything the dead node held.
		for detectedAt == 0 {
			p.Sleep(100 * time.Millisecond)
		}
		fmt.Printf("detector flagged node %d %v after the crash; ring shrunk to %d members\n",
			victim, detectedAt.Sub(crashAt), dg.Ring().Size())
		for {
			p.Sleep(250 * time.Millisecond)
			dg.WaitSettled(p)
			healed := true
			for i := 0; i < 4; i++ {
				if dg.VerifyReplicas(fmt.Sprintf("obj-%d", i)) != nil {
					healed = false
				}
			}
			if healed {
				break
			}
		}
		st := dg.Stats()
		fmt.Printf("repair loop restored full replication %v after the crash (%d repair transfers, %.1f MB moved)\n",
			p.Now().Sub(crashAt), st.Repairs-preCrash.Repairs,
			float64(st.BytesMoved-preCrash.BytesMoved)/1e6)
		if lost := dg.LostObjects(); len(lost) != 0 {
			panic(fmt.Sprintf("lost objects: %v", lost))
		}
		fmt.Println("zero objects lost")
	}); err != nil {
		panic(err)
	}
}
