package datagrid_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"padico/internal/datagrid"
	"padico/internal/grid"
	"padico/internal/model"
	"padico/internal/store"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// withEngines runs the scenario once per storage backend: nil (the
// in-memory map default) and the durable pack engine rooted in a
// per-subtest temp dir. Core datagrid behavior must be identical on
// both; only the virtual time charged differs.
func withEngines(t *testing.T, fn func(t *testing.T, engine store.Factory)) {
	t.Run("memory", func(t *testing.T) { fn(t, nil) })
	t.Run("pack", func(t *testing.T) {
		fn(t, store.PackFactory(t.TempDir(), store.PackConfig{}))
	})
}

// TestDeleteRemovesEveryReplica: a grid-wide Delete leaves no copy on
// any node, drops the catalog entry, and counts once — on both
// backends.
func TestDeleteRemovesEveryReplica(t *testing.T) {
	withEngines(t, func(t *testing.T, engine store.Factory) {
		g := grid.Cluster(4)
		dg := g.NewDataGrid(datagrid.Config{Replicas: 2, Engine: engine})
		if err := g.K.Run(func(p *vtime.Proc) {
			for i := 0; i < 3; i++ {
				if err := dg.Put(p, 0, fmt.Sprintf("d%d", i), payload(int64(i), 128<<10)); err != nil {
					t.Fatal(err)
				}
			}
			dg.WaitSettled(p)
			holders := dg.Holders("d1")
			if len(holders) != 2 {
				t.Fatalf("holders before delete = %v", holders)
			}
			if err := dg.Delete(p, "d1"); err != nil {
				t.Fatal(err)
			}
			if hs := dg.Holders("d1"); len(hs) != 0 {
				t.Fatalf("holders after delete = %v", hs)
			}
			for _, h := range holders {
				if _, ok := dg.ObjectOn(h, "d1"); ok {
					t.Fatalf("node %d still serves the deleted object", h)
				}
			}
			if _, err := dg.Get(p, 0, "d1"); err == nil {
				t.Fatal("GET of a deleted object succeeded")
			}
			if err := dg.Delete(p, "d1"); err == nil {
				t.Fatal("double delete succeeded")
			}
			// The neighbors are untouched.
			for _, name := range []string{"d0", "d2"} {
				if err := dg.VerifyReplicas(name); err != nil {
					t.Fatal(err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if dg.Stats().Deletes != 1 {
			t.Fatalf("deletes = %d", dg.Stats().Deletes)
		}
	})
}

// TestDeleteSurvivesPackReopen: the tombstone is durable. Reopening
// every node's bundles on a fresh kernel must replay the delete — the
// key stays gone — while the surviving object's bytes are intact.
func TestDeleteSurvivesPackReopen(t *testing.T) {
	root := t.TempDir()
	g := grid.Cluster(4)
	dg := g.NewPackDataGrid(root, store.PackConfig{}, datagrid.Config{Replicas: 2})
	keep := payload(21, 128<<10)
	var keepHolders []int
	if err := g.K.Run(func(p *vtime.Proc) {
		if err := dg.Put(p, 0, "keep", keep); err != nil {
			t.Fatal(err)
		}
		if err := dg.Put(p, 0, "gone", payload(22, 128<<10)); err != nil {
			t.Fatal(err)
		}
		dg.WaitSettled(p)
		for _, h := range dg.Holders("keep") {
			keepHolders = append(keepHolders, int(h))
		}
		if err := dg.Delete(p, "gone"); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := dg.Close(); err != nil {
		t.Fatal(err)
	}

	// A second testbed over the same directory: open every node's pack
	// directly and check what the bundles replay to.
	k2 := vtime.NewKernel()
	factory := store.PackFactory(root, store.PackConfig{})
	present := map[int]bool{}
	for n := 0; n < 4; n++ {
		eng, err := factory(k2, topology.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.Size("gone"); ok {
			t.Fatalf("node %d resurrected the deleted object after reopen", n)
		}
		if got, ok := eng.Get("keep"); ok {
			if !bytes.Equal(got, keep) {
				t.Fatalf("node %d: surviving object differs after reopen", n)
			}
			present[n] = true
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range keepHolders {
		if !present[h] {
			t.Fatalf("holder %d lost the surviving object across reopen (present on %v)", h, present)
		}
	}
}

// TestFreshnessChecksStayOffThePlatter reopens a pack-backed grid over
// its bundles, so every payload is cold. Deciding who is fresh is an
// index question: a repair scan and a lost-object scan over a fully
// replicated catalog load no payload. A repair from a cold source pays
// the disk read its job does: the same repair from the then warm
// source settles faster by exactly one seek plus one streaming read.
func TestFreshnessChecksStayOffThePlatter(t *testing.T) {
	const size = 256 << 10
	root := t.TempDir()
	g := grid.Cluster(4)
	dg := g.NewPackDataGrid(root, store.PackConfig{}, datagrid.Config{Replicas: 2})
	if err := g.K.Run(func(p *vtime.Proc) {
		for i := 0; i < 4; i++ {
			if err := dg.Put(p, 0, fmt.Sprintf("c%d", i), payload(int64(40+i), size)); err != nil {
				t.Fatal(err)
			}
		}
		dg.WaitSettled(p)
	}); err != nil {
		t.Fatal(err)
	}
	if err := dg.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := grid.Cluster(4)
	dg2 := g2.NewPackDataGrid(root, store.PackConfig{}, datagrid.Config{Replicas: 2})
	dg2.AdoptCatalog(dg)
	engines := make([]store.Engine, 4)
	for n := range engines {
		engines[n] = dg2.EngineOn(topology.NodeID(n))
	}
	coldLoads := func() (n int64) {
		for _, e := range engines {
			n += e.(*store.Pack).Stats().ColdLoads
		}
		return n
	}
	meta, _ := dg2.Meta("c0")
	src, dst := meta.Targets[0], meta.Targets[1]
	if err := g2.K.Run(func(p *vtime.Proc) {
		if n := dg2.RepairNow(p); n != 0 {
			t.Fatalf("repair scan of a fully replicated catalog scheduled %d jobs", n)
		}
		if lost := dg2.LostObjects(); len(lost) != 0 {
			t.Fatalf("lost objects after reopen: %v", lost)
		}
		if n := coldLoads(); n != 0 {
			t.Fatalf("freshness scans cold-loaded %d payloads", n)
		}
		repair := func() time.Duration {
			engines[dst].Delete(p, "c0")
			p.Sleep(time.Second) // past the fsync budget of the tombstone
			t0 := g2.K.Now()
			if n := dg2.RepairNow(p); n != 1 {
				t.Fatalf("repair scheduled %d jobs, want 1", n)
			}
			dg2.WaitSettled(p)
			if err := dg2.VerifyReplicas("c0"); err != nil {
				t.Fatal(err)
			}
			p.Sleep(time.Second)
			return g2.K.Now().Sub(t0) - time.Second
		}
		cold := repair()
		if n := engines[src].(*store.Pack).Stats().ColdLoads; n != 1 {
			t.Fatalf("source cold loads = %d, want 1", n)
		}
		warm := repair()
		want := model.DiskSeekCost + model.DiskReadPerByte.Cost(size)
		if cold-warm != want {
			t.Fatalf("repair from a cold source took %v, from a warm one %v: "+
				"difference %v, want the disk read %v", cold, warm, cold-warm, want)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAuditRepairRestoresReplication is the full anti-entropy loop,
// end to end on the wires: corrupt a needle on disk, the background
// auditor quarantines it (flight-recorder dump included), the kicked
// repair loop re-replicates over the normal transfer path, and the
// object is back at full replication with every copy verifying.
func TestAuditRepairRestoresReplication(t *testing.T) {
	root := t.TempDir()
	g := grid.TwoClusterWAN(2, 2)
	var flight bytes.Buffer
	g.Telemetry().SetFlightSink(&flight) // attach the hub before the datagrid binds
	dg := g.NewPackDataGrid(root, store.PackConfig{}, datagrid.Config{
		Replicas:       2,
		AuditInterval:  500 * time.Millisecond,
		RepairInterval: 500 * time.Millisecond,
	})
	if err := g.K.Run(func(p *vtime.Proc) {
		for i := 0; i < 3; i++ {
			if err := dg.Put(p, 0, fmt.Sprintf("ae-%d", i), payload(int64(30+i), 256<<10)); err != nil {
				t.Fatal(err)
			}
		}
		dg.WaitSettled(p)
		victim := dg.Holders("ae-1")[0]
		if !dg.EngineOn(victim).Corrupt("ae-1") {
			t.Fatalf("could not corrupt ae-1 on node %d", victim)
		}
		// Rot is invisible until scrubbed: the copy still counts as a
		// holder and the catalog is unchanged.
		if len(dg.Holders("ae-1")) != 2 {
			t.Fatal("corruption alone changed the holder set")
		}
		p.Sleep(2 * time.Second) // a few audit + repair cycles
		dg.WaitSettled(p)
		if q := dg.Stats().Quarantines; q != 1 {
			t.Fatalf("quarantines = %d, want 1", q)
		}
		if r := dg.Stats().Repairs; r < 1 {
			t.Fatalf("repairs = %d, want >= 1", r)
		}
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("ae-%d", i)
			if err := dg.VerifyReplicas(name); err != nil {
				t.Fatalf("after repair: %v", err)
			}
			if hs := dg.Holders(name); len(hs) != 2 {
				t.Fatalf("%s below replication factor after repair: %v", name, hs)
			}
		}
		if lost := dg.LostObjects(); len(lost) != 0 {
			t.Fatalf("lost objects: %v", lost)
		}
	}); err != nil {
		t.Fatal(err)
	}
	dump := flight.String()
	if !strings.Contains(dump, "flight recorder dump") ||
		!strings.Contains(dump, "corrupt needle quarantined: ae-1") {
		t.Fatalf("auditor quarantine did not dump the flight recorder:\n%s", dump)
	}
	// The dump fires at quarantine time; the repair's own trail lands in
	// the ring afterwards.
	repaired := false
	for _, e := range g.Telemetry().Flight() {
		if e.Msg == "repair complete: ae-1" {
			repaired = true
		}
	}
	if !repaired {
		t.Fatal("flight ring missing the repair-complete note for ae-1")
	}
	if err := dg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditNowRepairNowSynchronous drives the same loop without the
// daemons: AuditNow finds the rot, RepairNow schedules the transfers,
// WaitSettled lands them. This is the path the bench and the examples
// use.
func TestAuditNowRepairNowSynchronous(t *testing.T) {
	root := t.TempDir()
	g := grid.Cluster(4)
	dg := g.NewPackDataGrid(root, store.PackConfig{}, datagrid.Config{Replicas: 2})
	if err := g.K.Run(func(p *vtime.Proc) {
		for i := 0; i < 4; i++ {
			if err := dg.Put(p, 0, fmt.Sprintf("s%d", i), payload(int64(40+i), 128<<10)); err != nil {
				t.Fatal(err)
			}
		}
		dg.WaitSettled(p)
		for _, name := range []string{"s0", "s3"} {
			if !dg.EngineOn(dg.Holders(name)[1]).Corrupt(name) {
				t.Fatalf("could not corrupt %s", name)
			}
		}
		if n := dg.AuditNow(p); n != 2 {
			t.Fatalf("AuditNow quarantined %d, want 2", n)
		}
		if n := dg.RepairNow(p); n != 2 {
			t.Fatalf("RepairNow scheduled %d targets, want 2", n)
		}
		dg.WaitSettled(p)
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("s%d", i)
			if err := dg.VerifyReplicas(name); err != nil {
				t.Fatal(err)
			}
			if hs := dg.Holders(name); len(hs) != 2 {
				t.Fatalf("%s holders = %v", name, hs)
			}
		}
		// A second synchronous sweep finds nothing left to do.
		if n := dg.AuditNow(p); n != 0 {
			t.Fatalf("clean audit quarantined %d", n)
		}
		if n := dg.RepairNow(p); n != 0 {
			t.Fatalf("clean repair scheduled %d", n)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if dg.Stats().Repairs != 2 {
		t.Fatalf("repairs = %d", dg.Stats().Repairs)
	}
}
