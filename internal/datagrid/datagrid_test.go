package datagrid_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"padico/internal/datagrid"
	"padico/internal/grid"
	"padico/internal/store"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// payload returns size deterministic pseudo-random (incompressible)
// bytes.
func payload(seed int64, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestPutGetOnCluster exercises the SAN path: every transfer inside a
// Myrinet cluster rides a Circuit, and reads come back byte-identical.
func TestPutGetOnCluster(t *testing.T) {
	withEngines(t, func(t *testing.T, engine store.Factory) {
		g := grid.Cluster(4)
		dg := g.NewDataGrid(datagrid.Config{Replicas: 2, Engine: engine})
		data := payload(1, 1<<20)
		if err := g.K.Run(func(p *vtime.Proc) {
			if err := dg.Put(p, 0, "alpha", data); err != nil {
				t.Fatal(err)
			}
			dg.WaitSettled(p)
			if err := dg.VerifyReplicas("alpha"); err != nil {
				t.Fatal(err)
			}
			got, err := dg.Get(p, 3, "alpha")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("GET returned different bytes")
			}
		}); err != nil {
			t.Fatal(err)
		}
		if dg.Stats().CircuitTransfers == 0 {
			t.Fatalf("no circuit transfers on a SAN cluster: %+v", dg.Stats())
		}
		if dg.Stats().VLinkTransfers != 0 {
			t.Fatalf("vlink transfers inside a single cluster: %+v", dg.Stats())
		}
		if len(dg.Holders("alpha")) != 2 {
			t.Fatalf("holders = %v", dg.Holders("alpha"))
		}
	})
}

// TestReplicasSpanSites checks zone-aware placement end to end: with
// replica factor 2 on a two-site grid, the copies land in different
// sites and cross-site replication uses the distributed paradigm.
func TestReplicasSpanSites(t *testing.T) {
	withEngines(t, func(t *testing.T, engine store.Factory) {
		g := grid.TwoClusterWAN(2, 2)
		dg := g.NewDataGrid(datagrid.Config{Replicas: 2, Engine: engine})
		if err := g.K.Run(func(p *vtime.Proc) {
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("obj-%d", i)
				if err := dg.Put(p, 0, name, payload(int64(i), 256<<10)); err != nil {
					t.Fatal(err)
				}
			}
			dg.WaitSettled(p)
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("obj-%d", i)
				if err := dg.VerifyReplicas(name); err != nil {
					t.Fatal(err)
				}
				meta, _ := dg.Meta(name)
				if g.Topo.SameSite(meta.Targets[0], meta.Targets[1]) {
					t.Fatalf("%s: both replicas in one site: %v", name, meta.Targets)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if dg.Stats().VLinkTransfers == 0 {
			t.Fatalf("no cross-site vlink transfers: %+v", dg.Stats())
		}
	})
}

// wanPutThroughput PUTs one size-byte object from a rennes client to a
// grenoble-only ring over the lossy WAN and returns bytes per second
// of virtual time.
func wanPutThroughput(t *testing.T, streams, size int, loss float64) float64 {
	g := grid.TwoClusterWANLoss(1, 1, loss)
	dg := g.NewDataGrid(datagrid.Config{Replicas: 1, Streams: streams})
	ring := datagrid.NewRing(0)
	ring.Add(1, "grenoble") // force a cross-WAN ingest path
	dg.SetRing(ring)
	data := payload(7, size)
	var rate float64
	if err := g.K.Run(func(p *vtime.Proc) {
		start := p.Now()
		if err := dg.Put(p, 0, "bulk", data); err != nil {
			t.Fatal(err)
		}
		rate = float64(size) / p.Now().Sub(start).Seconds()
		got, ok := dg.ObjectOn(1, "bulk")
		if !ok || !bytes.Equal(got, data) {
			t.Fatal("replica differs from the original")
		}
	}); err != nil {
		t.Fatal(err)
	}
	return rate
}

// TestStripedPutBeatsSingleStream is the acceptance experiment: a
// 64 MiB PUT across the WAN with 4 stripes must at least double the
// single-stream virtual-time throughput. With isolated loss on the
// wide area, each drop stalls only one stripe — the paper's parallel
// streams argument applied to bulk data.
func TestStripedPutBeatsSingleStream(t *testing.T) {
	const size = 64 << 20
	const loss = 0.01
	single := wanPutThroughput(t, 1, size, loss)
	striped := wanPutThroughput(t, 4, size, loss)
	if striped < 2*single {
		t.Fatalf("striped %.2f MB/s < 2x single %.2f MB/s", striped/1e6, single/1e6)
	}
	if striped > 12.6e6 {
		t.Fatalf("striped %.2f MB/s exceeds the access-link cap", striped/1e6)
	}
	t.Logf("single %.2f MB/s, striped x4 %.2f MB/s (%.1fx)",
		single/1e6, striped/1e6, striped/single)
}

// TestReplicationConvergesUnderLoss is the other acceptance
// experiment: with loss configured on the WAN, replication still
// converges and every replica is byte-identical (checksummed end to
// end).
func TestReplicationConvergesUnderLoss(t *testing.T) {
	withEngines(t, func(t *testing.T, engine store.Factory) {
		g := grid.TwoClusterWANLoss(2, 2, 0.02)
		dg := g.NewDataGrid(datagrid.Config{Replicas: 3, Engine: engine})
		objects := map[string][]byte{}
		if err := g.K.Run(func(p *vtime.Proc) {
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("lossy-%d", i)
				data := payload(int64(100+i), 2<<20)
				objects[name] = data
				if err := dg.Put(p, topology.NodeID(i%4), name, data); err != nil {
					t.Fatal(err)
				}
			}
			dg.WaitSettled(p)
		}); err != nil {
			t.Fatal(err)
		}
		for name, data := range objects {
			if err := dg.VerifyReplicas(name); err != nil {
				t.Fatal(err)
			}
			meta, _ := dg.Meta(name)
			if len(meta.Targets) != 3 {
				t.Fatalf("%s: %d targets", name, len(meta.Targets))
			}
			for _, tgt := range meta.Targets {
				got, _ := dg.ObjectOn(tgt, name)
				if !bytes.Equal(got, data) {
					t.Fatalf("%s: replica on %d differs", name, tgt)
				}
			}
		}
		if dg.Stats().Failures != 0 {
			t.Fatalf("failures under loss: %+v", dg.Stats())
		}
		if errs := dg.JobErrors(); len(errs) != 0 {
			t.Fatalf("background job errors: %v", errs)
		}
	})
}

// TestRetryOnInjectedFault proves the retry path on both paradigms: a
// receiver-side fault on the first attempt forces a second, successful
// attempt.
func TestRetryOnInjectedFault(t *testing.T) {
	cases := []struct {
		name  string
		build func() *grid.Grid
	}{
		{"circuit", func() *grid.Grid { return grid.Cluster(3) }},
		{"vlink", func() *grid.Grid { return grid.TwoClusterWAN(1, 1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			withEngines(t, func(t *testing.T, engine store.Factory) {
				g := c.build()
				dg := g.NewDataGrid(datagrid.Config{
					Replicas: 2,
					Engine:   engine,
					InjectFault: func(name string, attempt int) bool {
						return attempt == 1 // every transfer fails once
					},
				})
				data := payload(5, 512<<10)
				if err := g.K.Run(func(p *vtime.Proc) {
					if err := dg.Put(p, 0, "flaky", data); err != nil {
						t.Fatal(err)
					}
					dg.WaitSettled(p)
					if err := dg.VerifyReplicas("flaky"); err != nil {
						t.Fatal(err)
					}
				}); err != nil {
					t.Fatal(err)
				}
				if dg.Stats().Retries == 0 {
					t.Fatalf("fault injected but no retries recorded: %+v", dg.Stats())
				}
				if dg.Stats().Failures != 0 {
					t.Fatalf("retries did not recover: %+v", dg.Stats())
				}
			})
		})
	}
}

// TestFaultExhaustsRetries pins the failure path: a permanent fault
// surfaces as ErrJobFailed from Put.
func TestFaultExhaustsRetries(t *testing.T) {
	g := grid.Cluster(2)
	dg := g.NewDataGrid(datagrid.Config{
		Replicas:    1,
		InjectFault: func(string, int) bool { return true },
	})
	ring := datagrid.NewRing(0)
	ring.Add(1, "rennes") // force a real (non-local) transfer
	dg.SetRing(ring)
	if err := g.K.Run(func(p *vtime.Proc) {
		if err := dg.Put(p, 0, "doomed", payload(9, 64<<10)); err == nil {
			t.Fatal("Put succeeded under a permanent fault")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if dg.Stats().Failures != 1 {
		t.Fatalf("failures = %d", dg.Stats().Failures)
	}
}

// TestManyTransfersReuseCircuits runs far more same-pair SAN
// transfers than leaked circuits could sustain (MadIO logical channels
// are a finite per-node resource): the session manager must either
// share the pair's live circuit (overlapping jobs) or tear it down and
// return its logical channel on last release (sequential jobs) — never
// strand one per transfer.
func TestManyTransfersReuseCircuits(t *testing.T) {
	withEngines(t, func(t *testing.T, engine store.Factory) {
		g := grid.Cluster(2)
		dg := g.NewDataGrid(datagrid.Config{Replicas: 1, Engine: engine})
		ring := datagrid.NewRing(0)
		ring.Add(1, "rennes")
		dg.SetRing(ring)
		if err := g.K.Run(func(p *vtime.Proc) {
			for i := 0; i < 64; i++ {
				name := fmt.Sprintf("many-%d", i)
				if err := dg.Put(p, 0, name, payload(int64(i), 8<<10)); err != nil {
					t.Fatal(err)
				}
				if _, err := dg.Get(p, 0, name); err != nil {
					t.Fatal(err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if dg.Stats().CircuitTransfers != 128 {
			t.Fatalf("circuit transfers = %d", dg.Stats().CircuitTransfers)
		}
	})
}

// TestRebalanceAfterMembershipChange grows the ring by one node and
// checks the catalog converges to the new placement with old copies
// trimmed.
func TestRebalanceAfterMembershipChange(t *testing.T) {
	withEngines(t, func(t *testing.T, engine store.Factory) {
		g := grid.Cluster(4)
		dg := g.NewDataGrid(datagrid.Config{Replicas: 2, Engine: engine})
		ring := datagrid.NewRing(0)
		for i := 0; i < 3; i++ { // node 3 joins later
			ring.Add(topology.NodeID(i), "rennes")
		}
		dg.SetRing(ring)
		const objects = 16
		if err := g.K.Run(func(p *vtime.Proc) {
			for i := 0; i < objects; i++ {
				if err := dg.Put(p, 0, fmt.Sprintf("o%d", i), payload(int64(i), 64<<10)); err != nil {
					t.Fatal(err)
				}
			}
			dg.WaitSettled(p)
			moved := dg.AddMember(3, "rennes")
			if moved == 0 {
				t.Fatal("no placements moved when a member joined")
			}
			if moved > objects {
				t.Fatalf("rebalance moved %d placements for %d objects", moved, objects)
			}
			dg.WaitSettled(p)
			if n := dg.TrimExcess(p); n == 0 {
				t.Fatal("nothing trimmed after rebalance")
			}
			for i := 0; i < objects; i++ {
				name := fmt.Sprintf("o%d", i)
				if err := dg.VerifyReplicas(name); err != nil {
					t.Fatal(err)
				}
				meta, _ := dg.Meta(name)
				if got := dg.Holders(name); len(got) != len(meta.Targets) {
					t.Fatalf("%s: holders %v vs targets %v", name, got, meta.Targets)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGetPrefersNearReplica: with one replica in each site, a client
// reads from its own site — no WAN transfer happens for the read.
func TestGetPrefersNearReplica(t *testing.T) {
	g := grid.TwoClusterWAN(2, 2)
	dg := g.NewDataGrid(datagrid.Config{Replicas: 2})
	if err := g.K.Run(func(p *vtime.Proc) {
		if err := dg.Put(p, 0, "near", payload(11, 128<<10)); err != nil {
			t.Fatal(err)
		}
		dg.WaitSettled(p)
		before := dg.Stats().VLinkTransfers
		meta, _ := dg.Meta("near")
		// Read from a non-holder node co-sited with a replica.
		client := topology.NodeID(-1)
		for _, tgt := range meta.Targets {
			for _, n := range g.Topo.Nodes() {
				if n.ID != tgt && g.Topo.SameSite(n.ID, tgt) {
					client = n.ID
				}
			}
		}
		if client < 0 {
			t.Fatalf("no node co-sited with any replica of %v", meta.Targets)
		}
		if _, err := dg.Get(p, client, "near"); err != nil {
			t.Fatal(err)
		}
		// The read must not have crossed the WAN: any new transfer is
		// circuit (SAN) or local.
		if dg.Stats().VLinkTransfers != before {
			t.Fatalf("read crossed the WAN: %+v", dg.Stats())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestParadigmMatchesPathClass pins that datagrid-over-session picks
// exactly the paradigm the old inline dispatch chose per path class:
// local copies on-node, Circuit transfers inside a SAN, VLink transfers
// across the wide area — now decided by the session manager, with the
// per-transfer counts agreeing with selector.Classify on every
// (src, dst) pair the run touched.
func TestParadigmMatchesPathClass(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *grid.Grid
		ring    func() *datagrid.Ring // nil keeps the full-topology ring
		client  topology.NodeID
		local   bool // expect local transfers
		circuit bool // expect circuit transfers
		vlink   bool // expect vlink transfers
	}{
		{
			// Client is its own (only) placement target: pure local.
			name:  "local",
			build: func() *grid.Grid { return grid.Cluster(2) },
			ring: func() *datagrid.Ring {
				r := datagrid.NewRing(0)
				r.Add(0, "rennes")
				return r
			},
			client: 0,
			local:  true,
		},
		{
			// Same-SAN pair: parallel paradigm only.
			name:  "san",
			build: func() *grid.Grid { return grid.Cluster(2) },
			ring: func() *datagrid.Ring {
				r := datagrid.NewRing(0)
				r.Add(1, "rennes")
				return r
			},
			client:  0,
			circuit: true,
		},
		{
			// Cross-site pair: distributed paradigm only.
			name:  "wan",
			build: func() *grid.Grid { return grid.TwoClusterWAN(1, 1) },
			ring: func() *datagrid.Ring {
				r := datagrid.NewRing(0)
				r.Add(1, "grenoble")
				return r
			},
			client: 0,
			vlink:  true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.build()
			dg := g.NewDataGrid(datagrid.Config{Replicas: 1})
			if c.ring != nil {
				dg.SetRing(c.ring())
			}
			if err := g.K.Run(func(p *vtime.Proc) {
				if err := dg.Put(p, c.client, "probe", payload(3, 128<<10)); err != nil {
					t.Fatal(err)
				}
				dg.WaitSettled(p)
			}); err != nil {
				t.Fatal(err)
			}
			st := dg.Stats()
			if c.local != (st.LocalTransfers > 0) ||
				c.circuit != (st.CircuitTransfers > 0) ||
				c.vlink != (st.VLinkTransfers > 0) {
				t.Fatalf("paradigm mix = %+v, want local=%v circuit=%v vlink=%v",
					st, c.local, c.circuit, c.vlink)
			}
		})
	}
}

// hierRun drives one replica-3 bulk workload (the bench's regime: two
// remote replicas per object land in one remote site) on the
// two-cluster WAN testbed and reports WAN bytes and the fan-out
// (converge) virtual time.
func hierRun(t *testing.T, hierarchical bool) (int64, vtime.Duration) {
	t.Helper()
	g := grid.TwoClusterWANLoss(2, 2, 0.01)
	dg := g.NewDataGrid(datagrid.Config{Replicas: 3, Streams: 4, Hierarchical: hierarchical})
	data := payload(42, 4<<20)
	var converge vtime.Duration
	if err := g.K.Run(func(p *vtime.Proc) {
		for i := 0; i < 4; i++ {
			if err := dg.Put(p, topology.NodeID(i%4), fmt.Sprintf("bench-%d", i), data); err != nil {
				t.Fatal(err)
			}
		}
		putDone := p.Now()
		dg.WaitSettled(p)
		converge = p.Now().Sub(putDone)
		for i := 0; i < 4; i++ {
			if err := dg.VerifyReplicas(fmt.Sprintf("bench-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if hierarchical && dg.Stats().GroupFanouts == 0 {
		t.Fatalf("hierarchical run never used the group: %+v", dg.Stats())
	}
	if !hierarchical && dg.Stats().GroupFanouts != 0 {
		t.Fatalf("flat run used the group: %+v", dg.Stats())
	}
	return dg.Stats().WANBytes, converge
}

// TestHierarchicalFanoutBeatsFlat is the tentpole claim: with replica
// factor 3 on the two-cluster WAN, routing Put fan-out through
// group.Multicast moves strictly fewer WAN bytes and settles in
// strictly less virtual time than the point-to-point fan-out — while
// every replica still verifies end to end. Both modes are repeatable
// bit-for-bit.
func TestHierarchicalFanoutBeatsFlat(t *testing.T) {
	flatWAN, flatConverge := hierRun(t, false)
	hierWAN, hierConverge := hierRun(t, true)
	if hierWAN >= flatWAN {
		t.Fatalf("hierarchical WAN bytes %d >= flat %d", hierWAN, flatWAN)
	}
	if hierConverge >= flatConverge {
		t.Fatalf("hierarchical converge %v >= flat %v", hierConverge, flatConverge)
	}
	// Determinism: repeat runs are bit-identical.
	w2, c2 := hierRun(t, true)
	if w2 != hierWAN || c2 != hierConverge {
		t.Fatalf("hierarchical repeat diverged: %d/%v vs %d/%v", w2, c2, hierWAN, hierConverge)
	}
}

// TestHierarchicalFallsBackWhenTreeCannotSave pins the routing policy:
// with replica factor 2 every fan-out has at most one replica per
// remote site, a tree saves nothing over flat, and hierarchical mode
// must keep the point-to-point path — byte-identical WAN traffic.
func TestHierarchicalFallsBackWhenTreeCannotSave(t *testing.T) {
	run := func(hierarchical bool) (*datagrid.Stats, error) {
		g := grid.TwoClusterWAN(2, 2)
		dg := g.NewDataGrid(datagrid.Config{Replicas: 2, Hierarchical: hierarchical})
		err := g.K.Run(func(p *vtime.Proc) {
			for i := 0; i < 2; i++ {
				if err := dg.Put(p, 0, fmt.Sprintf("pair-%d", i), payload(3, 512<<10)); err != nil {
					t.Fatal(err)
				}
			}
			dg.WaitSettled(p)
		})
		st := dg.Stats()
		return &st, err
	}
	flat, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	if hier.GroupFanouts != 0 {
		t.Fatalf("replica-2 fan-out went through the group: %+v", hier)
	}
	if hier.WANBytes != flat.WANBytes {
		t.Fatalf("fallback WAN bytes %d != flat %d", hier.WANBytes, flat.WANBytes)
	}
}

// TestHierarchicalFaultRetryConverges: the chaos hook fails every
// member's first delivery; the multicast retries over the shrinking
// failed set and still converges with verified replicas.
func TestHierarchicalFaultRetryConverges(t *testing.T) {
	g := grid.TwoClusterWAN(2, 2)
	dg := g.NewDataGrid(datagrid.Config{
		Replicas:     3,
		Hierarchical: true,
		InjectFault: func(name string, attempt int) bool {
			return attempt == 1
		},
	})
	data := payload(7, 256<<10)
	if err := g.K.Run(func(p *vtime.Proc) {
		if err := dg.Put(p, 0, "flaky-tree", data); err != nil {
			t.Fatal(err)
		}
		dg.WaitSettled(p)
		if err := dg.VerifyReplicas("flaky-tree"); err != nil {
			t.Fatal(err)
		}
		// The cache release valve drops the settled groups without
		// touching the WAN accounting; the next fan-out re-provisions
		// transparently.
		wanBefore := dg.Stats().WANBytes
		if n := dg.ReleaseGroups(); n == 0 {
			t.Fatal("no cached groups to release")
		}
		if dg.Stats().WANBytes != wanBefore {
			t.Fatalf("releasing groups changed WAN accounting: %d -> %d", wanBefore, dg.Stats().WANBytes)
		}
		if err := dg.Put(p, 0, "flaky-tree-2", data); err != nil {
			t.Fatal(err)
		}
		dg.WaitSettled(p)
		if err := dg.VerifyReplicas("flaky-tree-2"); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(dg.JobErrors()) != 0 {
		t.Fatalf("job errors: %v", dg.JobErrors())
	}
	if dg.Stats().Retries == 0 || dg.Stats().Failures != 0 {
		t.Fatalf("stats: %+v", dg.Stats())
	}
	if dg.Stats().GroupFanouts == 0 {
		t.Fatalf("fan-out never went through the group: %+v", dg.Stats())
	}
}

// TestGetSwitchesSourceUnderWeather: a client GETs an object whose two
// replicas sit in different remote sites; once the link to the
// statically preferred holder degrades, the forecast ranking serves
// the GET from the healthy site instead (Stats.SourceSwitches), while
// the pre-degrade ranking matches the static one.
func TestGetSwitchesSourceUnderWeather(t *testing.T) {
	g := grid.DegradingWAN(1) // node 0 = site0, 1 = site1, 2 = site2
	g.EnableWeather()
	dg := g.NewDataGrid(datagrid.Config{Replicas: 2})
	ring := datagrid.NewRing(0)
	ring.Add(1, "site1")
	ring.Add(2, "site2")
	dg.SetRing(ring)
	data := payload(11, 1<<20)
	if err := g.K.Run(func(p *vtime.Proc) {
		if err := dg.Put(p, 0, "obj", data); err != nil {
			t.Fatal(err)
		}
		dg.WaitSettled(p)
		if hs := dg.Holders("obj"); len(hs) != 2 || hs[0] != 1 || hs[1] != 2 {
			t.Fatalf("holders = %v, want [1 2]", hs)
		}
		// Healthy: both remote sites forecast alike; no switch.
		if _, err := dg.Get(p, 0, "obj"); err != nil {
			t.Fatal(err)
		}
		if dg.Stats().SourceSwitches != 0 {
			t.Fatalf("healthy GET switched sources: %+v", dg.Stats())
		}
		// Past the degrade instant plus a probe cycle: site0-site1 is
		// degraded, site0-site2 is not.
		if now := p.Now(); vtime.Time(0).Add(grid.DegradeAt+2*time.Second) > now {
			p.Sleep(vtime.Time(0).Add(grid.DegradeAt + 2*time.Second).Sub(now))
		}
		if _, err := dg.Get(p, 0, "obj"); err != nil {
			t.Fatal(err)
		}
		if dg.Stats().SourceSwitches != 1 {
			t.Fatalf("degraded GET did not switch: %+v", dg.Stats())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveTransfersConfig: Config.Adaptive routes every transfer
// over adaptive session channels; the workload still settles and
// verifies.
func TestAdaptiveTransfersConfig(t *testing.T) {
	g := grid.TwoClusterWAN(2, 2)
	dg := g.NewDataGrid(datagrid.Config{Replicas: 3, Adaptive: true})
	data := payload(13, 2<<20)
	if err := g.K.Run(func(p *vtime.Proc) {
		if err := dg.Put(p, 0, "obj", data); err != nil {
			t.Fatal(err)
		}
		dg.WaitSettled(p)
		if err := dg.VerifyReplicas("obj"); err != nil {
			t.Fatal(err)
		}
		got, err := dg.Get(p, 3, "obj")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("adaptive GET corrupted the payload")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if g.Session().Stats().AdaptiveOpens == 0 {
		t.Fatal("no adaptive opens despite Config.Adaptive")
	}
}

// TestNodeStateChangedDoesBothHalves drives the detector callback by
// hand: a node reported down must stop being reachable AND stop being a
// placement target (its objects re-replicate elsewhere); reported up
// again it must be reachable AND back in the ring, in its own site's
// zone, so the original placement returns.
func TestNodeStateChangedDoesBothHalves(t *testing.T) {
	g := grid.Cluster(4)
	dg := g.NewDataGrid(datagrid.Config{Replicas: 2})
	contains := func(nodes []topology.NodeID, n topology.NodeID) bool {
		for _, m := range nodes {
			if m == n {
				return true
			}
		}
		return false
	}
	if err := g.K.Run(func(p *vtime.Proc) {
		if err := dg.Put(p, 0, "obj", payload(5, 64<<10)); err != nil {
			t.Fatal(err)
		}
		dg.WaitSettled(p)
		before, _ := dg.Meta("obj")
		original := append([]topology.NodeID(nil), before.Targets...)
		victim := original[0]

		dg.NodeStateChanged(victim, true)
		if !dg.NodeDown(victim) {
			t.Fatal("down: node still counts as reachable")
		}
		if meta, _ := dg.Meta("obj"); contains(meta.Targets, victim) || len(meta.Targets) != 2 {
			t.Fatalf("down: placement %v still targets node %d", meta.Targets, victim)
		}
		dg.WaitSettled(p)
		if err := dg.VerifyReplicas("obj"); err != nil {
			t.Fatalf("down: not re-replicated: %v", err)
		}

		dg.NodeStateChanged(victim, false)
		if dg.NodeDown(victim) {
			t.Fatal("up: node still marked down")
		}
		if meta, _ := dg.Meta("obj"); fmt.Sprint(meta.Targets) != fmt.Sprint(original) {
			t.Fatalf("up: placement %v, want the original %v back", meta.Targets, original)
		}
		dg.WaitSettled(p)
		if err := dg.VerifyReplicas("obj"); err != nil {
			t.Fatalf("up: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
