package datagrid_test

import (
	"bytes"
	"fmt"
	"testing"

	"padico/internal/datagrid"
	"padico/internal/grid"
	"padico/internal/iovec"
	"padico/internal/store"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// sitesOf splits an object's placement by site: the holders co-sited
// with node 0 and the others, each in placement order.
func sitesOf(g *grid.Grid, targets []topology.NodeID) (siteA, siteB []topology.NodeID) {
	for _, t := range targets {
		if g.Topo.SameSite(0, t) {
			siteA = append(siteA, t)
		} else {
			siteB = append(siteB, t)
		}
	}
	return siteA, siteB
}

// objectSplit returns an object name whose placement puts exactly big
// replicas in one site and the rest in the other.
func objectSplit(t *testing.T, g *grid.Grid, dg *datagrid.DataGrid, replicas, big int) string {
	t.Helper()
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("obj-%d", i)
		a, b := sitesOf(g, dg.Ring().Place(name, replicas))
		if len(a) == big || len(b) == big {
			return name
		}
	}
	t.Fatalf("no object name places %d of %d replicas in one site", big, replicas)
	return ""
}

// TestHashBudget pins who hashes what: the digest is computed once when
// the object is born, checked once wherever its bytes land, and never
// re-derived by a sender, the scheduler or the repair scan. Put +
// WaitSettled + one Get of an N-byte object at replica factor R hashes
// exactly (1 + R + 1)·N bytes; the audit pass hashes every replica.
func TestHashBudget(t *testing.T) {
	const size, replicas = 384 << 10, 3
	for _, hier := range []bool{false, true} {
		name := "flat"
		if hier {
			name = "hierarchical"
		}
		t.Run(name, func(t *testing.T) {
			withEngines(t, func(t *testing.T, engine store.Factory) {
				g := grid.TwoClusterWAN(3, 3)
				dg := g.NewDataGrid(datagrid.Config{Replicas: replicas, Hierarchical: hier, Engine: engine})
				data := payload(15, size)
				// Write from the site holding one replica, so the other two
				// are a wide-area fan-out a spanning tree can improve.
				obj := objectSplit(t, g, dg, replicas, replicas-1)
				a, b := sitesOf(g, dg.Ring().Place(obj, replicas))
				writer, reader := a[0], b[0]
				if len(b) == 1 {
					writer, reader = b[0], a[0]
				}
				if err := g.K.Run(func(p *vtime.Proc) {
					if err := dg.Put(p, writer, obj, data); err != nil {
						t.Fatal(err)
					}
					dg.WaitSettled(p)
					got, err := dg.Get(p, reader, obj)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, data) {
						t.Fatal("GET returned different bytes")
					}
					if h := dg.HashedBytes(); h != (1+replicas+1)*size {
						t.Fatalf("put+settle+get hashed %d bytes, want (1+%d+1)·%d = %d",
							h, replicas, size, (1+replicas+1)*size)
					}
					// A converged catalog costs the repair scan no hashing.
					before := dg.HashedBytes()
					for pass := 0; pass < 2; pass++ {
						if n := dg.RepairNow(p); n != 0 {
							t.Fatalf("repair pass %d scheduled %d targets on a converged catalog", pass, n)
						}
					}
					if d := dg.HashedBytes() - before; d != 0 {
						t.Fatalf("repair scan hashed %d bytes", d)
					}
					// The audit is a real pass over every replica.
					if err := dg.VerifyReplicas(obj); err != nil {
						t.Fatal(err)
					}
					if d := dg.HashedBytes() - before; d != replicas*size {
						t.Fatalf("VerifyReplicas hashed %d bytes, want %d", d, replicas*size)
					}
				}); err != nil {
					t.Fatal(err)
				}
				if fanouts := dg.Stats().GroupFanouts; hier != (fanouts > 0) {
					t.Fatalf("hierarchical=%v but group fan-outs = %d", hier, fanouts)
				}
				if s := dg.Stats(); s.Retries != 0 || s.Failures != 0 {
					t.Fatalf("stats: %+v", s)
				}
			})
		})
	}
}

// TestGetSkipsStaleReplica: a target that was down during an overwrite
// and is marked up again still holds the old version. GET must not
// spend a transfer on it — the nearest holder of the catalogued version
// serves, in one job.
func TestGetSkipsStaleReplica(t *testing.T) {
	withEngines(t, func(t *testing.T, engine store.Factory) {
		g := grid.TwoClusterWAN(2, 2)
		dg := g.NewDataGrid(datagrid.Config{Replicas: 2, Engine: engine})
		v1, v2 := payload(21, 128<<10), payload(22, 128<<10)
		if err := g.K.Run(func(p *vtime.Proc) {
			if err := dg.Put(p, 0, "versioned", v1); err != nil {
				t.Fatal(err)
			}
			dg.WaitSettled(p)
			_, remote := sitesOf(g, dg.Holders("versioned"))
			if len(remote) != 1 {
				t.Fatalf("holders %v: want one per site", dg.Holders("versioned"))
			}
			stale := remote[0]
			dg.MarkDown(stale)
			if err := dg.Put(p, 0, "versioned", v2); err != nil {
				t.Fatal(err)
			}
			dg.WaitSettled(p)
			dg.MarkUp(stale)
			// The stale holder's SAN neighbour: the old version is the
			// closest copy by far.
			neighbour := topology.NodeID(-1)
			for _, n := range g.Topo.Nodes() {
				if n.ID != stale && g.Topo.SameSite(n.ID, stale) {
					neighbour = n.ID
				}
			}
			jobs := dg.Stats().Jobs
			got, err := dg.Get(p, neighbour, "versioned")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, v2) {
				t.Fatal("GET did not return the new version")
			}
			if d := dg.Stats().Jobs - jobs; d != 1 {
				t.Fatalf("GET ran %d transfers, want 1 (the stale replica must not be tried)", d)
			}
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRottenSourceIsQuarantinedNotRetried: rot met outside the auditor.
// The wire header carries the catalogued digest, so a rotten source is
// rejected where its bytes land; the sender then checks its own view,
// quarantines the replica through the auditor's hinge and the request
// re-sources — no second attempt from the same bytes, no failed job.
func TestRottenSourceIsQuarantinedNotRetried(t *testing.T) {
	const size = 192 << 10
	// settle puts one object, named so that big of its replicas share a
	// site, and returns its holders split by site, the larger side first.
	settle := func(t *testing.T, p *vtime.Proc, g *grid.Grid, dg *datagrid.DataGrid, big int, data []byte) (obj string, near, far []topology.NodeID) {
		obj = objectSplit(t, g, dg, dg.Config().Replicas, big)
		if err := dg.Put(p, 0, obj, data); err != nil {
			t.Fatal(err)
		}
		dg.WaitSettled(p)
		near, far = sitesOf(g, dg.Holders(obj))
		if len(far) > len(near) {
			near, far = far, near
		}
		return obj, near, far
	}
	// restored runs the repair loop to completion and checks the object
	// is back at full, verified replication with exactly one quarantine.
	restored := func(t *testing.T, p *vtime.Proc, dg *datagrid.DataGrid, obj string) {
		for dg.RepairNow(p) > 0 {
			dg.WaitSettled(p)
		}
		if err := dg.VerifyReplicas(obj); err != nil {
			t.Fatal(err)
		}
		if hs := dg.Holders(obj); len(hs) != dg.Config().Replicas {
			t.Fatalf("holders after repair = %v, want %d", hs, dg.Config().Replicas)
		}
		if errs := dg.JobErrors(); len(errs) != 0 {
			t.Fatalf("job errors: %v", errs)
		}
		if s := dg.Stats(); s.Quarantines != 1 || s.Failures != 0 {
			t.Fatalf("stats: %+v", s)
		}
	}

	t.Run("get", func(t *testing.T) {
		withEngines(t, func(t *testing.T, engine store.Factory) {
			g := grid.TwoClusterWAN(3, 3)
			dg := g.NewDataGrid(datagrid.Config{Replicas: 3, Engine: engine})
			data := payload(31, size)
			if err := g.K.Run(func(p *vtime.Proc) {
				obj, near, _ := settle(t, p, g, dg, 2, data)
				rotten := near[0]
				if !dg.EngineOn(rotten).Corrupt(obj) {
					t.Fatal("could not corrupt the replica")
				}
				// The rotten holder reads its own copy first.
				got, err := dg.Get(p, rotten, obj)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("GET returned rotten bytes")
				}
				if s := dg.Stats(); s.Quarantines != 1 || s.Retries > 1 {
					t.Fatalf("after GET: %+v", s)
				}
				if _, ok := dg.ObjectOn(rotten, obj); ok {
					t.Fatal("rotten replica still in service")
				}
				restored(t, p, dg, obj)
			}); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("job", func(t *testing.T) {
		withEngines(t, func(t *testing.T, engine store.Factory) {
			g := grid.TwoClusterWAN(3, 3)
			dg := g.NewDataGrid(datagrid.Config{Replicas: 3, Engine: engine})
			data := payload(32, size)
			if err := g.K.Run(func(p *vtime.Proc) {
				obj, near, _ := settle(t, p, g, dg, 2, data)
				// Two holders share a site: one rots, the other loses its
				// copy, so the repair's nearest source is the rotten one.
				rotten, missing := near[0], near[1]
				dg.EngineOn(rotten).Corrupt(obj)
				dg.EngineOn(missing).Delete(p, obj)
				if n := dg.RepairNow(p); n != 1 {
					t.Fatalf("repair scheduled %d targets, want 1", n)
				}
				dg.WaitSettled(p)
				if got, ok := dg.ObjectOn(missing, obj); !ok || !bytes.Equal(got, data) {
					t.Fatal("repair from a rotten source did not land the right bytes")
				}
				if s := dg.Stats(); s.Quarantines != 1 || s.Retries > 1 {
					t.Fatalf("after repair job: %+v", s)
				}
				restored(t, p, dg, obj)
			}); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("fan-out", func(t *testing.T) {
		withEngines(t, func(t *testing.T, engine store.Factory) {
			g := grid.TwoClusterWAN(3, 3)
			dg := g.NewDataGrid(datagrid.Config{Replicas: 4, Hierarchical: true, Engine: engine})
			data := payload(33, size)
			if err := g.K.Run(func(p *vtime.Proc) {
				obj, near, far := settle(t, p, g, dg, 2, data)
				// One site lost both copies; of the two sources left, the
				// one the repair ranks first is rotten. The multicast it
				// roots is rejected by every member.
				dg.EngineOn(near[0]).Corrupt(obj)
				for _, n := range far {
					dg.EngineOn(n).Delete(p, obj)
				}
				fanouts := dg.Stats().GroupFanouts
				if n := dg.RepairNow(p); n != 2 {
					t.Fatalf("repair scheduled %d targets, want 2", n)
				}
				dg.WaitSettled(p)
				for _, n := range far {
					if got, ok := dg.ObjectOn(n, obj); !ok || !bytes.Equal(got, data) {
						t.Fatalf("node %d: fan-out from a rotten root did not land the right bytes", n)
					}
				}
				if s := dg.Stats(); s.Quarantines != 1 || s.Retries > 1 || s.GroupFanouts != fanouts+1 {
					t.Fatalf("after fan-out repair: %+v", s)
				}
				restored(t, p, dg, obj)
			}); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestReceiverRejectsHostileSize: a transfer header whose u64 size does
// not fit an int (2^63 reads as negative) ends the receiver the way a
// dead sender does — it returns and closes — instead of panicking in
// make.
func TestReceiverRejectsHostileSize(t *testing.T) {
	g := grid.Cluster(2)
	dg := g.NewDataGrid(datagrid.Config{})
	if err := g.K.Run(func(p *vtime.Proc) {
		ch, err := g.Open(p, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		hdr := iovec.NewWriter(nil).PutU16(3).PutU64(1 << 63).Put(make([]byte, 32)).Bytes()
		if err := ch.Send(p, hdr, []byte("obj")); err != nil {
			t.Fatal(err)
		}
		if got := dg.RecvTransfer(p, ch.Remote()); len(got) != 0 {
			t.Fatalf("accepted %d payloads", len(got))
		}
		if _, err := ch.Read(p, make([]byte, 1)); err == nil {
			t.Fatal("the receiver did not close its end")
		}
		ch.Close()
	}); err != nil {
		t.Fatal(err)
	}
}
