package datagrid_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"padico/internal/datagrid"
	"padico/internal/grid"
	"padico/internal/group"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// poolsLeak is set in -race builds (race_test.go), where the budgets of
// the pooled WAN stack mean nothing.
var poolsLeak bool

// allocatedBy runs fn once for lazy set-up (channels, circuits, pools)
// and returns the bytes the next rounds allocate.
func allocatedBy(rounds int, fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The copy budget of a transfer, pinned like TestSANCopyBudget: the
// chunk pumps lend their bytes to the session layer, so the one
// allocation a payload byte costs is the destination buffer it comes to
// rest in (1.0). A message substrate adds descriptors only; the WAN
// stack adds gsec's record buffers and TCP send blocks out of pools the
// garbage collector keeps emptying. A send-side clone or a staging
// buffer that creeps back in costs 1.0 or 0.25 and fails here.
func TestTransferAllocBudget(t *testing.T) {
	const size, rounds = 2 << 20, 8
	data := payload(71, size)
	sum := sha256.Sum256(data)
	cases := []struct {
		name     string
		build    func() *grid.Grid
		dst      topology.NodeID
		budget   float64
		payloads int
		multi    bool
		pooled   bool // crosses the WAN stack's iovec pools
	}{
		{name: "local pipe", build: func() *grid.Grid { return grid.Cluster(2) }, dst: 0, budget: 1.1, payloads: 1},
		{name: "SAN circuit", build: func() *grid.Grid { return grid.Cluster(2) }, dst: 1, budget: 1.1, payloads: 1},
		{name: "WAN pstreams+gsec", build: func() *grid.Grid { return grid.TwoClusterWAN(1, 1) }, dst: 1, budget: 1.8, payloads: 1, pooled: true},
		// Root + two SAN members here, a WAN leader + two SAN members there.
		{name: "hierarchical multicast", build: func() *grid.Grid { return grid.TwoClusterWAN(3, 3) }, budget: 1.4, payloads: 5, multi: true, pooled: true},
	}
	for _, c := range cases {
		if c.pooled && poolsLeak {
			t.Logf("%-22s skipped under the race detector", c.name)
			continue
		}
		g := c.build()
		var allocated uint64
		if err := g.K.Run(func(p *vtime.Proc) {
			dg := g.NewDataGrid(datagrid.Config{})
			once := func() {
				if _, err := dg.RunTransfer(p, 0, c.dst, "budget", data, sum); err != nil {
					t.Fatal(err)
				}
			}
			if c.multi {
				nodes := make([]topology.NodeID, len(g.Topo.Nodes()))
				for i := range nodes {
					nodes[i] = topology.NodeID(i)
				}
				grp, err := g.NewGroup(nodes, group.Config{})
				if err != nil {
					t.Fatal(err)
				}
				once = func() {
					got, err := grp.MulticastSum(p, 0, "budget", data, sum, 1)
					if err != nil || len(got) != c.payloads {
						t.Fatalf("multicast: %d copies, err %v", len(got), err)
					}
				}
			}
			allocated = allocatedBy(rounds, once)
		}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		perByte := float64(allocated) / float64(size*rounds*c.payloads)
		t.Logf("%-22s %.3f B allocated per payload byte delivered (budget %.1f)", c.name, perByte, c.budget)
		if perByte > c.budget {
			t.Errorf("%s allocates %.3f B per payload byte delivered, budget %.1f", c.name, perByte, c.budget)
		}
	}
}

func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xA5
	}
}

// lendGrids are the testbeds of the lending-contract tests: client 0 is
// a placement target, so the ingest rides the local pipe; the fan-out
// rides SAN circuits, or a group tree across the WAN.
var lendGrids = []struct {
	name string
	g    func() *grid.Grid
	cfg  datagrid.Config
}{
	{"pipe+circuit", func() *grid.Grid { return grid.Cluster(3) }, datagrid.Config{Replicas: 3}},
	{"pipe+tree", func() *grid.Grid { return grid.TwoClusterWAN(2, 2) }, datagrid.Config{Replicas: 4, Hierarchical: true}},
}

// checkReplicas fails unless every placement target holds, and every
// node Gets, exactly want.
func checkReplicas(t *testing.T, p *vtime.Proc, g *grid.Grid, dg *datagrid.DataGrid, name string, want []byte) {
	t.Helper()
	meta, ok := dg.Meta(name)
	if !ok {
		t.Fatalf("%s not catalogued", name)
	}
	for _, n := range meta.Targets {
		if got, ok := dg.ObjectOn(n, name); !ok || !bytes.Equal(got, want) {
			t.Errorf("replica of %s on node %d differs from what was Put (present=%v)", name, n, ok)
		}
	}
	for n := range g.Topo.Nodes() {
		if got, err := dg.Get(p, topology.NodeID(n), name); err != nil || !bytes.Equal(got, want) {
			t.Errorf("Get of %s from node %d: err=%v, identical=%v", name, n, err, bytes.Equal(got, want))
		}
	}
}

// The loan ends with the status frame. (i) A first attempt rejected by
// the receiver leaves lent views behind; the second stores byte-identical
// replicas all the same. (ii) Once Put has returned, the caller's buffer
// is the caller's again: scribbling over it while the fan-out is still
// running changes no replica and no later Get.
func TestLentBuffersSurviveRetryAndReuse(t *testing.T) {
	for _, c := range lendGrids {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/faultOnAttempt1=%v", c.name, faulty), func(t *testing.T) {
				g, cfg := c.g(), c.cfg
				if faulty {
					cfg.InjectFault = func(_ string, attempt int) bool { return attempt == 1 }
				}
				dg := g.NewDataGrid(cfg)
				data := payload(72, 768<<10)
				want := bytes.Clone(data)
				if err := g.K.Run(func(p *vtime.Proc) {
					if err := dg.Put(p, 0, "lent", data); err != nil {
						t.Fatal(err)
					}
					scribble(data)
					dg.WaitSettled(p)
					checkReplicas(t, p, g, dg, "lent", want)
				}); err != nil {
					t.Fatal(err)
				}
				if len(dg.JobErrors()) != 0 {
					t.Fatalf("job errors: %v", dg.JobErrors())
				}
				if faulty && dg.Stats().Retries == 0 {
					t.Fatalf("fault injected but no retries recorded: %+v", dg.Stats())
				}
			})
		}
	}
}

// (iii) A Put whose every attempt was rejected returns with receivers
// of the doomed attempts possibly still holding lent views. Scribbling
// over the buffer then must not panic anything, and nothing of the
// object may surface in the catalog or an engine.
func TestScribbleAfterFailedPut(t *testing.T) {
	for _, entry := range []topology.NodeID{0, 1} { // local pipe, SAN circuit
		g := grid.Cluster(2)
		dg := g.NewDataGrid(datagrid.Config{Replicas: 1,
			InjectFault: func(string, int) bool { return true }})
		ring := datagrid.NewRing(0)
		ring.Add(entry, "rennes")
		dg.SetRing(ring)
		data := payload(73, 640<<10)
		if err := g.K.Run(func(p *vtime.Proc) {
			if err := dg.Put(p, 0, "doomed", data); err == nil {
				t.Fatal("Put succeeded under a permanent fault")
			}
			scribble(data)
			p.Sleep(time.Second) // whatever the doomed attempts left running
			if _, ok := dg.Meta("doomed"); ok || len(dg.Holders("doomed")) != 0 {
				t.Errorf("entry %d: a rejected object surfaced (holders %v)", entry, dg.Holders("doomed"))
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// (iv) Write is not WriteLent: it ends the borrow before it returns, on
// every substrate. One buffer rewritten between eight Writes arrives as
// eight distinct contents — the pattern the weather probe relies on.
func TestWriteStillEndsTheBorrow(t *testing.T) {
	const n, writes = 4096, 8
	for _, dst := range []topology.NodeID{0, 1} { // local pipe, SAN circuit
		g := grid.Cluster(2)
		if err := g.K.Run(func(p *vtime.Proc) {
			ch, err := g.Open(p, 0, dst)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, n)
			for i := 0; i < writes; i++ {
				for j := range buf {
					buf[j] = byte(i)
				}
				if _, err := ch.Write(p, buf); err != nil {
					t.Fatal(err)
				}
			}
			scribble(buf)
			got := make([]byte, n)
			for i := 0; i < writes; i++ {
				if _, err := ch.Remote().ReadFull(p, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, n)) {
					t.Errorf("dst %d: write %d arrived as %d…, the buffer was still borrowed", dst, i, got[0])
				}
			}
			ch.Close()
			ch.Remote().Close()
		}); err != nil {
			t.Fatal(err)
		}
	}
}
