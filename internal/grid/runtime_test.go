package grid_test

import (
	"testing"
	"time"

	"padico/internal/grid"
	"padico/internal/ipstack"
	"padico/internal/topology"
	"padico/internal/vtime"
)

func TestMadRankLookup(t *testing.T) {
	k := vtime.NewKernel()
	g := topology.New()
	nw := g.AddNetwork("myri", topology.Myrinet, true, 250e6, time.Microsecond, 0, 0)
	n0 := g.AddNode("n0", "s")
	n1 := g.AddNode("n1", "s")
	g.Attach(n0, nw)
	g.Attach(n1, nw)
	st := ipstack.New(k)
	rt := grid.NewRuntime(k, n0, st.Host(n0.ID))
	rt.AttachMadIO(nw, nil, []topology.NodeID{n0.ID, n1.ID})
	if r, ok := rt.MadRank(nw, n1.ID); !ok || r != 1 {
		t.Fatalf("MadRank = %d, %v", r, ok)
	}
	if _, ok := rt.MadRank(nw, topology.NodeID(99)); ok {
		t.Fatal("unknown node resolved")
	}
	if ms := rt.Members(nw); len(ms) != 2 {
		t.Fatalf("members = %v", ms)
	}
	if err := k.Run(func(p *vtime.Proc) {}); err != nil {
		t.Fatal(err)
	}
}
