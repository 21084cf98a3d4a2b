package group_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"padico/internal/grid"
	"padico/internal/group"
	"padico/internal/iovec"
	"padico/internal/selector"
	"padico/internal/topology"
	"padico/internal/vtime"
)

func allNodes(g *grid.Grid) []topology.NodeID {
	out := make([]topology.NodeID, len(g.Topo.Nodes()))
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}

// TestTreeIsTwoTier pins the tree shape on a three-site star: exactly
// one WAN crossing per remote site (leader edges from the root), every
// member present exactly once, intra-site edges SAN-class.
func TestTreeIsTwoTier(t *testing.T) {
	g := grid.MultiSite(3, 2) // site0 {0,1}, site1 {2,3}, site2 {4,5}
	grp, err := g.NewGroup(allNodes(g), group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := grp.Tree(0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.WANCrossings() != 2 {
		t.Fatalf("WAN crossings = %d, want 2 (one per remote site)\n%s",
			tr.WANCrossings(), tr.String(g.Topo))
	}
	if len(tr.Edges()) != 5 {
		t.Fatalf("edges = %d, want n-1 = 5", len(tr.Edges()))
	}
	seen := map[topology.NodeID]bool{0: true}
	for _, e := range tr.Edges() {
		if seen[e.Child] {
			t.Fatalf("node %d reached twice", e.Child)
		}
		seen[e.Child] = true
		sameSite := g.Topo.SameSite(e.Parent, e.Child)
		if sameSite && e.Class != selector.PathSAN {
			t.Fatalf("intra-site edge %d->%d class %v", e.Parent, e.Child, e.Class)
		}
		if !sameSite && e.Class != selector.PathWAN {
			t.Fatalf("cross-site edge %d->%d class %v", e.Parent, e.Child, e.Class)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("tree spans %d members, want 6", len(seen))
	}
	// Cross-site edges connect leaders: root on one end, the remote
	// site's lowest member on the other.
	for _, e := range tr.Edges() {
		if e.Class != selector.PathWAN {
			continue
		}
		if e.Parent != 0 {
			t.Fatalf("leader edge %d->%d does not originate at the root tier", e.Parent, e.Child)
		}
		if l, _ := tr.Leader(g.Topo.Node(e.Child).Site); l != e.Child {
			t.Fatalf("leader edge targets %d, site leader is %d", e.Child, l)
		}
	}
	if tr.SubtreeSize(0) != 6 {
		t.Fatalf("root subtree = %d", tr.SubtreeSize(0))
	}
}

// TestTreeRootedAtNonLeader: the operation root acts as its own site's
// leader, so no intra-site hop precedes the WAN edges.
func TestTreeRootedAtNonLeader(t *testing.T) {
	g := grid.MultiSite(2, 3)
	grp, err := g.NewGroup(allNodes(g), group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := grp.Tree(2) // highest id of site0 — not the elected leader
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := tr.Leader("site0"); l != 2 {
		t.Fatalf("root-site leader = %d, want the root itself", l)
	}
	if _, ok := tr.Parent(2); ok {
		t.Fatal("root has a parent")
	}
	kids := tr.Children(2)
	if len(kids) == 0 || kids[0] != 3 {
		t.Fatalf("root children = %v, want the remote leader (3) first", kids)
	}
}

// TestMulticastDeliversEverywhere moves 2 MiB from node 0 to five other
// members across three sites and checks the byte-identical copies plus
// the headline economics: ~2 WAN payload crossings instead of 4.
func TestMulticastDeliversEverywhere(t *testing.T) {
	g := grid.MultiSite(3, 2)
	grp, err := g.NewGroup(allNodes(g), group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	size := 2 << 20
	data := make([]byte, size)
	rand.New(rand.NewSource(5)).Read(data)
	if err := g.K.Run(func(p *vtime.Proc) {
		got, err := grp.Multicast(p, 0, "obj", data, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 {
			t.Fatalf("delivered to %d members, want 5", len(got))
		}
		for n, b := range got {
			if !bytes.Equal(b, data) {
				t.Fatalf("member %d got %d bytes, corrupt or short", n, len(b))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	wan := grp.WANBytes()
	if wan < 2*int64(size) {
		t.Fatalf("WAN bytes = %d, want at least 2 payloads (%d)", wan, 2*size)
	}
	if wan > 2*int64(size)+(1<<16) {
		t.Fatalf("WAN bytes = %d — more than 2 payload crossings plus protocol slack", wan)
	}
	if grp.Stats().Multicasts != 1 {
		t.Fatalf("stats: %+v", grp.Stats())
	}
}

// TestMulticastInsideOneCluster: a single-site group never touches the
// WAN and still delivers.
func TestMulticastInsideOneCluster(t *testing.T) {
	g := grid.Cluster(4)
	grp, err := g.NewGroup(allNodes(g), group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("intra-cluster payload")
	if err := g.K.Run(func(p *vtime.Proc) {
		got, err := grp.Multicast(p, 1, "x", data, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("delivered = %d", len(got))
		}
		for _, b := range got {
			if !bytes.Equal(b, data) {
				t.Fatal("corrupt copy")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if grp.WANBytes() != 0 {
		t.Fatalf("WAN bytes = %d on a single-site group", grp.WANBytes())
	}
}

// TestSANEdgesReleasedBetweenOps pins the per-operation lifetime of
// SAN tree edges: the session layer's per-pair circuit is a serialized
// shared resource, so a completed multicast must leave it free for
// ordinary point-to-point sessions on the same pair.
func TestSANEdgesReleasedBetweenOps(t *testing.T) {
	g := grid.Cluster(3)
	grp, err := g.NewGroup(allNodes(g), group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.K.Run(func(p *vtime.Proc) {
		if _, err := grp.Multicast(p, 0, "a", []byte("payload"), 1); err != nil {
			t.Fatal(err)
		}
		// A pair the tree used (0->1) must be immediately openable.
		ch, err := g.Open(p, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Send(p, []byte("direct")); err != nil {
			t.Fatal(err)
		}
		if _, err := ch.Remote().Recv(p, 6); err != nil {
			t.Fatal(err)
		}
		ch.Close()
		ch.Remote().Close()
		// And a second multicast reuses the tree just as well.
		if _, err := grp.Multicast(p, 0, "b", []byte("payload2"), 1); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMulticastFaultAndRetry: an injected fault at one member fails
// only that member's subtree leaf; the retry (next attempt) over the
// surviving members converges.
func TestMulticastFaultAndRetry(t *testing.T) {
	g := grid.MultiSite(2, 2)
	victim := topology.NodeID(3)
	grp, err := g.NewGroup(allNodes(g), group.Config{
		InjectFault: func(tag string, member topology.NodeID, attempt int) bool {
			return member == victim && attempt == 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(9)).Read(data)
	if err := g.K.Run(func(p *vtime.Proc) {
		got, err := grp.Multicast(p, 0, "obj", data, 1)
		var merr *group.MulticastError
		if !errors.As(err, &merr) {
			t.Fatalf("want MulticastError, got %v", err)
		}
		if len(merr.Failed) != 1 || merr.Failed[0] != victim {
			t.Fatalf("failed = %v", merr.Failed)
		}
		if len(got) != 2 {
			t.Fatalf("partial delivery = %d members, want 2", len(got))
		}
		if _, ok := got[victim]; ok {
			t.Fatal("victim present in delivered set")
		}
		// Retry to the failed member only (as a replication scheduler
		// would): a fresh group over {root, victim}.
		rg, err := g.NewGroup([]topology.NodeID{0, victim}, group.Config{})
		if err != nil {
			t.Fatal(err)
		}
		got2, err := rg.Multicast(p, 0, "obj", data, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got2[victim], data) {
			t.Fatal("retry did not deliver")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReduceMatchesSerialFold checks the tree reduction against a
// serial fold, on sum and max.
func TestReduceMatchesSerialFold(t *testing.T) {
	g := grid.MultiSite(3, 2)
	grp, err := g.NewGroup(allNodes(g), group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	contrib := func(n topology.NodeID) []float64 {
		return []float64{float64(n), 1, float64(10 - n)}
	}
	if err := g.K.Run(func(p *vtime.Proc) {
		sum, err := grp.Reduce(p, 0, contrib, group.OpSum)
		if err != nil {
			t.Fatal(err)
		}
		if sum[0] != 15 || sum[1] != 6 || sum[2] != 45 {
			t.Fatalf("sum = %v", sum)
		}
		max, err := grp.Reduce(p, 2, contrib, group.OpMax)
		if err != nil {
			t.Fatal(err)
		}
		if max[0] != 5 || max[1] != 1 || max[2] != 10 {
			t.Fatalf("max = %v", max)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if grp.Stats().Reduces != 2 {
		t.Fatalf("stats: %+v", grp.Stats())
	}
}

// TestBarrierReuse runs three barriers back to back on the same group;
// each must complete and cost wide-area time (two tree traversals).
func TestReduceOps(t *testing.T) {
	if group.OpSum(2, 3) != 5 || group.OpMax(2, 3) != 3 {
		t.Fatal("reduce ops wrong")
	}
}

func TestBarrierReuse(t *testing.T) {
	g := grid.MultiSite(2, 2)
	grp, err := g.NewGroup(allNodes(g), group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.K.Run(func(p *vtime.Proc) {
		var last vtime.Time
		for i := 0; i < 3; i++ {
			if err := grp.Barrier(p); err != nil {
				t.Fatal(err)
			}
			now := p.Now()
			if now <= last {
				t.Fatalf("barrier %d cost no virtual time", i)
			}
			last = now
		}
	}); err != nil {
		t.Fatal(err)
	}
	if grp.Stats().Barriers != 3 {
		t.Fatalf("stats: %+v", grp.Stats())
	}
}

// TestGatherCollectsEveryMember gathers distinct payloads (including
// empty ones) from six members across three sites.
func TestGatherCollectsEveryMember(t *testing.T) {
	g := grid.MultiSite(3, 2)
	grp, err := g.NewGroup(allNodes(g), group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	contrib := func(n topology.NodeID) []byte {
		if n == 4 {
			return nil // empty contribution must survive the framing
		}
		return bytes.Repeat([]byte{byte(n)}, int(n)+1)
	}
	if err := g.K.Run(func(p *vtime.Proc) {
		got, err := grp.Gather(p, 1, contrib)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 6 {
			t.Fatalf("gathered %d members", len(got))
		}
		for n := topology.NodeID(0); n < 6; n++ {
			if !bytes.Equal(got[n], contrib(n)) {
				t.Fatalf("member %d payload = %v", n, got[n])
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupNeedsMembers pins constructor validation and dedup.
func TestGroupNeedsMembers(t *testing.T) {
	g := grid.Cluster(2)
	if _, err := g.NewGroup(nil, group.Config{}); !errors.Is(err, group.ErrNoMembers) {
		t.Fatalf("err = %v", err)
	}
	grp, err := g.NewGroup([]topology.NodeID{1, 0, 1, 0}, group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if grp.Size() != 2 {
		t.Fatalf("members = %v", grp.Members())
	}
	if _, err := grp.Tree(5); !errors.Is(err, group.ErrNotMember) {
		t.Fatalf("tree at non-member: %v", err)
	}
}

// TestMulticastRepeatRunBitIdentity pins the subsystem's determinism
// contract the same way netsim's tests do: the same multicast scenario
// on a fresh grid produces bit-identical virtual makespans and WAN
// byte counts on every run.
func TestMulticastRepeatRunBitIdentity(t *testing.T) {
	run := func() (vtime.Duration, int64) {
		g := grid.MultiSiteLoss(3, 2, 0.01)
		grp, err := g.NewGroup(allNodes(g), group.Config{})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 1<<20)
		rand.New(rand.NewSource(11)).Read(data)
		var makespan vtime.Duration
		if err := g.K.Run(func(p *vtime.Proc) {
			start := p.Now()
			if _, err := grp.Multicast(p, 0, "det", data, 1); err != nil {
				t.Fatal(err)
			}
			makespan = p.Now().Sub(start)
		}); err != nil {
			t.Fatal(err)
		}
		return makespan, grp.WANBytes()
	}
	m1, w1 := run()
	m2, w2 := run()
	if m1 != m2 || w1 != w2 {
		t.Fatalf("repeat run diverged: makespan %v vs %v, WAN bytes %d vs %d", m1, m2, w1, w2)
	}
	if m1 <= 0 || w1 <= 0 {
		t.Fatalf("degenerate run: makespan %v, WAN bytes %d", m1, w1)
	}
}

// TestWeatherRebuildsDegradedTree: a multicast caches its tree and WAN
// edges; when the weather publishes a degraded crossing on a leader
// edge's site pair, the next operation rebuilds the tree and
// re-provisions its edges under fresh decisions.
func TestWeatherRebuildsDegradedTree(t *testing.T) {
	g := grid.DegradingWAN(2) // site0 {0,1}, site1 {2,3}, site2 {4,5}
	g.EnableWeather()
	grp, err := g.NewGroup(allNodes(g), group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := payloadBytes(9, 256<<10)
	if err := g.K.Run(func(p *vtime.Proc) {
		if _, err := grp.Multicast(p, 0, "pre", data, 1); err != nil {
			t.Fatal(err)
		}
		opened := grp.Stats().EdgesOpened
		if grp.Stats().TreeRebuilds != 0 {
			t.Fatalf("tree rebuilt before any weather event: %+v", grp.Stats())
		}
		// Reuse while healthy: cached WAN edges, no rebuild.
		if _, err := grp.Multicast(p, 0, "pre2", data, 1); err != nil {
			t.Fatal(err)
		}
		if grp.Stats().EdgeReuses == 0 {
			t.Fatalf("no cached-edge reuse while healthy: %+v", grp.Stats())
		}
		// Ride past the degrade instant and its publication.
		p.Sleep(grid.DegradeAt + 2*time.Second - p.Now().Sub(0))
		if _, err := grp.Multicast(p, 0, "post", data, 1); err != nil {
			t.Fatal(err)
		}
		if grp.Stats().TreeRebuilds != 1 {
			t.Fatalf("TreeRebuilds = %d, want 1 (%+v)", grp.Stats().TreeRebuilds, grp.Stats())
		}
		if grp.Stats().EdgesOpened <= opened {
			t.Fatalf("degraded tree edges not re-provisioned: %+v", grp.Stats())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// payloadBytes returns deterministic pseudo-random bytes (local copy:
// the file's other helpers build payloads inline).
func payloadBytes(seed int64, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestRelayRejectsHostileSize: a multicast header whose u64 size does
// not fit an int (2^63 reads as negative) ends the relay the way a dead
// upstream does — it returns with no status — instead of panicking in
// make.
func TestRelayRejectsHostileSize(t *testing.T) {
	g := grid.Cluster(2)
	grp, err := g.NewGroup(allNodes(g), group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.K.Run(func(p *vtime.Proc) {
		ch, err := g.Open(p, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		hdr := iovec.NewWriter(nil).PutU16(3).PutU64(1 << 63).Put(make([]byte, 32)).PutU16(0).Bytes()
		if err := ch.Send(p, hdr, []byte("tag")); err != nil {
			t.Fatal(err)
		}
		if got := grp.RelayMulticast(p, 1, ch.Remote()); len(got) != 0 {
			t.Fatalf("relay delivered %d payloads", len(got))
		}
		ch.Remote().Close()
		ch.Close()
	}); err != nil {
		t.Fatal(err)
	}
}
