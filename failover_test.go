// Failure-scenario gates: the acceptance tests of the fault-injection
// layer. A crashed peer must surface as a prompt typed error at every
// level — a session Recv blocked on a dead node wakes within a bounded
// virtual-time window (never a kernel deadlock), and a collective whose
// site leader dies mid-multicast fails fast and succeeds on retry over
// the re-elected tree.
package padico

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"padico/internal/faults"
	"padico/internal/grid"
	"padico/internal/group"
	"padico/internal/session"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// TestSessionPeerDeathUnblocksRecv crashes the peer of two blocked
// receivers — one on a WAN vlink channel, one on an intra-site message
// channel — and requires both to wake with an error within five virtual
// seconds of the crash, with the message-channel error typed
// session.ErrPeerDown.
func TestSessionPeerDeathUnblocksRecv(t *testing.T) {
	g := grid.MultiSiteLoss(2, 2, 0) // site0 {0,1}, site1 {2,3}
	inj := faults.NewInjector(g)
	var wanErr, sanErr error
	var crashAt, wanWake, sanWake vtime.Time
	if err := g.K.Run(func(p *vtime.Proc) {
		wan, err := g.Open(p, 0, 2) // cross-site: vlink substrate
		if err != nil {
			t.Fatalf("open WAN channel: %v", err)
		}
		san, err := g.Open(p, 0, 1) // intra-site: message substrate
		if err != nil {
			t.Fatalf("open SAN channel: %v", err)
		}
		done := vtime.NewWaitGroup("receivers")
		done.Add(2)
		g.K.Go("recv-wan", func(q *vtime.Proc) {
			defer done.Done()
			_, wanErr = wan.Recv(q, 8)
			wanWake = g.K.Now()
		})
		g.K.Go("recv-san", func(q *vtime.Proc) {
			defer done.Done()
			_, sanErr = san.Recv(q, 8)
			sanWake = g.K.Now()
		})
		p.Sleep(100 * time.Millisecond) // both receivers are parked
		crashAt = g.K.Now()
		inj.CrashNode(2)
		inj.CrashNode(1)
		done.Wait(p)
	}); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	if wanErr == nil || sanErr == nil {
		t.Fatalf("blocked Recv survived a peer crash: wan=%v san=%v", wanErr, sanErr)
	}
	if !errors.Is(sanErr, session.ErrPeerDown) {
		t.Fatalf("message-channel error = %v, want session.ErrPeerDown", sanErr)
	}
	bound := crashAt.Add(5 * time.Second)
	if wanWake > bound || sanWake > bound {
		t.Fatalf("peer death surfaced too late: wan at %v, san at %v, crash at %v",
			wanWake, sanWake, crashAt)
	}
}

// TestGroupLeaderDeathMidCollective kills a site leader while a
// multicast is streaming through it. The in-flight operation must
// return a typed error promptly; the retry runs over a group of the
// survivors, whose tree re-elects the site's leader (next-lowest id of
// the site takes over), and delivers to every surviving member.
func TestGroupLeaderDeathMidCollective(t *testing.T) {
	g := grid.MultiSiteLoss(3, 2, 0) // site0 {0,1}, site1 {2,3}, site2 {4,5}
	inj := faults.NewInjector(g)
	members := []topology.NodeID{0, 1, 2, 3, 4, 5}
	if err := g.K.Run(func(p *vtime.Proc) {
		grp, err := group.New(g.K, g.Topo, g.Session(), members, group.Config{})
		if err != nil {
			t.Fatalf("group: %v", err)
		}
		tr, err := grp.Tree(0)
		if err != nil {
			t.Fatalf("tree: %v", err)
		}
		if leader, ok := tr.Leader("site1"); !ok || leader != 2 {
			t.Fatalf("site1 leader = %d, want 2", leader)
		}
		// Warm the tree's edges so the crash hits an in-flight transfer,
		// not a channel open.
		if _, err := grp.Multicast(p, 0, "warm", []byte("warmup"), 1); err != nil {
			t.Fatalf("warmup multicast: %v", err)
		}
		// 8 MiB over a ~12 MB/s WAN keeps the multicast busy well past
		// the crash instant.
		payload := bytes.Repeat([]byte{0xAB}, 8<<20)
		t0 := g.K.Now()
		inj.ScheduleCrash(t0.Add(100*time.Millisecond), 2)
		_, err = grp.Multicast(p, 0, "big", payload, 1)
		if err == nil {
			t.Fatal("multicast through a crashed leader reported success")
		}
		var mErr *group.MulticastError
		if !errors.Is(err, group.ErrEdgeFailed) && !errors.As(err, &mErr) {
			t.Fatalf("multicast error = %v, want ErrEdgeFailed or MulticastError", err)
		}
		if elapsed := g.K.Now().Sub(t0); elapsed > 30*time.Second {
			t.Fatalf("leader death took %v to surface", elapsed)
		}
		grp.Close()
		survivors := []topology.NodeID{0, 1, 3, 4, 5}
		grp, err = group.New(g.K, g.Topo, g.Session(), survivors, group.Config{})
		if err != nil {
			t.Fatalf("survivor group: %v", err)
		}
		tr, err = grp.Tree(0)
		if err != nil {
			t.Fatalf("rebuilt tree: %v", err)
		}
		if leader, ok := tr.Leader("site1"); !ok || leader != 3 {
			t.Fatalf("re-elected site1 leader = %d, want 3", leader)
		}
		got, err := grp.Multicast(p, 0, "big", payload, 2)
		if err != nil {
			t.Fatalf("retry multicast on re-elected tree: %v", err)
		}
		for _, m := range survivors {
			if m == 0 {
				continue
			}
			if !bytes.Equal(got[m], payload) {
				t.Fatalf("member %d missing or corrupt after retry", m)
			}
		}
	}); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}
