// Package faults is the failure-injection layer of the testbed: node
// crashes, whole-site power loss, and WAN partitions with later heals,
// all as deterministic virtual-time kernel events. The injector is the
// ground truth of what is broken; the detector is the observer that
// turns that ground truth into *detected* transitions after a
// configurable sweep interval — the gap between the two is exactly the
// detection latency the recovery benchmarks report.
//
// The injector only pulls levers the stack already has: a node crash is
// ipstack.Stack.KillHost (every TCP conn on both ends errors out
// promptly) plus session.Manager.KillNode (message channels — local
// pipes, SAN circuits — fail with ErrPeerDown); a partition is
// netsim.Hop.SetDown on the named core hops, which the weather service
// observes through its probes and the selector heals around.
//
// Liveness has two holders. The injector keeps the ground truth (Down,
// DownNodes); the datagrid keeps the detected view, fed by a Detector
// (DataGrid.NodeStateChanged), so its reaction pays the same detection
// delay a real deployment would. Groups keep none: a group's members
// are the list its creator passes.
package faults

import (
	"slices"
	"time"

	"padico/internal/grid"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// Listener observes liveness transitions: down=true when the node
// became unreachable (crash or partition), down=false when a partition
// healed. Crashed nodes never come back.
type Listener func(n topology.NodeID, down bool)

// Injector schedules and applies failures on one testbed. All methods
// run to completion in kernel context and are deterministic; ordering
// inside multi-node events (site blackouts) is node-id order.
type Injector struct {
	g   *grid.Grid
	tel *telemetry.Hub
	// down is the ground truth of unreachable nodes; crashed marks the
	// subset whose hosts are dead for good (power loss, not partition).
	down    map[topology.NodeID]bool
	crashed map[topology.NodeID]bool
}

// NewInjector binds an injector to a testbed. Attach telemetry
// (grid.Telemetry) before constructing it if fault instants should
// land in the flight ring and trace.
func NewInjector(g *grid.Grid) *Injector {
	return &Injector{
		g:       g,
		tel:     telemetry.For(g.K),
		down:    make(map[topology.NodeID]bool),
		crashed: make(map[topology.NodeID]bool),
	}
}

// Down reports whether a node is currently unreachable.
func (in *Injector) Down(n topology.NodeID) bool { return in.down[n] }

// DownNodes returns the currently unreachable nodes, sorted.
func (in *Injector) DownNodes() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(in.down))
	for n := range in.down {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// transition flips one node's liveness.
func (in *Injector) transition(n topology.NodeID, down bool) {
	if down {
		in.down[n] = true
	} else {
		delete(in.down, n)
	}
}

// CrashNode kills one node for good: its host drops all traffic, every
// TCP connection touching it errors out on both ends, and every
// session channel to or from it fails with session.ErrPeerDown. A
// crashed node never heals.
func (in *Injector) CrashNode(n topology.NodeID) {
	if in.crashed[n] {
		return
	}
	in.crashed[n] = true
	in.tel.Note("faults", "node crash", int(n), 0, 0)
	if in.tel.Tracing() {
		in.tel.Instant("faults", "node_crash", int(n)).End()
	}
	in.g.Stack.KillHost(n)
	in.g.Session().KillNode(n)
	in.transition(n, true)
}

// siteNodes returns a site's node ids, sorted.
func (in *Injector) siteNodes(site string) []topology.NodeID {
	var out []topology.NodeID
	for _, nd := range in.g.Topo.Nodes() {
		if nd.Site == site {
			out = append(out, nd.ID)
		}
	}
	slices.Sort(out)
	return out
}

// CrashSite is a site power loss: every node of the site crashes, in
// id order. It returns the nodes killed.
func (in *Injector) CrashSite(site string) []topology.NodeID {
	ns := in.siteNodes(site)
	in.tel.Note("faults", "site blackout: "+site, -1, int64(len(ns)), 0)
	if in.tel.Tracing() {
		in.tel.Instant("faults", "site_blackout", -1).Str("site", site).End()
	}
	for _, n := range ns {
		in.CrashNode(n)
	}
	return ns
}

// setCores flips the named core hops (grid.CoreHops keys) down or up.
// Unknown names panic: a typo silently partitioning nothing would make
// the whole scenario vacuous.
func (in *Injector) setCores(down bool, cores []string) {
	for _, name := range cores {
		hop := in.g.CoreHop(name)
		if hop == nil {
			panic("faults: unknown core hop " + name)
		}
		hop.SetDown(down)
		state := int64(0)
		if down {
			state = 1
		}
		in.tel.Note("faults", "core "+name+" set", -1, state, 0)
	}
}

// PartitionCores takes the named WAN core hops down: every packet
// queued onto them is dropped until HealCores. Nodes stay alive — a
// pure network partition, visible to TCP as loss and to the weather
// service as probe failures.
func (in *Injector) PartitionCores(cores ...string) {
	if in.tel.Tracing() {
		in.tel.Instant("faults", "partition", -1).End()
	}
	in.setCores(true, cores)
}

// HealCores restores previously partitioned core hops.
func (in *Injector) HealCores(cores ...string) {
	if in.tel.Tracing() {
		in.tel.Instant("faults", "heal", -1).End()
	}
	in.setCores(false, cores)
}

// PartitionSite cuts a whole site off: its WAN cores (named by the
// caller, e.g. "core:vthd:site0+site1") go down and its nodes are
// declared unreachable (Down). HealSite reverses it — unlike a
// crash, the site's hosts and their stored state survive.
func (in *Injector) PartitionSite(site string, cores ...string) {
	in.tel.Note("faults", "site partitioned: "+site, -1, int64(len(cores)), 0)
	in.setCores(true, cores)
	for _, n := range in.siteNodes(site) {
		in.transition(n, true)
	}
}

// HealSite restores a partitioned site: cores up, nodes reachable
// again (crashed nodes stay down — power loss does not heal).
func (in *Injector) HealSite(site string, cores ...string) {
	in.tel.Note("faults", "site healed: "+site, -1, int64(len(cores)), 0)
	in.setCores(false, cores)
	for _, n := range in.siteNodes(site) {
		if !in.crashed[n] {
			in.transition(n, false)
		}
	}
}

// ScheduleCrash arms a node crash at an absolute virtual time.
func (in *Injector) ScheduleCrash(at vtime.Time, n topology.NodeID) {
	in.g.K.At(at, func() { in.CrashNode(n) })
}

// ---------------------------------------------------------------------
// Detector: the observer side.

// Detector turns the injector's ground truth into detected transitions
// after a sweep interval — the failure-detection latency. The datagrid
// (down-set and ring) listens here, so its healing starts when a real
// monitor would have noticed, not at the fault instant itself. Sweeps
// and transition callbacks run on one daemon proc in node-id order, so
// reactions are deterministic.
type Detector struct {
	in       *Injector
	interval time.Duration
	fn       Listener
	seen     map[topology.NodeID]bool
	started  bool
}

// NewDetector builds a detector sweeping every interval (default
// 500 ms of virtual time).
func NewDetector(in *Injector, interval time.Duration, fn Listener) *Detector {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	return &Detector{in: in, interval: interval, fn: fn, seen: make(map[topology.NodeID]bool)}
}

// Start launches the sweep daemon (idempotent). Daemons do not hold
// the kernel alive: a run with no other work still terminates.
func (d *Detector) Start() {
	if d.started {
		return
	}
	d.started = true
	d.in.g.K.GoDaemon("fault-detector", func(p *vtime.Proc) {
		for {
			p.Sleep(d.interval)
			d.sweep()
		}
	})
}

// sweep fires the callback for every liveness transition since the
// last sweep, in node-id order.
func (d *Detector) sweep() {
	set := make(map[topology.NodeID]bool, len(d.seen))
	for n := range d.seen {
		set[n] = true
	}
	for _, n := range d.in.DownNodes() {
		set[n] = true
	}
	ids := make([]topology.NodeID, 0, len(set))
	for n := range set {
		ids = append(ids, n)
	}
	slices.Sort(ids)
	for _, n := range ids {
		cur := d.in.Down(n)
		if cur == d.seen[n] {
			continue
		}
		if cur {
			d.seen[n] = true
		} else {
			delete(d.seen, n)
		}
		state := int64(0)
		if cur {
			state = 1
		}
		d.in.tel.Note("faults", "detected transition", int(n), state, 0)
		if d.fn != nil {
			d.fn(n, cur)
		}
	}
}
