package datagrid

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"padico/internal/group"
	"padico/internal/model"
	"padico/internal/selector"
	"padico/internal/session"
	"padico/internal/store"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// Exported errors.
var (
	ErrNoObject   = errors.New("datagrid: no such object")
	ErrNoReplica  = errors.New("datagrid: no reachable replica")
	ErrJobFailed  = errors.New("datagrid: transfer failed after retries")
	ErrEmptyRing  = errors.New("datagrid: ring has no members")
	ErrBadPayload = errors.New("datagrid: replica checksum mismatch")
)

// Config tunes a DataGrid instance. Zero values select defaults.
type Config struct {
	// Replicas is the replica factor per object (default 2).
	Replicas int
	// Streams overrides the selector's WAN stripe count for bulk
	// transfers (0 keeps the testbed preference; 1 disables striping).
	Streams int
	// Hierarchical routes Put replication fan-out through
	// group.Multicast over a site-aware spanning tree — one WAN
	// crossing per remote site instead of one per remote replica. The
	// sha256 end-to-end verification is unchanged; failed members are
	// retried with a smaller group. Fan-outs the tree cannot improve
	// (at most one replica per remote site) keep the point-to-point
	// path: a tree with as many WAN edges as a flat fan-out saves no
	// bytes and would only serialize on shared substrate.
	Hierarchical bool
	// RetryTimeout bounds the wait for a transfer status before the
	// attempt is declared lost (default 120 s of virtual time).
	RetryTimeout time.Duration
	// Adaptive opens every transfer channel with session.WithAdaptive:
	// a transfer whose path degrades (or dies) mid-flight re-selects
	// and resumes instead of burning a retry.
	Adaptive bool
	// Weather, when set, refines GET source selection: within a
	// proximity class, replicas are served from the holder with the
	// best forecast bandwidth (Stats.SourceSwitches counts GETs whose
	// source differed from the static ranking). grid.NewDataGrid wires
	// the testbed's weather service automatically.
	Weather PairOracle
	// InjectFault, when set, is consulted on the receiver side after a
	// successful reception (chaos hook for retry testing): returning
	// true discards the copy and reports a failure to the sender.
	InjectFault func(name string, attempt int) bool
	// Engine selects the per-node storage backend (default
	// store.MemoryFactory, the in-memory map — byte-identical to the
	// pre-store datagrid). grid.NewPackDataGrid wires the durable pack
	// engine.
	Engine store.Factory
	// AuditInterval, when positive, runs a background auditor per node
	// engine: every interval of virtual time the node's needles are
	// scrubbed against their checksums and corrupt ones quarantined
	// (which kicks the repair loop). Zero starts no daemons; AuditNow
	// still scrubs synchronously.
	AuditInterval time.Duration
	// RepairInterval, when positive, runs the anti-entropy repair
	// daemon: every interval — or immediately after an audit
	// quarantine — the catalog is scanned for under-replicated objects
	// and repair transfers are scheduled over the normal data path.
	// Zero starts no daemon; RepairNow still repairs synchronously.
	RepairInterval time.Duration
}

// Transfer shape. Nothing ever set these, so they are constants.
const (
	// chunkBytes is the transfer unit.
	chunkBytes = 256 << 10
	// windowBytes bounds unacknowledged in-flight bytes per transfer —
	// the per-transfer flow-control window.
	windowBytes = 1 << 20
	// schedWorkers is the replication scheduler's concurrency.
	schedWorkers = 4
	// maxRetries bounds attempts per transfer job.
	maxRetries = 3
)

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = 120 * time.Second
	}
	return c
}

// PairOracle is the slice of the weather service the datagrid
// consults: the best forecast bandwidth between two nodes, whatever
// network it rides (internal/weather's Service implements it).
type PairOracle interface {
	PairBandwidth(a, b topology.NodeID) (float64, bool)
}

// ObjectMeta is one replica-catalog entry.
type ObjectMeta struct {
	Name    string
	Size    int
	Sum     [32]byte
	Version int
	// Targets is the ring placement, primary first.
	Targets []topology.NodeID
}

// Stats counts datagrid activity (virtual-time side effects are charged
// where they happen; these are for reporting). Fields are bumped with
// atomic adds and read race-free through DataGrid.Stats; with telemetry
// attached they join the unified registry under "datagrid.".
type Stats struct {
	Puts, Gets       int64
	Jobs, Retries    int64
	Failures         int64
	BytesMoved       int64
	CircuitTransfers int64
	VLinkTransfers   int64 `metric:"vlink_transfers"`
	LocalTransfers   int64
	// GroupFanouts counts replication jobs served by one hierarchical
	// multicast instead of per-target transfers.
	GroupFanouts int64
	// WANBytes counts every byte this datagrid moved across wide-area
	// links, both directions (payload plus credits/statuses), whatever
	// the fan-out strategy — the currency hierarchical fan-out saves.
	WANBytes int64
	// SourceSwitches counts GETs whose replica source was switched
	// away from the static proximity ranking by forecast bandwidth.
	SourceSwitches int64
	// Deletes counts DataGrid.Delete operations (each fans out to
	// every holder's engine).
	Deletes int64
	// Quarantines counts needles the audit path took out of service.
	Quarantines int64
	// Repairs counts completed anti-entropy repair transfers — copies
	// restored after a quarantine or injected fault.
	Repairs int64
	// NodesDown gauges ring nodes currently marked unreachable by the
	// failure detector (MarkDown/MarkUp).
	NodesDown int64
	// LostObjects counts repair passes that found an object with no
	// reachable fresh replica — one bump per pass per object, so
	// availability SLOs burn for the whole duration of the outage, not
	// just its first detection.
	LostObjects int64
}

// countTransfer attributes one transfer to the paradigm the session
// layer provisioned for it.
func (s *Stats) countTransfer(cls selector.PathClass) {
	if cls == selector.PathLocal {
		atomic.AddInt64(&s.LocalTransfers, 1)
	} else if cls == selector.PathSAN {
		atomic.AddInt64(&s.CircuitTransfers, 1)
	} else {
		atomic.AddInt64(&s.VLinkTransfers, 1)
	}
}

// DataGrid is the replicated object store of one testbed: a placement
// ring, a replica catalog, per-node object stores, and a scheduler
// running transfer jobs on the virtual-time kernel. Every transfer
// opens a channel through the session manager — the datagrid never
// touches drivers, circuits or the selector's dispatch itself.
type DataGrid struct {
	k    *vtime.Kernel
	topo *topology.Grid
	mgr  *session.Manager
	cfg  Config

	ring    *Ring
	catalog map[string]*ObjectMeta
	// downNodes is the failure detector's view (MarkDown/MarkUp): nodes
	// here are skipped as sources, entry points and repair destinations.
	// Empty in fault-free runs — every filter short-circuits.
	downNodes map[topology.NodeID]bool
	// lost dedups the object-lost flight dump per outage: set on the
	// first repair pass that finds no reachable fresh replica, cleared
	// when one reappears.
	lost map[string]bool
	// engines holds each node's storage backend, created lazily by the
	// configured Factory on the first byte stored there; auditors
	// shadow it one-to-one (scrub daemons only when AuditInterval > 0).
	engines  map[topology.NodeID]store.Engine
	auditors map[topology.NodeID]*store.Auditor
	// repairKick wakes the anti-entropy daemon early (audit quarantines
	// signal it instead of waiting out RepairInterval).
	repairKick *vtime.Cond
	sched      *scheduler
	// groups caches hierarchical fan-out groups by member set, so
	// repeated placements reuse their spanning trees and cached WAN
	// edges. groupWAN is the per-group WAN byte count already folded
	// into Stats.WANBytes — concurrent multicasts on one group
	// serialize inside it, so a local before/after delta would double
	// count the earlier operation's bytes.
	groups   map[string]*group.Group
	groupWAN map[*group.Group]int64

	stats  Stats
	hashed int64 // payload bytes put through SHA-256 (see hash); not a registry metric

	// Telemetry handles, nil (free no-ops) unless a hub was attached to
	// the kernel before New.
	tel       *telemetry.Hub
	hTransfer *telemetry.Histogram
	hAudit    *telemetry.Histogram
	hRepair   *telemetry.Histogram
}

// New builds a DataGrid over an existing testbed's session manager.
// The ring initially holds every node of the topology, zoned by site;
// use a custom ring via SetRing before the first Put to restrict
// membership.
func New(k *vtime.Kernel, topo *topology.Grid, mgr *session.Manager, cfg Config) *DataGrid {
	cfg = cfg.withDefaults()
	dg := &DataGrid{
		k: k, topo: topo, mgr: mgr, cfg: cfg,
		ring:       RingFromTopology(topo, 0),
		catalog:    make(map[string]*ObjectMeta),
		downNodes:  make(map[topology.NodeID]bool),
		lost:       make(map[string]bool),
		engines:    make(map[topology.NodeID]store.Engine),
		auditors:   make(map[topology.NodeID]*store.Auditor),
		repairKick: vtime.NewCond("datagrid:repair"),
		groups:     make(map[string]*group.Group),
		groupWAN:   make(map[*group.Group]int64),
	}
	if h := telemetry.For(k); h != nil {
		dg.tel = h
		h.Registry().BindStruct("datagrid", &dg.stats)
		dg.hTransfer = h.Registry().Histogram("datagrid.transfer_latency")
		dg.hAudit = h.Registry().Histogram("store.audit_latency")
		dg.hRepair = h.Registry().Histogram("store.repair_latency")
	}
	dg.sched = newScheduler(dg, schedWorkers)
	if dg.tel != nil {
		// Scheduler backpressure: jobs submitted but not finished
		// (queued + running) and distinct in-flight object transfers.
		reg := dg.tel.Registry()
		reg.GaugeFunc("datagrid.sched_pending", func() int64 {
			return int64(dg.sched.pending)
		})
		reg.GaugeFunc("datagrid.sched_inflight_transfers", func() int64 {
			return int64(len(dg.sched.inflight))
		})
	}
	if cfg.RepairInterval > 0 {
		k.GoDaemon("dg-repair", dg.repairLoop)
	}
	return dg
}

// Stats returns a consistent copy of the datagrid's counters (each
// field loaded atomically).
func (dg *DataGrid) Stats() Stats {
	return Stats{
		Puts:             atomic.LoadInt64(&dg.stats.Puts),
		Gets:             atomic.LoadInt64(&dg.stats.Gets),
		Jobs:             atomic.LoadInt64(&dg.stats.Jobs),
		Retries:          atomic.LoadInt64(&dg.stats.Retries),
		Failures:         atomic.LoadInt64(&dg.stats.Failures),
		BytesMoved:       atomic.LoadInt64(&dg.stats.BytesMoved),
		CircuitTransfers: atomic.LoadInt64(&dg.stats.CircuitTransfers),
		VLinkTransfers:   atomic.LoadInt64(&dg.stats.VLinkTransfers),
		LocalTransfers:   atomic.LoadInt64(&dg.stats.LocalTransfers),
		GroupFanouts:     atomic.LoadInt64(&dg.stats.GroupFanouts),
		WANBytes:         atomic.LoadInt64(&dg.stats.WANBytes),
		SourceSwitches:   atomic.LoadInt64(&dg.stats.SourceSwitches),
		Deletes:          atomic.LoadInt64(&dg.stats.Deletes),
		Quarantines:      atomic.LoadInt64(&dg.stats.Quarantines),
		Repairs:          atomic.LoadInt64(&dg.stats.Repairs),
		NodesDown:        atomic.LoadInt64(&dg.stats.NodesDown),
		LostObjects:      atomic.LoadInt64(&dg.stats.LostObjects),
	}
}

// MarkDown declares a node unreachable: it stops serving as a GET or
// repair source, entry point, or replication destination. It is the
// reachability half of NodeStateChanged and leaves the ring alone; the
// repair daemon is kicked so re-replication of copies the node held
// starts on the next pass, not after a full RepairInterval.
func (dg *DataGrid) MarkDown(n topology.NodeID) {
	if dg.downNodes[n] {
		return
	}
	dg.downNodes[n] = true
	atomic.AddInt64(&dg.stats.NodesDown, 1)
	dg.tel.Note("datagrid", "node marked down", int(n), 0, 0)
	dg.repairKick.Broadcast()
}

// MarkUp reverses MarkDown after a partition heals. The node's stored
// copies (still byte-fresh — a partition loses reachability, not data)
// immediately count again; the kicked repair pass tops up whatever the
// outage left under-replicated.
func (dg *DataGrid) MarkUp(n topology.NodeID) {
	if !dg.downNodes[n] {
		return
	}
	delete(dg.downNodes, n)
	atomic.AddInt64(&dg.stats.NodesDown, -1)
	dg.tel.Note("datagrid", "node marked up", int(n), 0, 0)
	dg.repairKick.Broadcast()
}

// NodeStateChanged is the target of a faults.Detector callback (it has
// the faults.Listener shape): a node detected down is marked
// unreachable and leaves the ring, so nothing places on it and every
// copy it held re-replicates through the repair path; a node detected
// up is marked reachable and rejoins the ring in its site's zone. Doing
// only one half leaves a ring that still places on a dead node, or a
// down-set that never heals — so detector wiring calls this, not the
// halves.
func (dg *DataGrid) NodeStateChanged(n topology.NodeID, down bool) {
	if down {
		dg.MarkDown(n)
		dg.RemoveMember(n)
		return
	}
	dg.MarkUp(n)
	dg.AddMember(n, dg.topo.Node(n).Site)
}

// NodeDown reports the failure detector's current view of a node.
func (dg *DataGrid) NodeDown(n topology.NodeID) bool { return dg.downNodes[n] }

// reachable filters down nodes out of a candidate list. With no
// failures marked it returns the input slice unchanged — fault-free
// runs pay nothing.
func (dg *DataGrid) reachable(nodes []topology.NodeID) []topology.NodeID {
	if len(dg.downNodes) == 0 {
		return nodes
	}
	out := make([]topology.NodeID, 0, len(nodes))
	for _, n := range nodes {
		if !dg.downNodes[n] {
			out = append(out, n)
		}
	}
	return out
}

// Ring exposes the placement ring (membership changes go through
// AddMember/RemoveMember so rebalancing stays coherent).
func (dg *DataGrid) Ring() *Ring { return dg.ring }

// SetRing replaces the placement ring (call before the first Put).
func (dg *DataGrid) SetRing(r *Ring) { dg.ring = r }

// Config returns the effective configuration.
func (dg *DataGrid) Config() Config { return dg.cfg }

// Meta returns the catalog entry for an object.
func (dg *DataGrid) Meta(name string) (*ObjectMeta, bool) {
	m, ok := dg.catalog[name]
	return m, ok
}

// Objects lists catalogued object names, sorted.
func (dg *DataGrid) Objects() []string {
	out := make([]string, 0, len(dg.catalog))
	for n := range dg.catalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Holders returns the nodes currently holding a copy, sorted by id.
// Presence is answered from each engine's index (no payload load).
func (dg *DataGrid) Holders(name string) []topology.NodeID {
	var out []topology.NodeID
	for n, eng := range dg.engines {
		if _, ok := eng.Size(name); ok {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ObjectOn returns the bytes of a replica as held by one node (an
// uncharged peek — the transfer paths go through Engine.Read).
func (dg *DataGrid) ObjectOn(n topology.NodeID, name string) ([]byte, bool) {
	eng, ok := dg.engines[n]
	if !ok {
		return nil, false
	}
	return eng.Get(name)
}

// EngineOn returns node n's storage engine, creating it (and its
// auditor) on first use via the configured factory. The auditor's
// scrub daemon starts only when AuditInterval > 0; its quarantines
// feed the repair loop through onQuarantine.
func (dg *DataGrid) EngineOn(n topology.NodeID) store.Engine {
	if eng, ok := dg.engines[n]; ok {
		return eng
	}
	factory := dg.cfg.Engine
	if factory == nil {
		factory = store.MemoryFactory
	}
	eng, err := factory(dg.k, n)
	if err != nil {
		panic(fmt.Sprintf("datagrid: engine for node %d: %v", n, err))
	}
	dg.engines[n] = eng
	if dg.cfg.AuditInterval > 0 {
		dg.auditorOn(n).Start()
	}
	return eng
}

// auditorOn returns node n's auditor, creating it on first use — only
// background-audit configs or an explicit AuditNow pay for one.
func (dg *DataGrid) auditorOn(n topology.NodeID) *store.Auditor {
	if a, ok := dg.auditors[n]; ok {
		return a
	}
	a := store.NewAuditor(dg.k, n, dg.EngineOn(n), store.AuditConfig{
		Interval:  dg.cfg.AuditInterval,
		OnCorrupt: func(p *vtime.Proc, key string) { dg.onQuarantine(p, n, key) },
	})
	dg.auditors[n] = a
	return a
}

// onQuarantine is the audit → repair hinge: the auditor already
// dumped the flight ring and took the needle out of service; here the
// grid counts it and wakes the repair daemon instead of letting the
// object sit under-replicated until the next interval.
func (dg *DataGrid) onQuarantine(_ *vtime.Proc, n topology.NodeID, key string) {
	atomic.AddInt64(&dg.stats.Quarantines, 1)
	dg.tel.Note("datagrid", "replica quarantined: "+key, int(n), 0, 0)
	dg.repairKick.Broadcast()
}

// hash is the datagrid's only pass over payload bytes: at birth (Put),
// on arrival (recvTransfer), in the audit (VerifyReplicas) and on the
// sender of a rejected transfer. Elsewhere the digest travels with them.
func (dg *DataGrid) hash(b []byte) [32]byte {
	dg.hashed += int64(len(b))
	return sha256.Sum256(b)
}

func (dg *DataGrid) storePut(p *vtime.Proc, n topology.NodeID, name string, data []byte, sum [32]byte) {
	if err := dg.EngineOn(n).Put(p, name, data, sum); err != nil {
		panic(fmt.Sprintf("datagrid: store put %q on node %d: %v", name, n, err))
	}
}

// Put writes an object from a client node: the payload travels to the
// nearest placement target first (one durable copy before Put
// returns), then replication jobs fan out to the remaining targets in
// the background. WaitSettled blocks until the object is fully
// replicated.
func (dg *DataGrid) Put(p *vtime.Proc, client topology.NodeID, name string, data []byte) error {
	targets := dg.ring.Place(name, dg.cfg.Replicas)
	if len(targets) == 0 {
		return ErrEmptyRing
	}
	live := dg.reachable(targets)
	if len(live) == 0 {
		return fmt.Errorf("%w: every placement target of %s is down", ErrNoReplica, name)
	}
	// Weather-aware placement of the entry copy: among the live targets,
	// prefer the one behind the healthiest forecast link (static
	// proximity order without a weather service — identical to nearest).
	entry := dg.rankSources(client, live, false)[0]
	meta := &ObjectMeta{
		Name: name, Size: len(data), Sum: dg.hash(data),
		Targets: targets,
	}
	if old, ok := dg.catalog[name]; ok {
		meta.Version = old.Version + 1
	}
	atomic.AddInt64(&dg.stats.Puts, 1)
	sp := dg.tel.Begin("datagrid", "put", int(client))
	if sp != nil {
		sp.Str("obj", name).I64("bytes", int64(len(data))).I64("entry", int64(entry))
	}
	defer sp.End()
	// The put is a request root: everything downstream — the ingest
	// transfer, the scheduler fan-out, TCP segments on the replicas —
	// attaches to this span through the ambient trace context.
	defer sp.Exit(sp.Enter())
	// Ingest: client -> entry, synchronously in the caller's proc.
	got, err := dg.runTransfer(p, client, entry, name, data, meta.Sum)
	if err != nil {
		return err
	}
	dg.storePut(p, entry, name, got, meta.Sum)
	dg.catalog[name] = meta
	// Fan out: entry -> remaining reachable targets, via the scheduler —
	// one point-to-point job per target, or a single hierarchical
	// multicast job over all of them. Down targets are left to the
	// repair loop, which restores them once they are marked up again.
	var rest []topology.NodeID
	for _, t := range live {
		if t != entry {
			rest = append(rest, t)
		}
	}
	if dg.cfg.Hierarchical && dg.treeSavesCrossings(entry, rest) {
		dg.sched.submit(&job{name: name, src: entry, dsts: rest})
	} else {
		for _, t := range rest {
			dg.sched.submit(&job{name: name, src: entry, dst: t})
		}
	}
	return nil
}

// treeSavesCrossings reports whether a spanning tree rooted at src
// strictly beats a flat fan-out to dsts on wide-area crossings. The
// flat cost is one crossing per WAN-classified target; the tree's cost
// comes from the tree itself (Tree.WANCrossings), so policy and
// mechanism cannot disagree — e.g. two named sites joined by a LAN
// count as zero crossings on both sides.
func (dg *DataGrid) treeSavesCrossings(src topology.NodeID, dsts []topology.NodeID) bool {
	flat := 0
	for _, t := range dsts {
		if cls, err := selector.Classify(dg.topo, src, t); err == nil && cls >= selector.PathWAN {
			flat++
		}
	}
	if flat < 2 {
		return false // a tree can at best match a flat fan-out
	}
	grp, err := dg.groupFor(append([]topology.NodeID{src}, dsts...))
	if err != nil {
		return false
	}
	tr, err := grp.Tree(src)
	if err != nil {
		return false
	}
	return tr.WANCrossings() < flat
}

// groupFor returns (building and caching on first use) the fan-out
// group over the given member set.
func (dg *DataGrid) groupFor(members []topology.NodeID) (*group.Group, error) {
	sorted := append([]topology.NodeID(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	key := fmt.Sprint(sorted)
	if g, ok := dg.groups[key]; ok {
		return g, nil
	}
	g, err := dg.newGroup(sorted)
	if err != nil {
		return nil, err
	}
	dg.groups[key] = g
	return g, nil
}

// newGroup builds an uncached fan-out group; transient retry groups go
// through dropGroup when superseded so their channels don't accumulate.
func (dg *DataGrid) newGroup(members []topology.NodeID) (*group.Group, error) {
	var fault func(tag string, member topology.NodeID, attempt int) bool
	if dg.cfg.InjectFault != nil {
		fault = func(tag string, _ topology.NodeID, attempt int) bool {
			return dg.cfg.InjectFault(tag, attempt)
		}
	}
	return group.New(dg.k, dg.topo, dg.mgr, members, group.Config{
		Streams:       dg.cfg.Streams,
		StatusTimeout: dg.cfg.RetryTimeout,
		InjectFault:   fault,
	})
}

// dropGroup folds a transient group's WAN (and hashed) bytes into the
// datagrid's counts and closes its cached channels.
func (dg *DataGrid) dropGroup(g *group.Group) {
	dg.syncGroupWAN(g)
	dg.hashed += g.HashedBytes()
	g.Close() // moves live edge counts into the group's closed total; WANBytes() is unchanged
	delete(dg.groupWAN, g)
}

// ReleaseGroups closes every cached fan-out group and empties the
// cache — the release valve for long-running workloads whose object
// churn accumulates one group (with open WAN channels) per distinct
// placement set. Accounting is folded into Stats first; later fan-outs
// re-provision on demand. Do not call it while replication jobs are in
// flight (WaitSettled first).
func (dg *DataGrid) ReleaseGroups() int {
	keys := make([]string, 0, len(dg.groups))
	for k := range dg.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dg.dropGroup(dg.groups[k])
		delete(dg.groups, k)
	}
	return len(keys)
}

// syncGroupWAN folds a group's WAN bytes into Stats.WANBytes exactly
// once (runs to completion in kernel context — no blocking between the
// read and the update).
func (dg *DataGrid) syncGroupWAN(g *group.Group) {
	cur := g.WANBytes()
	atomic.AddInt64(&dg.stats.WANBytes, cur-dg.groupWAN[g])
	dg.groupWAN[g] = cur
}

// Get reads an object back to a client node from the best-placed
// replica (local copy, then SAN neighbour, then LAN, then WAN). The
// receiving end verifies the bytes against the catalogued digest;
// stale, rotten or unreachable replicas are skipped.
func (dg *DataGrid) Get(p *vtime.Proc, client topology.NodeID, name string) ([]byte, error) {
	meta, ok := dg.catalog[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoObject, name)
	}
	// A holder still on an older version (down during an overwrite, then
	// marked up) is not a source: its bytes could only be rejected.
	reachable := dg.reachable(dg.Holders(name))
	holders := reachable[:0] // Holders returns a slice of its own
	for _, h := range reachable {
		if dg.fresh(meta, h) {
			holders = append(holders, h)
		}
	}
	if len(holders) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoReplica, name)
	}
	atomic.AddInt64(&dg.stats.Gets, 1)
	sp := dg.tel.Begin("datagrid", "get", int(client))
	if sp != nil {
		sp.Str("obj", name).I64("bytes", int64(meta.Size))
	}
	defer sp.End()
	defer sp.Exit(sp.Enter())
	for _, h := range dg.rankForGet(client, holders) {
		data, ok := dg.EngineOn(h).Read(p, name)
		if !ok {
			continue
		}
		got, err := dg.runTransfer(p, h, client, name, data, meta.Sum)
		if err != nil {
			continue
		}
		return got, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoReplica, name)
}

// AddMember grows the ring by one node and reschedules replication for
// every object whose placement changed; it reports the number of
// transfer jobs submitted. Copies left on nodes that fell out of a
// placement are removed by TrimExcess after the moves settle.
func (dg *DataGrid) AddMember(n topology.NodeID, zone string) int {
	dg.ring.Add(n, zone)
	return dg.rebalance()
}

// RemoveMember shrinks the ring (the node's stored copies survive as
// sources until TrimExcess) and reschedules replication.
func (dg *DataGrid) RemoveMember(n topology.NodeID) int {
	dg.ring.Remove(n)
	return dg.rebalance()
}

// rebalance recomputes every object's placement against the current
// ring and routes the resulting moves through the repair path — the
// same weather-ranked source selection, in-flight dedup and
// Stats.Repairs/store.repair_latency bookkeeping that heals quarantined
// replicas, so a membership change is just another under-replication
// event. It reports the number of transfer targets scheduled.
func (dg *DataGrid) rebalance() int {
	n := 0
	for _, name := range dg.Objects() {
		meta := dg.catalog[name]
		meta.Targets = dg.ring.Place(name, dg.cfg.Replicas)
		n += dg.repairObject(meta)
	}
	return n
}

// TrimExcess drops copies held by nodes outside an object's current
// placement (run after WaitSettled to finish a rebalance). Durable
// engines tombstone the dropped needles, charging their write cost to
// the calling proc.
func (dg *DataGrid) TrimExcess(p *vtime.Proc) int {
	n := 0
	for _, name := range dg.Objects() {
		meta := dg.catalog[name]
		target := make(map[topology.NodeID]bool, len(meta.Targets))
		for _, t := range meta.Targets {
			target[t] = true
		}
		for _, h := range dg.Holders(name) {
			// An unreachable holder can't serve the delete; its stale
			// copy is trimmed on a later pass, after it is marked up.
			if !target[h] && !dg.NodeDown(h) {
				dg.engines[h].Delete(p, name)
				n++
			}
		}
	}
	return n
}

// WaitSettled blocks until every scheduled replication job finished.
// Background failures do not unblock it early: check JobErrors (or
// Stats.Failures) afterwards to learn whether an object is still
// under-replicated.
func (dg *DataGrid) WaitSettled(p *vtime.Proc) { dg.sched.waitSettled(p) }

// JobErrors returns the errors of background replication jobs that
// exhausted their retries (in completion order).
func (dg *DataGrid) JobErrors() []error { return dg.sched.errs }

// fresh reports whether node n's engine records the catalogued version
// of an object: digest and size from the index, no payload touched.
// Whether the bytes still match is the auditor's question and, for a
// copy being sent, the receiver's.
func (dg *DataGrid) fresh(meta *ObjectMeta, n topology.NodeID) bool {
	eng, ok := dg.engines[n]
	if !ok {
		return false
	}
	sum, ok := eng.Sum(meta.Name)
	size, _ := eng.Size(meta.Name)
	return ok && sum == meta.Sum && size == meta.Size
}

// freshCopy returns node n's copy of an object if the node holds the
// catalogued version (see fresh).
func (dg *DataGrid) freshCopy(meta *ObjectMeta, n topology.NodeID) ([]byte, bool) {
	data, ok := dg.ObjectOn(n, meta.Name)
	if !ok || !dg.fresh(meta, n) {
		return nil, false
	}
	return data, true
}

// quarantineRotten is the sender's half of a receiver's reject: a wire
// or injected fault (retry), or src's stored bytes no longer match their
// recorded digest. One hash of the sent view decides (failure path, no
// virtual cost); a rotten replica leaves service through the auditor's
// hinge. A view that is not src's stored copy of this version (a Put's
// client buffer) is never hashed.
func (dg *DataGrid) quarantineRotten(p *vtime.Proc, src topology.NodeID, name string, data []byte, sum [32]byte) bool {
	eng, ok := dg.engines[src]
	if !ok {
		return false
	}
	if rec, ok := eng.Sum(name); !ok || rec != sum || dg.hash(data) == sum {
		return false
	}
	eng.Quarantine(p, name)
	dg.onQuarantine(p, src, name)
	return true
}

// freshHolder picks the up-to-date holder nearest to dst, excluding
// dst itself.
func (dg *DataGrid) freshHolder(meta *ObjectMeta, dst topology.NodeID) (topology.NodeID, bool) {
	var fresh []topology.NodeID
	for _, h := range dg.Holders(meta.Name) {
		if h == dst || dg.NodeDown(h) {
			continue
		}
		if _, ok := dg.freshCopy(meta, h); ok {
			fresh = append(fresh, h)
		}
	}
	if len(fresh) == 0 {
		return 0, false
	}
	return dg.nearest(dst, fresh), true
}

// VerifyReplicas checks that every placement target holds a copy and
// that all copies are byte-identical to the catalogued checksum.
func (dg *DataGrid) VerifyReplicas(name string) error {
	meta, ok := dg.catalog[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoObject, name)
	}
	for _, t := range meta.Targets {
		data, ok := dg.ObjectOn(t, name)
		if !ok {
			return fmt.Errorf("%w: %s missing on node %d", ErrNoReplica, name, t)
		}
		if len(data) != meta.Size || dg.hash(data) != meta.Sum {
			return fmt.Errorf("%w: %s on node %d", ErrBadPayload, name, t)
		}
	}
	return nil
}

// runTransfer performs one logical transfer with retries. sum is the
// catalogued digest of data, vouched for by the caller: the sender
// hashes nothing (the virtual checksum charge models reading that digest
// plus the NIC's pass). A rotten source replica ends it with errRotten.
func (dg *DataGrid) runTransfer(p *vtime.Proc, src, dst topology.NodeID, name string, data []byte, sum [32]byte) ([]byte, error) {
	atomic.AddInt64(&dg.stats.Jobs, 1)
	t0 := dg.k.Now()
	p.Consume(model.MemcpyPerByte.Cost(len(data))) // checksum pass over the payload
	var lastErr error
	for attempt := 1; attempt <= maxRetries; attempt++ {
		got, err := dg.transferOnce(p, src, dst, name, data, sum, attempt)
		if err == nil {
			atomic.AddInt64(&dg.stats.BytesMoved, int64(len(got)))
			dg.hTransfer.Observe(dg.k.Now().Sub(t0))
			return got, nil
		}
		lastErr = err
		atomic.AddInt64(&dg.stats.Retries, 1)
		dg.tel.Note("datagrid", "transfer retry", int(src), int64(dst), int64(attempt))
		var te *errTransfer
		if errors.As(err, &te) && te.rejected && dg.quarantineRotten(p, src, name, data, sum) {
			return nil, fmt.Errorf("%w: %s on node %d", errRotten, name, src)
		}
	}
	atomic.AddInt64(&dg.stats.Retries, -1) // the final attempt was a failure, not a retry
	atomic.AddInt64(&dg.stats.Failures, 1)
	dg.hTransfer.Observe(dg.k.Now().Sub(t0))
	// Retries exhausted: dump the flight ring — the post-mortem of a
	// failed transfer is the control-plane history that led here.
	dg.tel.Note("datagrid", "transfer failed", int(src), int64(dst), 0)
	dg.tel.DumpFlight("datagrid transfer failed: " + name)
	return nil, fmt.Errorf("%w: %v", ErrJobFailed, lastErr)
}

// nearest returns the candidate with the cheapest path class from n
// (ties broken by candidate order, which is placement order).
func (dg *DataGrid) nearest(n topology.NodeID, cands []topology.NodeID) topology.NodeID {
	best := cands[0]
	bestCls := selector.PathLossy + 1
	for _, c := range cands {
		cls, err := selector.Classify(dg.topo, n, c)
		if err != nil {
			continue
		}
		if cls < bestCls {
			bestCls = cls
			best = c
		}
	}
	return best
}

func (dg *DataGrid) classes(n topology.NodeID, cands []topology.NodeID) map[topology.NodeID]selector.PathClass {
	cls := make(map[topology.NodeID]selector.PathClass, len(cands))
	for _, c := range cands {
		k, err := selector.Classify(dg.topo, n, c)
		if err != nil {
			k = selector.PathLossy + 1
		}
		cls[c] = k
	}
	return cls
}

// rankForGet is the GET source ranking: rankSources with the source
// switch counted against the GET adaptation stats.
func (dg *DataGrid) rankForGet(client topology.NodeID, holders []topology.NodeID) []topology.NodeID {
	return dg.rankSources(client, holders, true)
}

// rankSources orders replica sources for a reader at client: proximity
// class first (a local or machine-room copy always beats the wide
// area), then — under weather — the holder with the best forecast
// bandwidth leads its class, but only on a material
// (hysteresis-factor) advantage over the class's static head, so
// near-equal forecasts do not flap sources between calls. The rest of
// the class keeps the static retry order. Falls back to the static
// ranking without forecasts. countSwitch attributes a weather
// promotion to Stats.SourceSwitches (GET path); the repair loop ranks
// with the same policy but books nothing — a repair is not a client
// adaptation event.
func (dg *DataGrid) rankSources(client topology.NodeID, holders []topology.NodeID, countSwitch bool) []topology.NodeID {
	out := append([]topology.NodeID(nil), holders...)
	cls := dg.classes(client, out)
	sort.SliceStable(out, func(i, j int) bool { return cls[out[i]] < cls[out[j]] })
	if dg.cfg.Weather == nil || len(out) < 2 {
		return out
	}
	staticFirst := out[0]
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && cls[out[hi]] == cls[out[lo]] {
			hi++
		}
		// Promote the class's best-forecast holder to its head when it
		// clearly beats the static head's forecast.
		headBW, headOK := dg.cfg.Weather.PairBandwidth(client, out[lo])
		best, bestBW := lo, 0.0
		for i := lo; i < hi; i++ {
			if bw, ok := dg.cfg.Weather.PairBandwidth(client, out[i]); ok && bw > bestBW {
				best, bestBW = i, bw
			}
		}
		if best != lo && headOK && bestBW > headBW*selector.DefaultHysteresis {
			promoted := out[best]
			copy(out[lo+1:best+1], out[lo:best])
			out[lo] = promoted
		}
		lo = hi
	}
	if out[0] != staticFirst && countSwitch {
		atomic.AddInt64(&dg.stats.SourceSwitches, 1)
		if dg.tel.Tracing() {
			dg.tel.Instant("datagrid", "source_switch", int(client)).
				I64("to", int64(out[0])).I64("from", int64(staticFirst)).End()
		}
		dg.tel.Note("datagrid", "get source switched", int(client), int64(out[0]), int64(staticFirst))
	}
	return out
}
