package datagrid

import (
	"fmt"
	"sort"
	"sync/atomic"

	"padico/internal/topology"
	"padico/internal/vtime"
)

// Anti-entropy: the datagrid half of the store subsystem. The auditor
// (internal/store) finds rot on one node and quarantines it; the code
// here notices the grid-level consequence — an object below its
// replication factor — and schedules repair transfers over the normal
// data path: same scheduler, same wire protocol, same checksum
// verification, with the source picked by the weather-aware ranking
// and a hierarchical fan-out when one multicast saves WAN crossings.
// Repair is therefore indistinguishable from replication on the wire;
// only the bookkeeping (Stats.Repairs, store.repair_latency) differs.

// engineNodes returns the nodes with instantiated engines, sorted —
// the deterministic iteration order for grid-wide store sweeps.
func (dg *DataGrid) engineNodes() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(dg.engines))
	for n := range dg.engines {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Delete removes an object grid-wide: every holder's engine drops its
// copy (a durable tombstone on pack engines, so reopening the bundles
// does not resurrect the key), then the catalog entry goes away.
func (dg *DataGrid) Delete(p *vtime.Proc, name string) error {
	if _, ok := dg.catalog[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoObject, name)
	}
	sp := dg.tel.Begin("datagrid", "delete", 0).Str("obj", name)
	defer sp.End()
	defer sp.Exit(sp.Enter())
	for _, h := range dg.Holders(name) {
		dg.engines[h].Delete(p, name)
	}
	delete(dg.catalog, name)
	atomic.AddInt64(&dg.stats.Deletes, 1)
	dg.tel.Note("datagrid", "deleted: "+name, 0, 0, 0)
	return nil
}

// AuditNow synchronously scrubs every node's engine once (in node
// order) and returns how many needles were quarantined grid-wide.
// Corrupt needles feed the repair loop exactly as the background
// auditors do.
func (dg *DataGrid) AuditNow(p *vtime.Proc) int {
	n := 0
	for _, node := range dg.engineNodes() {
		n += dg.auditorOn(node).Pass(p)
	}
	return n
}

// RepairNow synchronously scans the whole catalog for objects below
// their replication factor and schedules repair transfers; it returns
// the number of repair jobs' targets submitted. WaitSettled blocks
// until the transfers land.
func (dg *DataGrid) RepairNow(p *vtime.Proc) int {
	n := 0
	for _, name := range dg.Objects() {
		n += dg.repairObject(dg.catalog[name])
	}
	return n
}

// repairObject schedules transfers restoring one object's replication
// factor: fresh copies are located, every placement target lacking one
// becomes a repair destination, and each destination is served from
// its weather-ranked best source — or all of them from one
// hierarchical multicast when the tree saves WAN crossings.
func (dg *DataGrid) repairObject(meta *ObjectMeta) int {
	fresh := dg.sources(meta)
	if len(fresh) == 0 {
		// No reachable fresh copy anywhere: the object is lost — or cut
		// off behind a partition. Scream — this is the condition the
		// whole subsystem exists to prevent. The counter bumps on every
		// pass so availability SLOs burn for the outage's duration; the
		// flight dump fires once per outage (dg.lost dedup).
		atomic.AddInt64(&dg.stats.LostObjects, 1)
		dg.tel.Note("datagrid", "object lost: "+meta.Name, 0, int64(len(meta.Targets)), 0)
		if !dg.lost[meta.Name] {
			dg.lost[meta.Name] = true
			dg.tel.DumpFlight("datagrid: object lost beyond repair: " + meta.Name)
		}
		return 0
	}
	delete(dg.lost, meta.Name)
	freshAt := make(map[topology.NodeID]bool, len(fresh))
	for _, h := range fresh {
		freshAt[h] = true
	}
	var missing []topology.NodeID
	for _, t := range dg.live(meta.Targets) {
		// An unreachable target can't take a copy; a target already
		// being served — put replication still in flight, or a repair
		// from an earlier pass — is not missing: re-submitting would
		// move the same bytes twice.
		if !freshAt[t] && !dg.sched.inflightTo(meta.Name, t) {
			missing = append(missing, t)
		}
	}
	if len(missing) == 0 {
		return 0
	}
	t0 := dg.k.Now()
	if dg.cfg.Hierarchical && len(missing) > 1 {
		src := dg.rankSources(missing[0], fresh, false)[0]
		if dg.treeSavesCrossings(src, missing) {
			dg.sched.submit(&job{name: meta.Name, src: src, dsts: missing, repair: true, t0: t0})
			return len(missing)
		}
	}
	for _, t := range missing {
		src := dg.rankSources(t, fresh, false)[0]
		dg.sched.submit(&job{name: meta.Name, src: src, dst: t, repair: true, t0: t0})
	}
	return len(missing)
}

// LostObjects returns catalogued objects with no reachable fresh
// replica — damage repair cannot undo, or data cut off behind a live
// partition (the recovery benches assert this drains back to empty
// after the heal).
func (dg *DataGrid) LostObjects() []string {
	var out []string
	for _, name := range dg.Objects() {
		if len(dg.sources(dg.catalog[name])) == 0 {
			out = append(out, name)
		}
	}
	return out
}

// repairLoop is the anti-entropy daemon: wake every RepairInterval —
// or immediately when an audit quarantine kicks the cond — and
// schedule whatever repairs the catalog scan finds.
func (dg *DataGrid) repairLoop(p *vtime.Proc) {
	for {
		dg.repairKick.WaitTimeout(p, dg.cfg.RepairInterval)
		sp := dg.tel.Begin("datagrid", "repair-pass", 0)
		prev := sp.Enter()
		n := dg.RepairNow(p)
		sp.Exit(prev)
		sp.I64("jobs", int64(n)).End()
	}
}

// Close closes every node engine, flushing durable state. A new
// DataGrid opened over the same pack directories resumes from the
// bundles.
func (dg *DataGrid) Close() error {
	var first error
	for _, n := range dg.engineNodes() {
		if err := dg.engines[n].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
