// Package datagrid implements a replicated object store and
// bulk-transfer engine on top of the dual-abstraction stack — the
// canonical heavy-traffic grid workload (GridFTP-style striped
// transfers plus replica management) that exercises both of the
// paper's worlds at once. Placement follows the consistent-hash ring
// design of production object stores (Swift/auklet): virtual nodes on
// a 64-bit ring, with sites acting as zones so replicas spread across
// clusters. Transfers pick their paradigm per path through the
// selector: Madeleine/Circuit packing inside a SAN cluster, striped
// parallel VLink streams (pstreams) across the WAN.
package datagrid

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"padico/internal/iovec"
	"padico/internal/topology"
)

// Ring places replicas of named objects on grid nodes by consistent
// hashing. Each member node projects VNodes points onto a 64-bit ring;
// an object lands on the first distinct members clockwise from its
// hash, preferring members in distinct zones (sites) first, so a
// replica factor ≥ 2 survives the loss of a whole cluster. Adding or
// removing one member moves only ~1/n of the placements.
type Ring struct {
	vnodes int
	points []point
	zones  map[topology.NodeID]string
}

type point struct {
	h    uint64
	node topology.NodeID
}

// DefaultVNodes is the per-member virtual-node count: enough that the
// moved fraction on membership change concentrates near 1/n.
const DefaultVNodes = 64

// NewRing returns an empty ring with the given virtual-node count per
// member (0 means DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, zones: make(map[topology.NodeID]string)}
}

// RingFromTopology builds a ring holding every node of the grid, with
// each node's site as its zone.
func RingFromTopology(g *topology.Grid, vnodes int) *Ring {
	r := NewRing(vnodes)
	for _, n := range g.Nodes() {
		r.Add(n.ID, n.Site)
	}
	return r
}

// ringHash maps a key onto the ring. A cryptographic hash (à la
// Swift's md5 rings) is required: sequential names and vnode labels
// must land uniformly, which weak string hashes do not deliver.
func ringHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return iovec.NewReader(sum[:8]).U64()
}

// hashName hashes an object name onto the ring.
func hashName(name string) uint64 { return ringHash(name) }

// hashVNode hashes one virtual node of a member.
func hashVNode(n topology.NodeID, i int) uint64 {
	return ringHash(fmt.Sprintf("member-%d/vnode-%d", n, i))
}

// Add inserts a member with its zone; adding an existing member panics
// (membership changes must be deliberate, they move data).
func (r *Ring) Add(n topology.NodeID, zone string) {
	if _, dup := r.zones[n]; dup {
		panic(fmt.Sprintf("datagrid: ring member %d added twice", n))
	}
	r.zones[n] = zone
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{h: hashVNode(n, i), node: n})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes a member and its points.
func (r *Ring) Remove(n topology.NodeID) {
	if _, ok := r.zones[n]; !ok {
		return
	}
	delete(r.zones, n)
	kept := r.points[:0]
	for _, pt := range r.points {
		if pt.node != n {
			kept = append(kept, pt)
		}
	}
	r.points = kept
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.zones) }

// Zone returns a member's zone.
func (r *Ring) Zone(n topology.NodeID) (string, bool) {
	z, ok := r.zones[n]
	return z, ok
}

// Place returns the replica nodes for an object name, in preference
// order (the first is the primary). Walking clockwise from the name's
// hash, it first accepts members in zones not yet represented, then —
// once every zone holds a replica — any member not yet chosen. The
// result is deterministic and has min(replicas, Size()) entries.
func (r *Ring) Place(name string, replicas int) []topology.NodeID {
	if replicas <= 0 || len(r.points) == 0 {
		return nil
	}
	if replicas > len(r.zones) {
		replicas = len(r.zones)
	}
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].h >= hashName(name)
	})
	nzones := make(map[string]bool, len(r.zones))
	for _, z := range r.zones {
		nzones[z] = true
	}
	chosen := make([]topology.NodeID, 0, replicas)
	usedNode := make(map[topology.NodeID]bool, replicas)
	usedZone := make(map[string]bool, replicas)
	// Pass 1: distinct zones. Pass 2: distinct nodes.
	for pass := 0; pass < 2 && len(chosen) < replicas; pass++ {
		for i := 0; i < len(r.points) && len(chosen) < replicas; i++ {
			pt := r.points[(start+i)%len(r.points)]
			if usedNode[pt.node] {
				continue
			}
			z := r.zones[pt.node]
			if pass == 0 && (usedZone[z] && len(usedZone) < len(nzones)) {
				continue
			}
			usedNode[pt.node] = true
			usedZone[z] = true
			chosen = append(chosen, pt.node)
		}
	}
	return chosen
}
