// Package topology describes a grid deployment: sites, nodes, network
// interfaces and the networks that connect them. It is the knowledge
// base the selector (paper §4.2, "Selector") consults to choose, for
// every pair of nodes, which network and which communication method to
// use. Topology is pure description; the runtime behaviour of each
// network lives in internal/netsim.
package topology

import (
	"fmt"
	"time"
)

// NodeID identifies a node (a "process" in PadicoTM terms) across the
// whole grid.
type NodeID int

// NetworkKind classifies a network by technology, which implies its
// paradigm affinity: SANs are parallel-oriented, LAN/WAN are
// distributed-oriented (paper §2.2).
type NetworkKind int

const (
	Loopback NetworkKind = iota
	Myrinet              // SAN, GM driver
	SCI                  // SAN; declared for the selector, no driver modelled
	VIANet               // SAN; declared for the selector, no driver modelled
	Ethernet             // LAN, TCP/IP
	WAN                  // high-bandwidth high-latency (VTHD-like)
	Internet             // slow lossy trans-continental link
)

var kindNames = map[NetworkKind]string{
	Loopback: "loopback", Myrinet: "myrinet", SCI: "sci", VIANet: "via",
	Ethernet: "ethernet", WAN: "wan", Internet: "internet",
}

func (k NetworkKind) String() string { return kindNames[k] }

// Parallel reports whether this technology is parallel-oriented, i.e.
// reached through Madeleine/MadIO rather than sockets/SysIO.
func (k NetworkKind) Parallel() bool {
	switch k {
	case Myrinet, SCI, VIANet:
		return true
	}
	return false
}

// Network is one interconnect: a Myrinet switch, an Ethernet segment, a
// WAN path between two sites.
type Network struct {
	Name    string
	Kind    NetworkKind
	Secure  bool          // physically secure (machine room) vs public
	RateBps float64       // payload bytes/s of one link
	Latency time.Duration // one-way wire latency
	Loss    float64       // packet loss probability (0..1)
	MTU     int           // maximum transmission unit (0 = message-based)

	members map[NodeID]int // node -> address on this network
	next    int
}

// Addr returns n's address on the network and whether it is attached.
func (nw *Network) Addr(n NodeID) (int, bool) {
	a, ok := nw.members[n]
	return a, ok
}

// Members returns the attached nodes in address order.
func (nw *Network) Members() []NodeID {
	out := make([]NodeID, len(nw.members))
	for n, a := range nw.members {
		out[a] = n
	}
	return out
}

// Size returns the number of attached nodes.
func (nw *Network) Size() int { return len(nw.members) }

// NIC is one attachment of a node to a network.
type NIC struct {
	Node NodeID
	Net  *Network
	Addr int // address on Net
}

// Node is a grid node: a machine in some site running one PadicoTM
// process.
type Node struct {
	ID   NodeID
	Name string
	Site string // administrative domain; inter-site traffic is "insecure"
	NICs []*NIC
}

// Grid is the full deployment description.
type Grid struct {
	nodes    []*Node
	networks []*Network
}

// New returns an empty grid.
func New() *Grid { return &Grid{} }

// AddNetwork declares a network.
func (g *Grid) AddNetwork(name string, kind NetworkKind, secure bool,
	rate float64, lat time.Duration, loss float64, mtu int) *Network {
	nw := &Network{
		Name: name, Kind: kind, Secure: secure,
		RateBps: rate, Latency: lat, Loss: loss, MTU: mtu,
		members: make(map[NodeID]int),
	}
	g.networks = append(g.networks, nw)
	return nw
}

// AddNode declares a node in a site.
func (g *Grid) AddNode(name, site string) *Node {
	n := &Node{ID: NodeID(len(g.nodes)), Name: name, Site: site}
	g.nodes = append(g.nodes, n)
	return n
}

// Attach connects a node to a network and returns the new NIC.
func (g *Grid) Attach(n *Node, nw *Network) *NIC {
	if _, dup := nw.members[n.ID]; dup {
		panic(fmt.Sprintf("topology: node %s already on network %s", n.Name, nw.Name))
	}
	nic := &NIC{Node: n.ID, Net: nw, Addr: nw.next}
	nw.members[n.ID] = nw.next
	nw.next++
	n.NICs = append(n.NICs, nic)
	return nic
}

// Node returns the node with the given id.
func (g *Grid) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		panic(fmt.Sprintf("topology: unknown node %d", id))
	}
	return g.nodes[id]
}

// Nodes returns all nodes in id order.
func (g *Grid) Nodes() []*Node { return g.nodes }

// Networks returns all declared networks.
func (g *Grid) Networks() []*Network { return g.networks }

// Common returns the networks shared by two nodes, in declaration order.
func (g *Grid) Common(a, b NodeID) []*Network {
	var out []*Network
	for _, nw := range g.networks {
		if _, oka := nw.members[a]; !oka {
			continue
		}
		if _, okb := nw.members[b]; !okb {
			continue
		}
		out = append(out, nw)
	}
	return out
}

// SameSite reports whether two nodes belong to the same site.
func (g *Grid) SameSite(a, b NodeID) bool {
	return g.Node(a).Site == g.Node(b).Site
}

// Sites returns the distinct site names in first-declaration order.
// Data-placement layers use sites as failure/locality zones.
func (g *Grid) Sites() []string {
	var out []string
	seen := make(map[string]bool)
	for _, n := range g.nodes {
		if !seen[n.Site] {
			seen[n.Site] = true
			out = append(out, n.Site)
		}
	}
	return out
}

// String renders a human-readable inventory (used by cmd/padico-info).
func (g *Grid) String() string {
	s := ""
	for _, nw := range g.networks {
		s += fmt.Sprintf("network %-12s kind=%-8s secure=%-5v rate=%.3gMB/s lat=%v loss=%.2g nodes=%d\n",
			nw.Name, nw.Kind, nw.Secure, nw.RateBps/1e6, nw.Latency, nw.Loss, nw.Size())
	}
	for _, n := range g.nodes {
		s += fmt.Sprintf("node %-10s site=%-8s nics=", n.Name, n.Site)
		for i, nic := range n.NICs {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%s[%d]", nic.Net.Name, nic.Addr)
		}
		s += "\n"
	}
	return s
}
