package grid

import (
	"padico/internal/ipstack"
	"padico/internal/netaccess"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// Runtime is one node's PadicoTM process: the arbitration layer
// (NetAccess with MadIO instances per SAN fabric and one SysIO) and the
// abstraction layer endpoints (VLink; Circuits are created on demand).
// Middleware systems are built over a runtime's endpoints, and
// arbitration guarantees that any combination of them may be used at
// the same time (paper §4.3). The paper's other runtime concerns
// (dynamic code loading, threading, Unix signals) are host-language
// issues that Go's runtime subsumes.
type Runtime struct {
	node *topology.Node

	NA    *netaccess.NetAccess
	Sys   *netaccess.SysIO
	MadIO map[*topology.Network]*netaccess.MadIO
	VLink *vlink.Endpoint
	Host  *ipstack.Host

	// groups maps each SAN network to this node's Madeleine group
	// (ordered fabric addresses of all members).
	groups map[*topology.Network][]topology.NodeID
}

// NewRuntime builds the runtime skeleton for a node; fabrics and
// drivers are attached by the grid builder.
func NewRuntime(k *vtime.Kernel, node *topology.Node, host *ipstack.Host) *Runtime {
	na := netaccess.New(k, node.Name)
	return &Runtime{
		node:   node,
		NA:     na,
		Sys:    netaccess.NewSysIO(na),
		MadIO:  make(map[*topology.Network]*netaccess.MadIO),
		VLink:  vlink.NewEndpoint(node.ID),
		Host:   host,
		groups: make(map[*topology.Network][]topology.NodeID),
	}
}

// Node returns the topology node.
func (rt *Runtime) Node() *topology.Node { return rt.node }

// AttachMadIO records a MadIO instance for a SAN network along with the
// member list (rank order).
func (rt *Runtime) AttachMadIO(nw *topology.Network, mio *netaccess.MadIO, members []topology.NodeID) {
	rt.MadIO[nw] = mio
	rt.groups[nw] = members
}

// MadRank returns this node's or another node's Madeleine rank on a SAN
// network.
func (rt *Runtime) MadRank(nw *topology.Network, n topology.NodeID) (int, bool) {
	for r, m := range rt.groups[nw] {
		if m == n {
			return r, true
		}
	}
	return 0, false
}

// Members returns the rank-ordered members of a SAN network.
func (rt *Runtime) Members(nw *topology.Network) []topology.NodeID { return rt.groups[nw] }
