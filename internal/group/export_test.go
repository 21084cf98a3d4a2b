package group

import (
	"padico/internal/session"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// RelayMulticast runs member self's side of one multicast on up, with
// no children, and returns what it delivered.
func (g *Group) RelayMulticast(q *vtime.Proc, self topology.NodeID, up session.Channel) map[topology.NodeID][]byte {
	results := make(map[topology.NodeID][]byte)
	g.relayMulticast(q, self, up, nil, results)
	return results
}
