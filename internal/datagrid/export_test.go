package datagrid

import (
	"padico/internal/session"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// HashedBytes returns how many payload bytes the datagrid and its
// fan-out groups have put through SHA-256 so far — the hash budget
// TestHashBudget pins.
func (dg *DataGrid) HashedBytes() int64 {
	n := dg.hashed
	for _, g := range dg.groups {
		n += g.HashedBytes()
	}
	return n
}

// RunTransfer exposes one logical transfer to the benchmarks.
func (dg *DataGrid) RunTransfer(p *vtime.Proc, src, dst topology.NodeID, name string, data []byte, sum [32]byte) ([]byte, error) {
	return dg.runTransfer(p, src, dst, name, data, sum)
}

// AdoptCatalog hands dg the replica catalog of from: what a grid
// reopened over from's bundles would know if it kept its catalog
// durably too (the datagrid keeps it in memory only).
func (dg *DataGrid) AdoptCatalog(from *DataGrid) { dg.catalog = from.catalog }

// RecvTransfer runs the receiving side of one transfer on ch and
// returns what it accepted.
func (dg *DataGrid) RecvTransfer(q *vtime.Proc, ch session.Channel) [][]byte {
	result := vtime.NewQueue[[]byte]("recv")
	dg.recvTransfer(q, ch, 0, result)
	var out [][]byte
	for v, ok := result.TryPop(); ok; v, ok = result.TryPop() {
		out = append(out, v)
	}
	return out
}
