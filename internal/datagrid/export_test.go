package datagrid

import (
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
