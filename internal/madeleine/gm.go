package madeleine

import (
	"padico/internal/drivers/gm"
	"padico/internal/model"
)

// GM is the Madeleine backend over one node's GM NIC: 2 hardware
// channels = 2 GM ports. It maps channel group ranks to fabric
// addresses through the group slice (group[rank] = fabric address).
type GM struct {
	nic   *gm.NIC
	group []int
	rank  map[int]int // fabric addr -> rank
}

// NewGM builds the Madeleine GM backend for one node.
func NewGM(nic *gm.NIC, group []int) *GM {
	rank := make(map[int]int, len(group))
	for r, addr := range group {
		rank[addr] = r
	}
	return &GM{nic: nic, group: group, rank: rank}
}

// Name identifies the driver.
func (b *GM) Name() string { return "gm" }

// MaxChannels is the hardware channel limit.
func (b *GM) MaxChannels() int { return model.MyrinetHWChannels }
