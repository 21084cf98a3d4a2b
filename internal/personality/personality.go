// Package personality implements the paper's personality layer (§3.3,
// §4.3): thin wrappers that adapt the abstract interfaces' generic APIs
// to look like standard APIs — "they do no protocol adaptation nor
// paradigm translation; they only adapt the syntax".
//
// VMad, a virtual Madeleine API over Circuit, is the one personality
// an experiment runs: through it the unmodified MPICH/Madeleine
// (internal/mpi) runs inside PadicoTM.
package personality

import (
	"padico/internal/circuit"
	"padico/internal/madapi"
	"padico/internal/vtime"
)

// VMad exposes a Circuit as a madapi.Channel, charging only the thin
// personality cost — this is how MPICH/Madeleine runs unchanged inside
// PadicoTM: same Madeleine API, Circuit underneath (§4.3).
type VMad struct {
	c *circuit.Circuit
	k *vtime.Kernel
}

// NewVMad builds the virtual Madeleine personality.
func NewVMad(k *vtime.Kernel, c *circuit.Circuit) *VMad { return &VMad{c: c, k: k} }

var _ madapi.Channel = (*VMad)(nil)

// Self implements madapi.Channel.
func (v *VMad) Self() int { return v.c.Self() }

// Size implements madapi.Channel.
func (v *VMad) Size() int { return v.c.Size() }

// BeginPacking implements madapi.Channel. Personalities adapt syntax
// only (§3.3); their cost is absorbed in the middleware constants.
func (v *VMad) BeginPacking(dst int) madapi.OutMessage {
	return v.c.BeginPacking(dst)
}

// BeginUnpacking implements madapi.Channel.
func (v *VMad) BeginUnpacking(p *vtime.Proc) madapi.InMessage {
	return v.c.BeginUnpacking(p)
}

// TryBeginUnpacking implements madapi.Channel.
func (v *VMad) TryBeginUnpacking() (madapi.InMessage, bool) {
	return v.c.TryBeginUnpacking()
}
