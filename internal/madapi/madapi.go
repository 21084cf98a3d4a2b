// Package madapi defines the Madeleine programming interface: channels
// over a static group of nodes, incremental message packing with
// explicit semantics (paper §2.3, §4.2). Two implementations exist:
// the real portability layer (internal/madeleine) directly over SAN
// drivers, and the "virtual Madeleine" personality
// (internal/personality/vmad) over Circuit — which is how the existing
// MPICH/Madeleine runs unchanged inside PadicoTM (paper §4.3).
package madapi

import (
	"padico/internal/iovec"
	"padico/internal/vtime"
)

// PackMode expresses the sender-side constraint of a packed segment.
//
// A message is packed once and then travels by reference: on the SAN
// path no layer between Pack and the receiver's Unpack copies payload
// bytes, so the slice Unpack returns is the very memory that was
// packed. SendSafer is the one copy of the send side; a segment packed
// SendLater or SendCheaper is lent to the receiver and must stay valid
// and unmodified until the receiver is done with the message — in a
// request/reply exchange, until the reply is in. (Real Madeleine ends
// the borrow at EndPacking because the NIC has DMA'd the bytes by then;
// here the receiving host reads them in place.) Callers that cannot
// keep a buffer that long pack it SendSafer.
type PackMode int

const (
	// SendSafer: the buffer may be reused by the caller immediately
	// (the layer copies it into memory the message owns).
	SendSafer PackMode = iota
	// SendLater: the buffer is lent until the receiver has consumed
	// the message.
	SendLater
	// SendCheaper: the layer chooses the cheapest strategy; the buffer
	// is lent like SendLater.
	SendCheaper
)

// UnpackMode expresses the receiver-side constraint of a segment.
type UnpackMode int

const (
	// ReceiveExpress: the data is needed immediately to make progress
	// (typically headers); it must be available when Unpack returns.
	ReceiveExpress UnpackMode = iota
	// ReceiveCheaper: the data may arrive as late as EndUnpacking.
	// After a ReceiveCheaper unpack, no ReceiveExpress may follow
	// (Madeleine's incremental-packing rule).
	ReceiveCheaper
)

// Channel is a Madeleine communication channel over a definite group of
// nodes. Ranks index the group.
type Channel interface {
	// Self returns this node's rank in the channel's group.
	Self() int
	// Size returns the group size.
	Size() int
	// BeginPacking starts an outgoing message to dst (a rank).
	BeginPacking(dst int) OutMessage
	// BeginUnpacking blocks until a message is available and starts
	// unpacking it.
	BeginUnpacking(p *vtime.Proc) InMessage
	// TryBeginUnpacking is the non-blocking variant.
	TryBeginUnpacking() (InMessage, bool)
}

// OutMessage is an outgoing message being packed.
type OutMessage interface {
	// Pack appends one segment with the given semantics.
	Pack(data []byte, mode PackMode)
	// EndPacking flushes the message to the network.
	EndPacking()
}

// InMessage is an incoming message being unpacked.
type InMessage interface {
	// Src returns the sender's rank.
	Src() int
	// Unpack extracts the next segment, which must have exactly n bytes
	// (segment boundaries are part of the protocol contract).
	Unpack(n int, mode UnpackMode) []byte
	// EndUnpacking finishes the message; every packed segment must have
	// been unpacked.
	EndUnpacking()
	// Discard consumes whatever segments remain and finishes the
	// message without inspecting them — for receivers that released the
	// endpoint the message was addressed to (failure recovery drops
	// late traffic instead of violating the unpack protocol).
	Discard()
}

// SegPacker is the buffer-owning extension of OutMessage, implemented
// by the real Madeleine (Circuit's links carry plain byte vectors and
// do not offer it). PackSeg appends s.B as one segment, lent like
// SendLater; when s.Owner is set the caller's reference to that buffer
// passes to the message, and whoever ends the segment's life — the
// receiver through UnpackSeg, Discard, or a backend whose hardware
// copies — releases it.
type SegPacker interface {
	PackSeg(s iovec.Seg)
}

// SegUnpacker is the matching extension of InMessage: Unpack that also
// hands over the buffer reference packed with the segment (nil Owner
// for plain memory). The caller releases it once it has copied the
// bytes out.
type SegUnpacker interface {
	UnpackSeg(n int, mode UnpackMode) iovec.Seg
}
