// Package model centralizes the performance calibration of the
// simulated testbed. The paper's evaluation (IPDPS 2004, §5) ran on
// dual-Pentium III 1 GHz nodes with Myrinet-2000, switched Ethernet-100,
// the VTHD WAN and a lossy trans-continental Internet link. Every
// constant below is either a published hardware figure or a software
// cost derived from the published end-to-end points so that the
// simulated stack lands on the paper's numbers when the same layers are
// traversed.
//
// Derivations are spelled out next to each constant; the invariant used
// throughout is
//
//	one-way latency  = Σ per-side per-message costs + wire latency
//	bandwidth(size)  = size / (latency + size × Σ per-byte costs)
//
// with per-byte costs summed serially (the paper's bandwidth test acks
// every message, so marshalling, the wire and unmarshalling do not
// pipeline across a single message).
package model

import "time"

// ---------------------------------------------------------------------
// Myrinet-2000 (SAN). Hardware: 2 Gb/s links ≈ 250 MB/s payload rate;
// the paper reports 240 MB/s = 96 % of nominal as the best achievable,
// which we model as a 0.65 µs per-4KiB-packet host/NIC overhead:
// 4096 / (4096/250e6 + 0.65e-6) ≈ 240.5 MB/s.
const (
	MyrinetRate       = 250e6 // bytes/s on the wire
	MyrinetPacket     = 4096  // bytes per hardware packet
	MyrinetPktOverhd  = 650 * time.Nanosecond
	MyrinetWireLat    = 2 * time.Microsecond // switch + cable
	MyrinetHWChannels = 2                    // channels Madeleine gets (paper §4.1)
)

// Ethernet-100: 100 Mb/s = 12.5 MB/s raw. Frame = 1500 payload + 38
// overhead (header+FCS+preamble+IFG); TCP/IP headers eat 40 more. The
// paper's reference curve peaks around 11 MB/s.
const (
	EthernetRate    = 12.5e6
	EthernetMTU     = 1500
	EthernetFrameOH = 38
	EthernetWireLat = 30 * time.Microsecond // host + switch, per hop
)

// VTHD WAN: high bandwidth (1 Gb/s core), high latency; each node
// reaches it through its Ethernet-100 access link, which is why the
// paper caps parallel-stream throughput at 12 MB/s. One-way path
// latency 8 ms (paper §5: "a 8 ms latency").
const (
	VTHDCoreRate = 125e6
	VTHDWireLat  = 8 * time.Millisecond
)

// Lossy trans-continental Internet link (paper §5 last ¶): 5–10 % loss.
// Calibrated so Reno lands near the paper's 150 KB/s and the link can
// carry ≈ 550 KB/s of VRP traffic: capacity 600 KB/s, one-way 25 ms,
// 5 % packet loss (Mathis: 1460 B / 0.05 s × 1.22/√0.05 ≈ 160 KB/s).
const (
	LossyRate    = 600e3
	LossyWireLat = 25 * time.Millisecond
	LossyLossPct = 0.05
)

// ---------------------------------------------------------------------
// Per-side, per-message software costs. The chain over Myrinet is
// GM → Madeleine → MadIO → {Circuit | VLink} → middleware, and the
// paper's Table 1 fixes the cumulative one-way latencies:
//
//	GM       : 1.5+1.5 (hosts) + 2 (wire)          = 5.0 µs
//	Madeleine: + 2×1.25                            = 7.5 µs
//	MadIO    : + 2×0.025 (header combining, §4.1)  = 7.55 µs  (<0.1 µs over Madeleine)
//	Circuit  : + 2×0.425                           = 8.4 µs   (Table 1)
//	VLink    : MadIO + 2×1.325                     = 10.2 µs  (Table 1)
//	MPI      : Circuit + 2×1.83                    = 12.06 µs (Table 1)
//	omniORB4 : VLink + 2×4.1                       = 18.4 µs  (Table 1)
//	omniORB3 : VLink + 2×5.05                      = 20.3 µs  (Table 1)
//	Java     : VLink + 2×14.9                      = 40 µs    (Table 1)
//	Mico     : VLink + 2×26.4                      = 63 µs    (§5)
//	ORBacus  : VLink + 2×21.9                      = 54 µs    (§5)
const (
	GMHostCost = 1500 * time.Nanosecond

	MadeleineCost = 1250 * time.Nanosecond

	// MadIO logical multiplexing: with header combining the demux header
	// rides in the same hardware message (one extra segment); without it
	// the header is a separate Madeleine message (ablation).
	MadIOCombinedCost = 25 * time.Nanosecond
	MadIOSeparateCost = 900 * time.Nanosecond

	CircuitCost = 425 * time.Nanosecond
	VLinkCost   = 1325 * time.Nanosecond

	MPICost  = 1830 * time.Nanosecond
	VMadCost = 50 * time.Nanosecond // virtual-Madeleine personality is a thin shim
)

// Per-request CPU of the middleware systems (per side), from Table 1 as
// derived above.
const (
	OmniORB3RequestCost = 5050 * time.Nanosecond
	OmniORB4RequestCost = 4100 * time.Nanosecond
	MicoRequestCost     = 26400 * time.Nanosecond
	ORBacusRequestCost  = 21900 * time.Nanosecond
	JavaSocketOpCost    = 14900 * time.Nanosecond
)

// ---------------------------------------------------------------------
// Per-byte CPU costs (ns/byte, per side). Derived from the published
// 1 MB bandwidths against the 240.5 MB/s effective wire:
//
//	extra(target) = 1e3/target(MB/s) − 1e3/240.5, split across 2 sides.
//
//	Mico    55 MB/s → 7.09 ns/B/side (one full marshalling copy per side
//	        at ≈141 MB/s, the paper's explanation: "they always copy data
//	        for marshalling and unmarshalling")
//	ORBacus 63 MB/s → 5.95 ns/B/side (≈168 MB/s copies)
//	omniORB4 235.8 → 0.0411, omniORB3 238.4 → 0.0180,
//	Java 237.9 → 0.0224, MPICH 238.7 → 0.0153, VLink 239 → 0.0127,
//	Circuit 240 → 0.004 (zero-copy paths only touch descriptors).
type PerByte float64 // nanoseconds per byte, per side

const (
	MicoCopyPerByte    PerByte = 7.09
	ORBacusCopyPerByte PerByte = 5.95
	OmniORB4PerByte    PerByte = 0.0411
	OmniORB3PerByte    PerByte = 0.0180
	JavaSocketPerByte  PerByte = 0.0224
	MPIPerByte         PerByte = 0.0153
	VLinkPerByte       PerByte = 0.0127
	CircuitPerByte     PerByte = 0.004
	CompressPerByte    PerByte = 14.0 // AdOC flate, per input byte
	EncryptPerByte     PerByte = 9.0  // AES-CTR + HMAC on a PIII
	MemcpyPerByte      PerByte = 1.15 // plain 870 MB/s memcpy
)

// ---------------------------------------------------------------------
// Local disk (the durable object store under datagrid). Commodity
// IDE/early-SATA disks of the paper's era stream ~40 MB/s on writes and
// ~55 MB/s on reads once the head is settled; an fsync costs a platter
// rotation plus cache flush, ~8 ms. The pack engine appends needles
// sequentially, so per-needle cost is per-byte streaming plus a small
// per-record overhead (header parse, inode-less index update); seeks
// only happen on cold needle loads.
const (
	DiskWritePerByte PerByte = 25.0                  // 40 MB/s sequential write
	DiskReadPerByte  PerByte = 18.2                  // 55 MB/s sequential read
	DiskNeedleCost           = 60 * time.Microsecond // per-needle record overhead
	DiskSeekCost             = 6 * time.Millisecond  // cold random needle load
	FsyncCost                = 8 * time.Millisecond  // rotation + cache flush
)

// Cost converts a byte count at a per-byte rate into a duration.
func (pb PerByte) Cost(n int) time.Duration {
	return time.Duration(float64(n) * float64(pb))
}
