// Package store is the per-node storage engine behind the datagrid: a
// narrow Engine interface with two backends — the in-memory map the
// datagrid has used since PR 1 (extracted verbatim, byte-identical
// virtual-time behavior) and a durable pack engine modeled on auklet's
// objectserver (needles appended into large bundle files, an in-memory
// KV index rebuilt from a needle scan on open, fsync batching on a
// virtual-time budget).
//
// The division of labor with datagrid: datagrid owns placement,
// replication, transfer and the catalog of checksums; an Engine owns
// one node's bytes. Every payload handed to Put is a buffer the engine
// may retain (the datagrid always hands freshly received transfer
// buffers), and every view handed out by Get/Read stays valid until
// that key is rewritten, deleted or quarantined — the zero-copy
// contract that lets transfers and the repair loop forward stored
// views verbatim instead of copying.
//
// Virtual-time cost model (see internal/model "Local disk"): the
// memory backend charges nothing — exactly the pre-store datagrid, so
// every pinned table stays bit-identical. The pack backend charges
// streaming write cost plus budget-batched fsyncs on Put, cold-load
// seek+read cost on Read, and always-from-disk read+hash cost on
// Verify (the auditor path never trusts the in-memory cache — that is
// the point of scrubbing).
package store

import (
	"crypto/sha256"
	"errors"
	"sort"
	"sync/atomic"

	"padico/internal/model"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// Exported errors.
var (
	// ErrCorrupt reports a Verify mismatch between stored bytes and the
	// needle's recorded sha256.
	ErrCorrupt = errors.New("store: needle corrupt")
	// ErrNoKey reports an operation on an absent key.
	ErrNoKey = errors.New("store: no such key")
)

// Engine is one node's local object store. Engines live on a single
// vtime.Kernel: the strictly sequential scheduler is the
// synchronization (stats counters are atomic only so registry
// snapshots race-free after Run).
type Engine interface {
	// Put stores (or replaces) key. data may be retained by the engine
	// until the key is rewritten, deleted or quarantined. sum is vouched
	// for by the caller and recorded unchecked: it is what Sum reports
	// and what Verify and the auditor scrub against.
	Put(p *vtime.Proc, key string, data []byte, sum [32]byte) error
	// Get returns a zero-copy view of the stored bytes without charging
	// virtual I/O time — the catalog/verification peek. The view is
	// valid until the key is rewritten, deleted or quarantined; a
	// cold-loaded view is unverified until Verify.
	Get(key string) ([]byte, bool)
	// Read is Get on the transfer-source path: the same view, with the
	// engine's virtual read cost charged (a pack cold load pays
	// seek+streaming; warm views and the memory backend are free).
	Read(p *vtime.Proc, key string) ([]byte, bool)
	// Sum returns the sha256 recorded for key at Put time.
	Sum(key string) ([32]byte, bool)
	// Size returns the stored payload size of key.
	Size(key string) (int, bool)
	// Delete removes key (a tombstone needle in the pack backend, a map
	// removal in memory); it reports whether the key existed.
	Delete(p *vtime.Proc, key string) bool
	// Verify re-reads key's bytes from their resting place (disk for
	// the pack backend, never the serving cache) and checks them
	// against the recorded sha256, charging read+hash virtual time.
	// Returns ErrCorrupt on mismatch, ErrNoKey when absent.
	Verify(p *vtime.Proc, key string) error
	// Quarantine takes a corrupt needle out of service: the key
	// disappears from Get/Keys (and, for the pack backend, a tombstone
	// keeps a reopen from resurrecting the bad needle). Reports whether
	// the key existed.
	Quarantine(p *vtime.Proc, key string) bool
	// Corrupt is the chaos hook: flip one stored payload byte (on disk
	// for the pack backend) without touching the recorded sha256, so
	// the next Verify fails. Reports whether the key existed.
	Corrupt(key string) bool
	// Keys returns the live (non-quarantined, non-deleted) keys,
	// sorted.
	Keys() []string
	// Len returns the live key count.
	Len() int
	// Bytes returns the live payload byte total.
	Bytes() int64
	// Close flushes and releases engine resources.
	Close() error
}

// Factory builds one node's engine; the datagrid calls it lazily on
// the first byte stored at a node. nil Config.Engine selects
// MemoryFactory.
type Factory func(k *vtime.Kernel, node topology.NodeID) (Engine, error)

// Stats counts engine activity; bound into the telemetry registry
// under "store." (several engines under one prefix sum, so the
// snapshot aggregates the whole grid's store traffic).
type Stats struct {
	Puts, Reads, Deletes  int64
	Verifies, Quarantines int64
	// Pack-only counters (zero on the memory backend).
	NeedlesWritten, Tombstones int64
	BundleBytes, Fsyncs        int64
	BundleRolls, TornTails     int64
	ColdLoads                  int64
}

// bindStats registers an engine's counters under the shared "store."
// prefix; several engines bound to one kernel's registry aggregate
// into a grid-wide view. Nil-safe when telemetry is not attached.
func bindStats(k *vtime.Kernel, s *Stats) {
	telemetry.For(k).Registry().BindStruct("store", s)
}

// MemoryFactory builds the in-memory backend — the pre-store datagrid
// map behind the Engine interface, byte-identical in virtual time and
// allocation behavior.
func MemoryFactory(k *vtime.Kernel, node topology.NodeID) (Engine, error) {
	return NewMemory(k, node), nil
}

type memObj struct {
	data []byte
	sum  [32]byte
}

// Memory is the in-memory engine: a map of retained payload buffers.
type Memory struct {
	node  topology.NodeID
	objs  map[string]memObj
	stats Stats
}

// NewMemory builds an empty memory engine for one node and binds its
// stats into the kernel's telemetry registry (if attached).
func NewMemory(k *vtime.Kernel, node topology.NodeID) *Memory {
	m := &Memory{node: node, objs: make(map[string]memObj)}
	bindStats(k, &m.stats)
	return m
}

// Put stores the buffer by reference — no copy, no virtual-time
// charge, exactly the pre-store map assignment.
func (m *Memory) Put(_ *vtime.Proc, key string, data []byte, sum [32]byte) error {
	m.objs[key] = memObj{data: data, sum: sum}
	atomic.AddInt64(&m.stats.Puts, 1)
	return nil
}

// Get returns the stored view.
func (m *Memory) Get(key string) ([]byte, bool) {
	o, ok := m.objs[key]
	return o.data, ok
}

// Read is Get: RAM-resident bytes charge nothing.
func (m *Memory) Read(_ *vtime.Proc, key string) ([]byte, bool) {
	o, ok := m.objs[key]
	if ok {
		atomic.AddInt64(&m.stats.Reads, 1)
	}
	return o.data, ok
}

// Sum returns the recorded checksum.
func (m *Memory) Sum(key string) ([32]byte, bool) {
	o, ok := m.objs[key]
	return o.sum, ok
}

// Size returns the stored payload length.
func (m *Memory) Size(key string) (int, bool) {
	o, ok := m.objs[key]
	return len(o.data), ok
}

// Delete removes the key from the map.
func (m *Memory) Delete(_ *vtime.Proc, key string) bool {
	if _, ok := m.objs[key]; !ok {
		return false
	}
	delete(m.objs, key)
	atomic.AddInt64(&m.stats.Deletes, 1)
	return true
}

// Verify re-hashes the resident bytes against the recorded sum,
// charging the hash pass (same per-byte rate the datagrid charges for
// its own checksum passes).
func (m *Memory) Verify(p *vtime.Proc, key string) error {
	o, ok := m.objs[key]
	if !ok {
		return ErrNoKey
	}
	atomic.AddInt64(&m.stats.Verifies, 1)
	p.Consume(model.MemcpyPerByte.Cost(len(o.data)))
	if sha256.Sum256(o.data) != o.sum {
		return ErrCorrupt
	}
	return nil
}

// Quarantine drops the corrupt entry.
func (m *Memory) Quarantine(_ *vtime.Proc, key string) bool {
	if _, ok := m.objs[key]; !ok {
		return false
	}
	delete(m.objs, key)
	atomic.AddInt64(&m.stats.Quarantines, 1)
	return true
}

// Corrupt flips a payload byte in place (chaos hook).
func (m *Memory) Corrupt(key string) bool {
	o, ok := m.objs[key]
	if !ok || len(o.data) == 0 {
		return false
	}
	o.data[len(o.data)/2] ^= 0xFF
	return true
}

// Keys returns the live keys, sorted.
func (m *Memory) Keys() []string {
	out := make([]string, 0, len(m.objs))
	for k := range m.objs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the live key count.
func (m *Memory) Len() int { return len(m.objs) }

// Bytes returns the live payload total.
func (m *Memory) Bytes() int64 {
	var n int64
	for _, o := range m.objs {
		n += int64(len(o.data))
	}
	return n
}

// Close is a no-op for the memory backend.
func (m *Memory) Close() error { return nil }

// Stats returns a consistent copy of the engine's counters.
func (m *Memory) Stats() Stats { return telemetry.Load(&m.stats) }
