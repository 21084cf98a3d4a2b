package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"padico/internal/iovec"
	"padico/internal/model"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// The pack engine is the durable backend, modeled on auklet's
// objectserver pack engine: every object is a *needle* appended to a
// large append-only *bundle* file, and the only metadata structure is
// an in-memory key → needle index rebuilt by scanning needle headers
// on open. There is no per-object file, no B-tree, no write-ahead log:
// the bundle IS the log, and a tombstone needle is how deletion and
// quarantine are made durable. Bundles roll at BundleMaxBytes so no
// single file grows unboundedly and a torn tail only ever costs the
// final file's last record.
//
// Needle layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic  "PNdl"
//	4       1     flags  (bit0 = tombstone)
//	5       2     keyLen
//	7       8     payload size
//	15      32    sha256(payload)
//	47      4     crc32-IEEE over bytes [0,47)
//	51      k     key bytes
//	51+k    n     payload bytes
//
// The trailing header CRC is what makes the open-time scan
// crash-safe: a torn final needle (header cut short, CRC mismatch, or
// body extending past EOF) ends the scan, the tail is truncated away,
// and the engine keeps appending from the last valid record.
const (
	needleMagic   = 0x506c644e // "PNdl" read little-endian
	needleHdrLen  = 51
	flagTombstone = 0x01
)

// PackConfig tunes the pack engine. Zero values select defaults.
type PackConfig struct {
	// BundleMaxBytes rolls the active bundle once it grows past this
	// size (default 64 MiB).
	BundleMaxBytes int64
}

// syncBudget batches fsyncs: a Put pays FsyncCost only when the last
// sync is at least this much virtual time in the past. Auklet's
// objectserver makes the same trade — group commit bounded by a time
// budget, not per-write durability.
const syncBudget = 100 * time.Millisecond

func (c PackConfig) withDefaults() PackConfig {
	if c.BundleMaxBytes == 0 {
		c.BundleMaxBytes = 64 << 20
	}
	return c
}

// PackFactory returns a Factory that gives each node its own bundle
// directory root/node-<id>.
func PackFactory(root string, cfg PackConfig) Factory {
	return func(k *vtime.Kernel, node topology.NodeID) (Engine, error) {
		dir := filepath.Join(root, fmt.Sprintf("node-%d", node))
		return OpenPack(k, node, dir, cfg)
	}
}

// needleRef locates one live needle: which bundle, where the payload
// starts, how long it is, and the catalogued checksum.
type needleRef struct {
	bundle int
	off    int64 // payload offset within the bundle file
	size   int
	sum    [32]byte
}

// cacheEntry is one warm payload view: either the caller's Put buffer
// retained by reference, or a pooled buffer filled by a cold load (the
// engine holds one reference, released when the entry is evicted).
type cacheEntry struct {
	b   []byte
	buf *iovec.Buf
}

// Pack is the durable engine for one node.
type Pack struct {
	node topology.NodeID
	dir  string
	cfg  PackConfig

	index map[string]needleRef
	cache map[string]cacheEntry

	bundles  []*os.File // open bundle files, index = bundle number
	active   int        // bundle currently appended to
	w        *bufio.Writer
	wOff     int64 // next append offset in the active bundle
	dirty    bool  // unflushed buffered writes
	lastSync vtime.Time
	unsynced int64 // bytes appended since the last durable point

	hub   *telemetry.Hub
	stats Stats
}

// OpenPack opens (or creates) a node's bundle directory, scans every
// bundle's needles to rebuild the index, truncates a torn tail if the
// last record was cut mid-write, and arms the last bundle for append.
func OpenPack(k *vtime.Kernel, node topology.NodeID, dir string, cfg PackConfig) (*Pack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &Pack{
		node:  node,
		dir:   dir,
		cfg:   cfg.withDefaults(),
		index: make(map[string]needleRef),
		cache: make(map[string]cacheEntry),
		hub:   telemetry.For(k),
	}
	bindStats(k, &e.stats)
	// Fsync backpressure: bytes written but not yet durable. GaugeFunc
	// registrations sum, so a multi-node grid reports the fleet-wide
	// backlog under one name.
	e.hub.Registry().GaugeFunc("store.fsync_backlog_bytes", func() int64 {
		return atomic.LoadInt64(&e.unsynced)
	})

	names, err := e.bundleNames()
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		if err := e.rollBundle(); err != nil {
			return nil, err
		}
		return e, nil
	}
	for i, name := range names {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR, 0o644)
		if err != nil {
			e.Close()
			return nil, err
		}
		e.bundles = append(e.bundles, f)
		end, err := e.scanBundle(i, f)
		if err != nil {
			e.Close()
			return nil, err
		}
		e.active, e.wOff = i, end
	}
	e.w = bufio.NewWriter(&offsetWriter{f: e.bundles[e.active], off: &e.wOff})
	return e, nil
}

// bundleNames lists bundle files sorted by number.
func (e *Pack) bundleNames() ([]string, error) {
	ents, err := os.ReadDir(e.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "bundle-") && strings.HasSuffix(ent.Name(), ".pack") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// offsetWriter appends to f at *off, advancing it — bufio needs a
// plain Writer, and the engine needs to know where every needle
// landed.
type offsetWriter struct {
	f   *os.File
	off *int64
}

func (ow *offsetWriter) Write(p []byte) (int, error) {
	n, err := ow.f.WriteAt(p, *ow.off)
	*ow.off += int64(n)
	return n, err
}

// scanBundle replays one bundle's needles into the index, returning
// the end offset of the last valid record. An invalid header or a body
// running past EOF is a torn tail: everything from that offset on is
// truncated away and the scan stops.
func (e *Pack) scanBundle(bundle int, f *os.File) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	fileLen := fi.Size()
	var off int64
	var hdr [needleHdrLen]byte
	for off < fileLen {
		valid := false
		var keyLen, size int
		var flags byte
		var sum [32]byte
		if off+needleHdrLen <= fileLen {
			if _, err := f.ReadAt(hdr[:], off); err != nil {
				return 0, err
			}
			if binary.LittleEndian.Uint32(hdr[0:4]) == needleMagic &&
				crc32.ChecksumIEEE(hdr[:47]) == binary.LittleEndian.Uint32(hdr[47:51]) {
				flags = hdr[4]
				keyLen = int(binary.LittleEndian.Uint16(hdr[5:7]))
				size = int(binary.LittleEndian.Uint64(hdr[7:15]))
				copy(sum[:], hdr[15:47])
				if off+needleHdrLen+int64(keyLen)+int64(size) <= fileLen {
					valid = true
				}
			}
		}
		if !valid {
			// Torn tail: the record was cut mid-write. Drop it and
			// everything after — the index keeps whatever the last
			// complete needle said.
			if err := f.Truncate(off); err != nil {
				return 0, err
			}
			atomic.AddInt64(&e.stats.TornTails, 1)
			e.hub.Note("store", "torn tail truncated", int(e.node), off, fileLen-off)
			return off, nil
		}
		keyb := make([]byte, keyLen)
		if _, err := f.ReadAt(keyb, off+needleHdrLen); err != nil {
			return 0, err
		}
		key := string(keyb)
		if flags&flagTombstone != 0 {
			delete(e.index, key)
		} else {
			e.index[key] = needleRef{
				bundle: bundle,
				off:    off + needleHdrLen + int64(keyLen),
				size:   size,
				sum:    sum,
			}
		}
		off += needleHdrLen + int64(keyLen) + int64(size)
	}
	return off, nil
}

// rollBundle closes out the active bundle and opens the next one.
func (e *Pack) rollBundle() error {
	if e.w != nil {
		if err := e.w.Flush(); err != nil {
			return err
		}
		e.dirty = false
	}
	n := len(e.bundles)
	f, err := os.OpenFile(
		filepath.Join(e.dir, fmt.Sprintf("bundle-%06d.pack", n)),
		os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	e.bundles = append(e.bundles, f)
	e.active, e.wOff = n, 0
	e.w = bufio.NewWriter(&offsetWriter{f: f, off: &e.wOff})
	if n > 0 {
		atomic.AddInt64(&e.stats.BundleRolls, 1)
	}
	return nil
}

// encodeHeader fills hdr for one needle.
func encodeHeader(hdr *[needleHdrLen]byte, flags byte, key string, size int, sum [32]byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], needleMagic)
	hdr[4] = flags
	binary.LittleEndian.PutUint16(hdr[5:7], uint16(len(key)))
	binary.LittleEndian.PutUint64(hdr[7:15], uint64(size))
	copy(hdr[15:47], sum[:])
	binary.LittleEndian.PutUint32(hdr[47:51], crc32.ChecksumIEEE(hdr[:47]))
}

// appendNeedle writes one needle through the buffered writer as a
// gather write — header, key and payload are handed to the writer as
// views in place (Vec.WriteTo), never flattened into a staging copy.
// Returns the payload offset.
func (e *Pack) appendNeedle(p *vtime.Proc, flags byte, key string, data []byte, sum [32]byte) (int64, error) {
	if len(key) > 0xFFFF {
		return 0, fmt.Errorf("store: key too long (%d bytes)", len(key))
	}
	if e.wOff+int64(e.w.Buffered()) >= e.cfg.BundleMaxBytes {
		if err := e.rollBundle(); err != nil {
			return 0, err
		}
	}
	start := e.wOff + int64(e.w.Buffered())
	var hdr [needleHdrLen]byte
	encodeHeader(&hdr, flags, key, len(data), sum)
	v := iovec.Make(hdr[:], []byte(key), data)
	if _, err := v.WriteTo(e.w); err != nil {
		return 0, err
	}
	e.dirty = true
	needleLen := needleHdrLen + len(key) + len(data)
	atomic.AddInt64(&e.unsynced, int64(needleLen))
	atomic.AddInt64(&e.stats.NeedlesWritten, 1)
	atomic.AddInt64(&e.stats.BundleBytes, int64(needleLen))
	p.Consume(model.DiskNeedleCost + model.DiskWritePerByte.Cost(needleLen))
	e.maybeSync(p)
	return start + needleHdrLen + int64(len(key)), nil
}

// maybeSync is the fsync batcher: when the last durable point is more
// than syncBudget of virtual time ago, flush buffered writes and pay
// one FsyncCost for everything since — group commit on a time budget.
func (e *Pack) maybeSync(p *vtime.Proc) {
	if p.Now().Sub(e.lastSync) < syncBudget {
		return
	}
	e.flush()
	e.lastSync = p.Now()
	atomic.StoreInt64(&e.unsynced, 0)
	atomic.AddInt64(&e.stats.Fsyncs, 1)
	p.Consume(model.FsyncCost)
}

// flush pushes buffered appends into the file (the simulation's
// durable point; the real fsync syscall is skipped — the virtual
// FsyncCost models it, and tests simulate crashes by truncating files,
// not by killing the process).
func (e *Pack) flush() {
	if e.w != nil && e.dirty {
		if err := e.w.Flush(); err != nil {
			panic(fmt.Sprintf("store: bundle flush: %v", err))
		}
		e.dirty = false
	}
}

// evict drops a warm cache entry, releasing the engine's reference on
// pooled cold-load buffers.
func (e *Pack) evict(key string) {
	if ce, ok := e.cache[key]; ok {
		if ce.buf != nil {
			ce.buf.Release()
		}
		delete(e.cache, key)
	}
}

// Put appends a needle and indexes it. The data slice is retained as
// the warm serving view — the same zero-copy contract as the memory
// backend.
func (e *Pack) Put(p *vtime.Proc, key string, data []byte, sum [32]byte) error {
	off, err := e.appendNeedle(p, 0, key, data, sum)
	if err != nil {
		return err
	}
	e.index[key] = needleRef{bundle: e.active, off: off, size: len(data), sum: sum}
	e.evict(key)
	e.cache[key] = cacheEntry{b: data}
	atomic.AddInt64(&e.stats.Puts, 1)
	return nil
}

// load returns the payload view for key, reading it from the bundle
// into a pooled buffer when the cache is cold. Charges nothing itself;
// the caller charges (Read does, Get does not).
func (e *Pack) load(key string) ([]byte, bool, bool) {
	ref, ok := e.index[key]
	if !ok {
		return nil, false, false
	}
	if ce, ok := e.cache[key]; ok {
		return ce.b, true, false
	}
	if ref.bundle == e.active {
		e.flush()
	}
	b := iovec.Get(ref.size)
	if _, err := e.bundles[ref.bundle].ReadAt(b.Bytes(), ref.off); err != nil {
		panic(fmt.Sprintf("store: needle read node=%d key=%q: %v", e.node, key, err))
	}
	e.cache[key] = cacheEntry{b: b.Bytes(), buf: b}
	atomic.AddInt64(&e.stats.ColdLoads, 1)
	return b.Bytes(), true, true
}

// Get returns the payload view without charging virtual time.
func (e *Pack) Get(key string) ([]byte, bool) {
	b, ok, _ := e.load(key)
	return b, ok
}

// Read returns the payload view, charging seek + streaming read cost
// when the needle had to come off the platter.
func (e *Pack) Read(p *vtime.Proc, key string) ([]byte, bool) {
	b, ok, cold := e.load(key)
	if !ok {
		return nil, false
	}
	if cold {
		p.Consume(model.DiskSeekCost + model.DiskReadPerByte.Cost(len(b)))
	}
	atomic.AddInt64(&e.stats.Reads, 1)
	return b, true
}

// Sum returns the checksum recorded in the needle header.
func (e *Pack) Sum(key string) ([32]byte, bool) {
	ref, ok := e.index[key]
	return ref.sum, ok
}

// Size returns the stored payload length.
func (e *Pack) Size(key string) (int, bool) {
	ref, ok := e.index[key]
	return ref.size, ok
}

// tombstone makes a removal durable: append a tombstone needle (so a
// reopen's scan forgets the key too), drop the index entry and any
// warm view.
func (e *Pack) tombstone(p *vtime.Proc, key string) bool {
	if _, ok := e.index[key]; !ok {
		return false
	}
	if _, err := e.appendNeedle(p, flagTombstone, key, nil, [32]byte{}); err != nil {
		panic(fmt.Sprintf("store: tombstone append node=%d key=%q: %v", e.node, key, err))
	}
	delete(e.index, key)
	e.evict(key)
	atomic.AddInt64(&e.stats.Tombstones, 1)
	return true
}

// Delete appends a tombstone for key.
func (e *Pack) Delete(p *vtime.Proc, key string) bool {
	if !e.tombstone(p, key) {
		return false
	}
	atomic.AddInt64(&e.stats.Deletes, 1)
	return true
}

// Quarantine takes a corrupt needle out of service — same durable
// tombstone as Delete, counted separately. The needle's bytes stay in
// the bundle (a real engine would move them to a quarantine directory
// for forensics) but nothing references them anymore.
func (e *Pack) Quarantine(p *vtime.Proc, key string) bool {
	if !e.tombstone(p, key) {
		return false
	}
	atomic.AddInt64(&e.stats.Quarantines, 1)
	return true
}

// Verify is the scrub path: it always re-reads the needle's bytes from
// the bundle file — never the warm cache, which would defeat the point
// of auditing — and checks them against the header checksum, charging
// sequential read plus hash cost.
func (e *Pack) Verify(p *vtime.Proc, key string) error {
	ref, ok := e.index[key]
	if !ok {
		return ErrNoKey
	}
	if ref.bundle == e.active {
		e.flush()
	}
	b := iovec.Get(ref.size)
	defer b.Release()
	if _, err := e.bundles[ref.bundle].ReadAt(b.Bytes(), ref.off); err != nil {
		panic(fmt.Sprintf("store: verify read node=%d key=%q: %v", e.node, key, err))
	}
	atomic.AddInt64(&e.stats.Verifies, 1)
	p.Consume(model.DiskReadPerByte.Cost(ref.size) + model.MemcpyPerByte.Cost(ref.size))
	if sha256.Sum256(b.Bytes()) != ref.sum {
		return ErrCorrupt
	}
	return nil
}

// Corrupt flips one payload byte on disk (chaos hook for audit/repair
// tests and benches) and drops the warm view so reads observe the
// damage.
func (e *Pack) Corrupt(key string) bool {
	ref, ok := e.index[key]
	if !ok || ref.size == 0 {
		return false
	}
	if ref.bundle == e.active {
		e.flush()
	}
	f := e.bundles[ref.bundle]
	pos := ref.off + int64(ref.size/2)
	var one [1]byte
	if _, err := f.ReadAt(one[:], pos); err != nil {
		panic(fmt.Sprintf("store: corrupt read node=%d key=%q: %v", e.node, key, err))
	}
	one[0] ^= 0xFF
	if _, err := f.WriteAt(one[:], pos); err != nil {
		panic(fmt.Sprintf("store: corrupt write node=%d key=%q: %v", e.node, key, err))
	}
	e.evict(key)
	return true
}

// Keys returns the live keys, sorted.
func (e *Pack) Keys() []string {
	out := make([]string, 0, len(e.index))
	for k := range e.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the live key count.
func (e *Pack) Len() int { return len(e.index) }

// Bytes returns the live payload total.
func (e *Pack) Bytes() int64 {
	var n int64
	for _, ref := range e.index {
		n += int64(ref.size)
	}
	return n
}

// Close flushes buffered appends, releases warm views and closes every
// bundle file.
func (e *Pack) Close() error {
	e.flush()
	for key := range e.cache {
		e.evict(key)
	}
	var first error
	for _, f := range e.bundles {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.bundles = nil
	e.w = nil
	return first
}

// Stats returns a consistent copy of the engine's counters.
func (e *Pack) Stats() Stats { return telemetry.Load(&e.stats) }
