// Package group is grid-wide hierarchical group communication: the
// collective patterns of the parallel world (multicast, reduce,
// barrier, gather) stretched across the distributed world's sites.
//
// The paper places grid middleware at a crossroads — collectives are
// native inside a SAN but nothing composes them *across* clusters, so
// a k-replica WAN fan-out pays k full wide-area transfers. A Group is
// formed from a member list and consults the topology to build a
// deterministic two-tier spanning tree: one elected leader per site,
// binomial inter-leader edges across the WAN, binomial intra-site
// fan-out below each leader. Every tree edge is an ordinary session
// channel, so the selector still picks the substrate per hop — striped
// pstreams + gsec on WAN leader edges, the cached 2-rank Circuit
// inside a machine room — and large payloads pipeline chunk by chunk:
// a chunk is forwarded downstream while the next is still arriving.
// The result is ~1 WAN crossing per remote site instead of one per
// remote member.
//
// Edge lifetime follows the substrate: WAN/LAN/local edges are opened
// once and cached on the Group, but SAN edges are opened per operation
// — the session layer's SAN substrate is a per-pair circuit serialized
// by a semaphore, and holding it between operations would starve every
// other session on that pair.
//
// A group keeps no liveness view. Its membership is the member list
// passed to New; an operation through a dead member fails on its
// edges, and the caller retries over a new group of the survivors (the
// datagrid's fan-out retries do exactly that).
package group

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"padico/internal/iovec"
	"padico/internal/model"
	"padico/internal/selector"
	"padico/internal/session"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// Exported errors.
var (
	// ErrNoMembers reports a group built from an empty member list.
	ErrNoMembers = errors.New("group: no members")
	// ErrNotMember reports an operation rooted outside the group.
	ErrNotMember = errors.New("group: root is not a member")
	// ErrEdgeFailed reports a tree edge that died or timed out
	// mid-operation; cached edges are reset, so a retry re-provisions.
	ErrEdgeFailed = errors.New("group: tree edge failed or timed out")
)

// MulticastError reports members whose delivery failed end-to-end
// verification (or was discarded by the fault hook). The remaining
// members received and verified their copy.
type MulticastError struct {
	Tag     string
	Attempt int
	Failed  []topology.NodeID // sorted
}

func (e *MulticastError) Error() string {
	return fmt.Sprintf("group: multicast %q attempt %d: %d member(s) failed verification: %v",
		e.Tag, e.Attempt, len(e.Failed), e.Failed)
}

// Config tunes a Group. Zero values select defaults.
type Config struct {
	// Streams overrides the per-edge WAN stripe count for tree edges
	// (0 keeps the testbed preference; 1 disables striping).
	Streams int
	// StatusTimeout bounds the root's wait for subtree delivery
	// statuses before the multicast is declared lost (default 120 s of
	// virtual time).
	StatusTimeout time.Duration
	// InjectFault, when set, is consulted at each member after a
	// checksum-clean delivery (chaos hook for retry testing): returning
	// true discards that member's copy and reports it failed.
	InjectFault func(tag string, member topology.NodeID, attempt int) bool
}

// chunkBytes is the multicast pipelining unit.
const chunkBytes = 256 << 10

func (c Config) withDefaults() Config {
	if c.StatusTimeout <= 0 {
		c.StatusTimeout = 120 * time.Second
	}
	return c
}

// Stats counts group activity (for reporting and tests). Counters
// are bumped with atomic adds and read race-free through Group.Stats;
// with telemetry attached they also surface in the shared registry
// under the "group." prefix (aggregated across all live groups).
type Stats struct {
	Multicasts, Reduces, Barriers, Gathers int64
	// EdgesOpened / EdgeReuses trace edge provisioning: cached WAN/LAN
	// edges are opened once and reused; SAN edges reopen per operation.
	EdgesOpened, EdgeReuses int64
	// Failures counts operations that returned an error.
	Failures int64
	// TreeRebuilds counts cached trees dropped because the weather
	// declared one of their wide-area edges degraded (or down): the
	// next operation rebuilds the tree and re-provisions its edges
	// under fresh selector decisions.
	TreeRebuilds int64
}

// Group is one membership: a sorted node list plus the per-root
// spanning trees and the cached tree-edge channels. Operations on the
// same tree (same root) serialize — one protocol run per tree at a
// time; operations rooted at different members use disjoint channel
// sets and overlap, contending only for genuinely shared substrate
// (SAN pair circuits, WAN access links).
type Group struct {
	k    *vtime.Kernel
	topo *topology.Grid
	mgr  *session.Manager
	cfg  Config

	members []topology.NodeID
	trees   map[topology.NodeID]*Tree
	// edges caches non-SAN channels per (root, parent, child): each
	// tree owns its edges outright, so concurrent operations on
	// different trees never interleave on one channel.
	edges map[[3]topology.NodeID]session.Channel

	closedWAN int64                                // WAN bytes of edges already reset
	sems      map[topology.NodeID]*vtime.Semaphore // per-tree serialization
	// dirty marks tree roots whose cached tree must be rebuilt (a
	// wide-area edge's forecast crossed the degraded threshold). The
	// flag is consumed lazily at the next Tree call — never while an
	// operation is running on that tree.
	dirty map[topology.NodeID]bool

	stats  Stats
	hashed int64 // see hash; read through HashedBytes, not a registry metric
	tel    *telemetry.Hub
	hOp    *telemetry.Histogram
}

// hash is the group's only pass over payload bytes: the end-to-end
// check at each receiving member.
func (g *Group) hash(b []byte) [32]byte {
	g.hashed += int64(len(b))
	return sha256.Sum256(b)
}

// HashedBytes returns how many payload bytes the group's members have
// hashed so far: one pass per delivery, none at MulticastSum's root.
func (g *Group) HashedBytes() int64 { return g.hashed }

// Stats returns a consistent copy of the group's counters.
func (g *Group) Stats() Stats { return telemetry.Load(&g.stats) }

// New forms a group over the given members (deduplicated and sorted;
// order does not matter). Tree construction and channel provisioning
// happen lazily, per operation root.
func New(k *vtime.Kernel, topo *topology.Grid, mgr *session.Manager, members []topology.NodeID, cfg Config) (*Group, error) {
	if len(members) == 0 {
		return nil, ErrNoMembers
	}
	sorted := append([]topology.NodeID(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	dedup := sorted[:1]
	for _, m := range sorted[1:] {
		if m != dedup[len(dedup)-1] {
			dedup = append(dedup, m)
		}
	}
	g := &Group{
		k: k, topo: topo, mgr: mgr, cfg: cfg.withDefaults(),
		members: dedup,
		trees:   make(map[topology.NodeID]*Tree),
		edges:   make(map[[3]topology.NodeID]session.Channel),
		sems:    make(map[topology.NodeID]*vtime.Semaphore),
		dirty:   make(map[topology.NodeID]bool),
	}
	if h := telemetry.For(k); h != nil {
		g.tel = h
		h.Registry().BindStruct("group", &g.stats)
		g.hOp = h.Registry().Histogram("group.op_latency")
	}
	// Under weather, a degraded-threshold crossing on a wide-area edge
	// of a cached tree marks it dirty: the next operation rebuilds it
	// and re-opens its edges under fresh selector decisions.
	if w := mgr.Weather(); w != nil {
		w.Subscribe(func(a, b topology.NodeID, nw *topology.Network, f selector.Forecast) {
			g.noteWeather(a, b)
		})
	}
	return g, nil
}

// noteWeather marks every cached tree owning a wide-area edge between
// the two nodes' sites. It only sets flags (kernel-context safe, no
// virtual-time side effects); resetTree happens at the next Tree call,
// never under a running operation.
func (g *Group) noteWeather(a, b topology.NodeID) {
	s1, s2 := g.topo.Node(a).Site, g.topo.Node(b).Site
	if s1 > s2 {
		s1, s2 = s2, s1
	}
	for root, t := range g.trees {
		if g.dirty[root] {
			continue
		}
		for _, e := range t.Edges() {
			if e.Class < selector.PathWAN {
				continue
			}
			e1, e2 := g.topo.Node(e.Parent).Site, g.topo.Node(e.Child).Site
			if e1 > e2 {
				e1, e2 = e2, e1
			}
			if e1 == s1 && e2 == s2 {
				g.dirty[root] = true
				break
			}
		}
	}
}

// lockTree serializes operations per tree root; the semaphore is the
// only lock an operation holds while it queues on the session layer's
// SAN pair circuits, and it is always taken first.
func (g *Group) lockTree(p *vtime.Proc, root topology.NodeID) func() {
	sem, ok := g.sems[root]
	if !ok {
		sem = vtime.NewSemaphore(fmt.Sprintf("group:tree:%d", root), 1)
		g.sems[root] = sem
	}
	sem.Acquire(p)
	return sem.Release
}

// Members returns the sorted member list.
func (g *Group) Members() []topology.NodeID { return g.members }

// Size returns the member count.
func (g *Group) Size() int { return len(g.members) }

// Config returns the effective configuration.
func (g *Group) Config() Config { return g.cfg }

func (g *Group) isMember(n topology.NodeID) bool {
	i := sort.Search(len(g.members), func(i int) bool { return g.members[i] >= n })
	return i < len(g.members) && g.members[i] == n
}

// Tree returns (building and caching on first use) the spanning tree
// for operations rooted at root. A tree marked dirty by the weather is
// dropped first — edges closed, so the rebuild re-selects per hop —
// unless an operation is running on it, in which case the rebuild
// waits for the next call.
func (g *Group) Tree(root topology.NodeID) (*Tree, error) {
	if !g.isMember(root) {
		return nil, fmt.Errorf("%w: node %d", ErrNotMember, root)
	}
	if g.dirty[root] {
		sem, held := g.sems[root], false
		if sem != nil && !sem.TryAcquire() {
			held = true // operation in flight; rebuild later
		}
		if !held {
			g.resetTree(root)
			delete(g.trees, root)
			delete(g.dirty, root)
			atomic.AddInt64(&g.stats.TreeRebuilds, 1)
			g.tel.Note("group", "tree rebuild", int(root), 0, 0)
			if g.tel.Tracing() {
				g.tel.Instant("group", "tree_rebuild", int(root)).End()
			}
			if sem != nil {
				sem.Release()
			}
		}
	}
	if t, ok := g.trees[root]; ok {
		return t, nil
	}
	t, err := buildTree(g.topo, g.members, root)
	if err != nil {
		return nil, err
	}
	g.trees[root] = t
	return t, nil
}

// WANBytes returns the cumulative bytes this group moved across
// wide-area edges, both directions (payload down, statuses up),
// including edges already reset.
func (g *Group) WANBytes() int64 {
	total := g.closedWAN
	for _, key := range g.edgeKeys() {
		ch := g.edges[key]
		if ch.Info().Class >= selector.PathWAN {
			total += ch.Info().BytesOut + ch.Remote().Info().BytesOut
		}
	}
	return total
}

// edgeKeys returns the cached edge keys in sorted order (no map-order
// leaks into event sequences).
func (g *Group) edgeKeys() [][3]topology.NodeID {
	keys := make([][3]topology.NodeID, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		for x := 0; x < 3; x++ {
			if keys[i][x] != keys[j][x] {
				return keys[i][x] < keys[j][x]
			}
		}
		return false
	})
	return keys
}

// resetTree tears down the cached edges of one root's tree
// (accumulating their WAN byte counts first). Called after a failed
// operation: a died or timed-out protocol may leave a cached channel
// mid-message, so the next operation on this tree re-provisions from
// scratch, and any relay daemon still parked on an old channel
// unblocks (its Recv returns ErrClosed). Other roots' trees own
// disjoint channels and are untouched — a concurrent operation on a
// sibling tree keeps running.
func (g *Group) resetTree(root topology.NodeID) {
	g.closeEdges(func(key [3]topology.NodeID) bool { return key[0] == root })
}

// Close tears down every cached edge, folding their WAN byte counts
// into the cumulative total WANBytes reports. A closed group is still
// usable — edges re-provision on demand — so Close is the release
// valve for transient groups (retry subsets), not a terminal state.
// Do not call it while an operation is in flight on the group.
func (g *Group) Close() {
	g.closeEdges(func([3]topology.NodeID) bool { return true })
}

func (g *Group) closeEdges(match func([3]topology.NodeID) bool) {
	for _, key := range g.edgeKeys() {
		if !match(key) {
			continue
		}
		ch := g.edges[key]
		if ch.Info().Class >= selector.PathWAN {
			g.closedWAN += ch.Info().BytesOut + ch.Remote().Info().BytesOut
		}
		ch.Close()
		ch.Remote().Close()
		delete(g.edges, key)
	}
}

// openEdges provisions the channels of every tree edge: cached ones
// are reused, missing non-SAN ones are opened and cached under the
// tree's root, SAN ones are opened fresh and closed by the returned
// release func. SAN edges are acquired in ascending undirected-pair
// order — a global canonical order, so concurrent operations (this
// group or any other) queueing on the session layer's exclusive pair
// circuits can never deadlock in a hold-and-wait cycle.
func (g *Group) openEdges(p *vtime.Proc, t *Tree) (map[[2]topology.NodeID]session.Channel, func(), error) {
	chans := make(map[[2]topology.NodeID]session.Channel, len(t.Edges()))
	var perOp [][2]topology.NodeID
	release := func() {
		for _, key := range perOp {
			chans[key].Close()
			chans[key].Remote().Close()
		}
	}
	open := func(e Edge) (session.Channel, error) {
		opts := []session.Option{session.WithCollective()}
		if g.cfg.Streams > 0 {
			opts = append(opts, session.WithStreams(g.cfg.Streams))
		}
		return g.mgr.Open(p, e.Parent, e.Child, opts...)
	}
	var sanEdges []Edge
	for _, e := range t.Edges() {
		if e.Class == selector.PathSAN {
			sanEdges = append(sanEdges, e)
			continue
		}
		key := [3]topology.NodeID{t.Root(), e.Parent, e.Child}
		if ch, ok := g.edges[key]; ok {
			chans[[2]topology.NodeID{e.Parent, e.Child}] = ch
			atomic.AddInt64(&g.stats.EdgeReuses, 1)
			continue
		}
		ch, err := open(e)
		if err != nil {
			release()
			return nil, nil, fmt.Errorf("group: edge %d->%d: %w", e.Parent, e.Child, err)
		}
		chans[[2]topology.NodeID{e.Parent, e.Child}] = ch
		g.edges[key] = ch
		atomic.AddInt64(&g.stats.EdgesOpened, 1)
	}
	sort.Slice(sanEdges, func(i, j int) bool {
		return pairKey(sanEdges[i]) < pairKey(sanEdges[j])
	})
	for _, e := range sanEdges {
		ch, err := open(e)
		if err != nil {
			release()
			return nil, nil, fmt.Errorf("group: edge %d->%d: %w", e.Parent, e.Child, err)
		}
		key := [2]topology.NodeID{e.Parent, e.Child}
		chans[key] = ch
		perOp = append(perOp, key)
		atomic.AddInt64(&g.stats.EdgesOpened, 1)
	}
	return chans, release, nil
}

// pairKey orders edges by their undirected node pair.
func pairKey(e Edge) int64 {
	lo, hi := e.Parent, e.Child
	if lo > hi {
		lo, hi = hi, lo
	}
	return int64(lo)<<32 | int64(hi)
}

// downChannels returns n's child-edge channels in child order (WAN
// hops first, the order the tree linked them).
func downChannels(t *Tree, chans map[[2]topology.NodeID]session.Channel, n topology.NodeID) []session.Channel {
	kids := t.Children(n)
	out := make([]session.Channel, len(kids))
	for i, c := range kids {
		out[i] = chans[[2]topology.NodeID{n, c}]
	}
	return out
}

// ---------------------------------------------------------------------
// Wire protocol. Downstream on each edge: a header message — a fixed
// segment [2B taglen][8B size][32B sha256][2B attempt] plus a tag
// segment — then the payload in chunks through the channel's stream
// view (forwarded downstream as they arrive). Upstream: one status
// message per operation — [1B ok][2B nFailed] segments plus, when
// nFailed > 0, a [4B×nFailed] member-id segment covering the whole
// subtree. The shapes travel packed on a Circuit and size-delimited on
// a VLink, exactly like the datagrid's transfer protocol.

const mcastHdrLen = 2 + 8 + 32 + 2

func encodeMcastHeader(tag string, size int, sum [32]byte, attempt int) []byte {
	return iovec.NewWriter(make([]byte, 0, mcastHdrLen)).
		PutU16(uint16(len(tag))).PutU64(uint64(size)).Put(sum[:]).PutU16(uint16(attempt)).Bytes()
}

func sendStatus(q *vtime.Proc, ch session.Channel, failed []topology.NodeID) error {
	var f [3]byte // both fixed segments in one scratch: Send ends the borrow
	iovec.NewWriter(f[:1]).PutU16(uint16(len(failed)))
	if len(failed) == 0 {
		f[0] = 1
		return ch.Send(q, f[:1], f[1:])
	}
	ids := iovec.NewWriter(make([]byte, 0, 4*len(failed)))
	for _, n := range failed {
		ids.PutU32(uint32(n))
	}
	return ch.Send(q, f[:1], f[1:], ids.Bytes())
}

func recvStatus(q *vtime.Proc, ch session.Channel) (ok bool, failed []topology.NodeID, err error) {
	segs, err := ch.Recv(q, 1, 2)
	if err != nil {
		return false, nil, err
	}
	r := iovec.NewReader(segs[1])
	if n := int(r.U16()); n > 0 {
		ids, err := ch.Recv(q, 4*n)
		if err != nil {
			return false, nil, err
		}
		r = iovec.NewReader(ids[0])
		failed = make([]topology.NodeID, n)
		for i := range failed {
			failed[i] = topology.NodeID(r.U32())
		}
	}
	return segs[0][0] == 1, failed, nil
}

// ---------------------------------------------------------------------
// Multicast.

// Multicast is MulticastSum for a caller that holds no digest of data:
// it hashes the payload once, at the root.
func (g *Group) Multicast(p *vtime.Proc, root topology.NodeID, tag string, data []byte, attempt int) (map[topology.NodeID][]byte, error) {
	return g.MulticastSum(p, root, tag, data, sha256.Sum256(data), attempt)
}

// MulticastSum distributes data from root to every other member through
// the spanning tree, with chunked pipelining and sha256 end-to-end
// verification at each member against sum — the digest of data, vouched
// for by the caller (the root never hashes). It returns the verified
// copy received by each non-root member. attempt is 1-based and tags
// the operation for the fault-injection hook and retry diagnostics; pass
// 1 unless retrying. On partial failure the returned map holds the
// members that did verify and the error is a *MulticastError listing
// those that did not. On ErrEdgeFailed (a died or timed-out edge) the
// map is nil: a straggler relay may still be consuming its delivery
// virtual time, so no delivery set can be handed out safely.
func (g *Group) MulticastSum(p *vtime.Proc, root topology.NodeID, tag string, data []byte, sum [32]byte, attempt int) (map[topology.NodeID][]byte, error) {
	sp := g.tel.Begin("group", "multicast", int(root))
	if sp != nil {
		sp.Str("tag", tag).I64("bytes", int64(len(data))).
			I64("attempt", int64(attempt)).I64("members", int64(len(g.members)))
	}
	t0 := g.k.Now()
	defer func() { g.hOp.Observe(g.k.Now().Sub(t0)); sp.End() }()
	// Relays, waves and their TCP segments on every member node attach
	// under this operation (which itself joins any enclosing request).
	defer sp.Exit(sp.Enter())
	t, err := g.Tree(root)
	if err != nil {
		return nil, err
	}
	defer g.lockTree(p, root)()
	chans, release, err := g.openEdges(p, t)
	if err != nil {
		atomic.AddInt64(&g.stats.Failures, 1)
		return nil, err
	}
	results := make(map[topology.NodeID][]byte, len(g.members)-1)

	// One relay daemon per non-root member: receive from the parent
	// edge, forward chunks downstream as they arrive, verify, aggregate
	// subtree statuses upward.
	for _, e := range t.Edges() {
		child := e.Child
		up := chans[[2]topology.NodeID{e.Parent, child}].Remote()
		down := downChannels(t, chans, child)
		g.k.GoDaemon(fmt.Sprintf("group:relay:%d", child), func(q *vtime.Proc) {
			g.relayMulticast(q, child, up, down, results)
		})
	}

	// Root: header then chunks to each child, long-latency hops first.
	kids := downChannels(t, chans, root)
	hdr := encodeMcastHeader(tag, len(data), sum, attempt)
	hdrSegs := [][]byte{hdr, []byte(tag)}
	if g.tel.Tracing() {
		// The operation's trace context rides the header so every relay
		// adopts the request identity from the wire.
		hdrSegs = append(hdrSegs, telemetry.EncodeCtx(g.tel.Cur()))
	}
	var sendErr error
	for _, ch := range kids {
		if err := ch.Send(p, hdrSegs...); err != nil {
			sendErr = err
			break
		}
	}
	for off := 0; off < len(data) && sendErr == nil; {
		end := off + chunkBytes
		if end > len(data) {
			end = len(data)
		}
		for _, ch := range kids {
			// Lent: the caller holds data until the status wave is in.
			if _, err := ch.WriteLent(p, data[off:end]); err != nil {
				sendErr = err
				break
			}
		}
		off = end
	}

	// Statuses: one reader daemon per child so a dead subtree cannot
	// block the root past the timeout.
	type status struct {
		failed []topology.NodeID
		err    error
	}
	stq := vtime.NewQueue[status]("group:status")
	for _, ch := range kids {
		ch := ch
		g.k.GoDaemon("group:status", func(q *vtime.Proc) {
			_, failed, err := recvStatus(q, ch)
			stq.Push(status{failed: failed, err: err})
		})
	}
	var failed []topology.NodeID
	bad := sendErr != nil
	// A dead edge can never deliver a status: when the send already
	// failed, drain briefly instead of burning the full timeout on a
	// known-failed attempt.
	tmo := g.cfg.StatusTimeout
	if sendErr != nil {
		tmo = 100 * time.Millisecond
	}
	for range kids {
		st, ok := stq.PopTimeout(p, tmo)
		if !ok || st.err != nil {
			bad = true
			break
		}
		failed = append(failed, st.failed...)
	}
	release()
	if bad {
		// A poisoned protocol may sit mid-message on a cached channel:
		// drop this tree's so a retry re-provisions (and stale daemons
		// unblock with ErrClosed). The results map stays here — a
		// straggler relay that was mid-delivery when the timeout fired
		// may still insert into it, so handing it to the caller would
		// hand out a map another proc writes.
		g.resetTree(t.Root())
		atomic.AddInt64(&g.stats.Failures, 1)
		return nil, fmt.Errorf("%w: multicast %q attempt %d", ErrEdgeFailed, tag, attempt)
	}
	atomic.AddInt64(&g.stats.Multicasts, 1)
	if len(failed) > 0 {
		sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
		atomic.AddInt64(&g.stats.Failures, 1)
		return results, &MulticastError{Tag: tag, Attempt: attempt, Failed: failed}
	}
	return results, nil
}

// relayMulticast is one member's side of a multicast: pipeline chunks
// downstream, verify the whole payload, fold the subtree status.
func (g *Group) relayMulticast(q *vtime.Proc, self topology.NodeID,
	up session.Channel, down []session.Channel, results map[topology.NodeID][]byte) {
	hdr, err := up.Recv(q, mcastHdrLen)
	if err != nil {
		return
	}
	r := iovec.NewReader(hdr[0])
	taglen, size := int(r.U16()), int(r.U64())
	if size < 0 {
		return // a size no buffer can hold: a broken upstream, no status
	}
	var want [32]byte
	copy(want[:], r.Next(len(want)))
	attempt := int(r.U16())
	tagSeg, err := up.Recv(q, taglen)
	if err != nil {
		return
	}
	fwd := [][]byte{hdr[0], tagSeg[0]}
	if g.tel.Tracing() {
		ctxSeg, err := up.Recv(q, telemetry.CtxWireLen)
		if err != nil {
			return
		}
		// Adopt the wire-carried request context before relaying: chunk
		// forwards, verification and the status fold attribute to it.
		g.tel.SetCur(telemetry.DecodeCtx(ctxSeg[0]))
		fwd = append(fwd, ctxSeg[0])
	}
	for _, ch := range down {
		if err := ch.Send(q, fwd...); err != nil {
			return
		}
	}
	buf := make([]byte, size)
	received := 0
	for received < size {
		n, err := up.Read(q, buf[received:])
		if n > 0 {
			// Relay = retain + forward: the received bytes are lent
			// downstream as views of this member's single
			// materialization — buf is only ever appended to, and the
			// subtree's statuses come back before it is handed out — so
			// there is no re-framing and no copy on a message substrate,
			// and the vectored driver stacks add none of their own.
			for _, ch := range down {
				if _, werr := ch.WriteLent(q, buf[received:received+n]); werr != nil {
					return
				}
			}
		}
		received += n
		if err != nil {
			return // upstream died; no status, the root times out
		}
	}
	q.Consume(model.MemcpyPerByte.Cost(size)) // hand the copy to the consumer
	ok := g.hash(buf) == want
	if ok && g.cfg.InjectFault != nil && g.cfg.InjectFault(string(tagSeg[0]), self, attempt) {
		ok = false
	}
	var failed []topology.NodeID
	if ok {
		results[self] = buf
	} else {
		failed = append(failed, self)
	}
	for _, ch := range down {
		_, cf, err := recvStatus(q, ch)
		if err != nil {
			return
		}
		failed = append(failed, cf...)
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
	sendStatus(q, up, failed)
}

// ---------------------------------------------------------------------
// Reduce.

// ReduceOp combines two float64 values.
type ReduceOp func(a, b float64) float64

// Common reduce operations.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMax ReduceOp = func(a, b float64) float64 { return math.Max(a, b) }
)

// Reduce combines per-member float64 vectors up the tree with op and
// returns the result at root. contrib supplies each member's vector —
// every member MUST return the same width as root's (violations
// surface as a kernel deadlock diagnostic or a protocol error, not a
// graceful return: unlike Multicast, the bottom-up collectives carry
// no status wave to time out on). The combine order is fixed — self,
// then children in tree order — so floating-point results are
// reproducible.
func (g *Group) Reduce(p *vtime.Proc, root topology.NodeID, contrib func(topology.NodeID) []float64, op ReduceOp) ([]float64, error) {
	sp := g.tel.Begin("group", "reduce", int(root)).I64("members", int64(len(g.members)))
	t0 := g.k.Now()
	defer func() { g.hOp.Observe(g.k.Now().Sub(t0)); sp.End() }()
	// Relays, waves and their TCP segments on every member node attach
	// under this operation (which itself joins any enclosing request).
	defer sp.Exit(sp.Enter())
	t, err := g.Tree(root)
	if err != nil {
		return nil, err
	}
	defer g.lockTree(p, root)()
	chans, release, err := g.openEdges(p, t)
	if err != nil {
		atomic.AddInt64(&g.stats.Failures, 1)
		return nil, err
	}
	defer release()

	for _, e := range t.Edges() {
		child := e.Child
		up := chans[[2]topology.NodeID{e.Parent, child}].Remote()
		down := downChannels(t, chans, child)
		g.k.GoDaemon(fmt.Sprintf("group:reduce:%d", child), func(q *vtime.Proc) {
			acc := append([]float64(nil), contrib(child)...)
			for _, ch := range down {
				seg, err := ch.Recv(q, 8*len(acc))
				if err != nil {
					return
				}
				fold(acc, seg[0], op)
			}
			w := iovec.NewWriter(make([]byte, 0, 8*len(acc)))
			for _, f := range acc {
				w.PutU64(math.Float64bits(f))
			}
			up.Send(q, w.Bytes())
		})
	}
	acc := append([]float64(nil), contrib(root)...)
	for _, ch := range downChannels(t, chans, root) {
		seg, err := ch.Recv(p, 8*len(acc))
		if err != nil {
			g.resetTree(t.Root())
			atomic.AddInt64(&g.stats.Failures, 1)
			return nil, fmt.Errorf("%w: reduce", ErrEdgeFailed)
		}
		fold(acc, seg[0], op)
	}
	atomic.AddInt64(&g.stats.Reduces, 1)
	return acc, nil
}

// fold combines a child's partial result — Reduce's wire vector, one
// big-endian IEEE 754 double per element — into acc.
func fold(acc []float64, wire []byte, op ReduceOp) {
	r := iovec.NewReader(wire)
	for i := range acc {
		acc[i] = op(acc[i], math.Float64frombits(r.U64()))
	}
}

// ---------------------------------------------------------------------
// Barrier.

const (
	barrierArrive  = 0xA1
	barrierRelease = 0xA2
	barrierDone    = 0xA3
)

// Barrier blocks p until every member's relay reached the barrier:
// arrivals fold up the tree (rooted at the lowest-id member), a
// release wave fans back down, and a final done wave folds up again —
// the third traversal guarantees no message is still in flight when
// the per-operation SAN circuits are torn down.
func (g *Group) Barrier(p *vtime.Proc) error {
	root := g.members[0]
	sp := g.tel.Begin("group", "barrier", int(root)).I64("members", int64(len(g.members)))
	t0 := g.k.Now()
	defer func() { g.hOp.Observe(g.k.Now().Sub(t0)); sp.End() }()
	defer sp.Exit(sp.Enter())
	t, err := g.Tree(root)
	if err != nil {
		return err
	}
	defer g.lockTree(p, root)()
	chans, release, err := g.openEdges(p, t)
	if err != nil {
		atomic.AddInt64(&g.stats.Failures, 1)
		return err
	}
	defer release()

	for _, e := range t.Edges() {
		child := e.Child
		up := chans[[2]topology.NodeID{e.Parent, child}].Remote()
		down := downChannels(t, chans, child)
		g.k.GoDaemon(fmt.Sprintf("group:barrier:%d", child), func(q *vtime.Proc) {
			for _, ch := range down { // subtree arrivals
				if _, err := ch.Recv(q, 1); err != nil {
					return
				}
			}
			if err := up.Send(q, []byte{barrierArrive}); err != nil {
				return
			}
			if _, err := up.Recv(q, 1); err != nil { // release
				return
			}
			for _, ch := range down {
				if err := ch.Send(q, []byte{barrierRelease}); err != nil {
					return
				}
			}
			for _, ch := range down { // subtree done
				if _, err := ch.Recv(q, 1); err != nil {
					return
				}
			}
			up.Send(q, []byte{barrierDone})
		})
	}
	kids := downChannels(t, chans, root)
	fail := func() error {
		g.resetTree(t.Root())
		atomic.AddInt64(&g.stats.Failures, 1)
		return fmt.Errorf("%w: barrier", ErrEdgeFailed)
	}
	wave := func(name string) *telemetry.Span {
		return g.tel.Begin("group", name, int(root)).Parent(sp)
	}
	w := wave("wave.arrive")
	for _, ch := range kids {
		if _, err := ch.Recv(p, 1); err != nil {
			w.End()
			return fail()
		}
	}
	w.End()
	w = wave("wave.release")
	for _, ch := range kids {
		if err := ch.Send(p, []byte{barrierRelease}); err != nil {
			w.End()
			return fail()
		}
	}
	w.End()
	w = wave("wave.done")
	for _, ch := range kids {
		if _, err := ch.Recv(p, 1); err != nil {
			w.End()
			return fail()
		}
	}
	w.End()
	atomic.AddInt64(&g.stats.Barriers, 1)
	return nil
}

// ---------------------------------------------------------------------
// Gather.

// Gather collects one byte payload per member at root: each relay
// sends its own frame up, then forwards its descendants' frames — the
// inverse tree traffic pattern of Multicast. The returned map includes
// root's own contribution.
func (g *Group) Gather(p *vtime.Proc, root topology.NodeID, contrib func(topology.NodeID) []byte) (map[topology.NodeID][]byte, error) {
	sp := g.tel.Begin("group", "gather", int(root)).I64("members", int64(len(g.members)))
	t0 := g.k.Now()
	defer func() { g.hOp.Observe(g.k.Now().Sub(t0)); sp.End() }()
	// Relays, waves and their TCP segments on every member node attach
	// under this operation (which itself joins any enclosing request).
	defer sp.Exit(sp.Enter())
	t, err := g.Tree(root)
	if err != nil {
		return nil, err
	}
	defer g.lockTree(p, root)()
	chans, release, err := g.openEdges(p, t)
	if err != nil {
		atomic.AddInt64(&g.stats.Failures, 1)
		return nil, err
	}
	defer release()

	for _, e := range t.Edges() {
		child := e.Child
		up := chans[[2]topology.NodeID{e.Parent, child}].Remote()
		down := downChannels(t, chans, child)
		kids := t.Children(child)
		g.k.GoDaemon(fmt.Sprintf("group:gather:%d", child), func(q *vtime.Proc) {
			own := contrib(child)
			if err := up.Send(q, gatherFrameHdr(child, len(own)), own); err != nil {
				return
			}
			for i, ch := range down {
				for j := 0; j < t.SubtreeSize(kids[i]); j++ {
					id, payload, err := recvGatherFrame(q, ch)
					if err != nil {
						return
					}
					if err := up.Send(q, gatherFrameHdr(id, len(payload)), payload); err != nil {
						return
					}
				}
			}
		})
	}
	out := make(map[topology.NodeID][]byte, len(g.members))
	out[root] = contrib(root)
	kids := t.Children(root)
	for i, ch := range downChannels(t, chans, root) {
		for j := 0; j < t.SubtreeSize(kids[i]); j++ {
			id, payload, err := recvGatherFrame(p, ch)
			if err != nil {
				g.resetTree(t.Root())
				atomic.AddInt64(&g.stats.Failures, 1)
				return nil, fmt.Errorf("%w: gather", ErrEdgeFailed)
			}
			out[id] = payload
		}
	}
	atomic.AddInt64(&g.stats.Gathers, 1)
	return out, nil
}

// gather frame: one message of two segments, [4B id][4B len] + payload.
func gatherFrameHdr(n topology.NodeID, size int) []byte {
	return iovec.NewWriter(make([]byte, 0, 8)).PutU32(uint32(n)).PutU32(uint32(size)).Bytes()
}

func recvGatherFrame(q *vtime.Proc, ch session.Channel) (topology.NodeID, []byte, error) {
	hdr, err := ch.Recv(q, 8)
	if err != nil {
		return 0, nil, err
	}
	r := iovec.NewReader(hdr[0])
	id, size := topology.NodeID(r.U32()), int(r.U32())
	payload, err := ch.Recv(q, size)
	if err != nil {
		return 0, nil, err
	}
	return id, payload[0], nil
}
