// Package telemetry is the deterministic, virtual-time-native
// observability layer for the whole stack: a span tracer exported as
// Chrome trace_event JSON (opens directly in Perfetto), a unified
// metrics registry, and a bounded flight recorder for post-mortems.
//
// Everything is stamped with *kernel virtual time*, never wall clock,
// so a trace is a bit-identical artifact of a run — determinism tests
// pin it like any other bench table. The grid-style monitoring systems
// the literature credits with making grids operable (GMA-style
// producer/consumer pipes, NWS sensors) are substituted here by an
// in-process hub per kernel: layers produce spans/metrics, the bench
// harness and tests consume snapshots.
//
// Ownership and cost rules:
//   - A Hub is attached to at most one kernel (Attach) and all span
//     operations happen in kernel context — the strictly sequential
//     scheduler is the synchronization.
//   - Disabled paths are free: every method is nil-receiver-safe, so
//     layers instrument unconditionally; with no hub attached the cost
//     is one pointer test and zero allocations.
//   - Span records are pooled (a free list, same discipline as the
//     iovec pools and the kernel's event free list): steady-state
//     tracing allocates only when the finished-span log grows.
package telemetry

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"

	"padico/internal/iovec"
	"padico/internal/vtime"
)

// Ctx is the propagated trace context: the request (root span) identity
// and the causally current span. It is the kernel's ambient TraceCtx —
// the scheduler carries it across proc switches and event fires, so a
// span begun anywhere in the simulation attaches to the request that
// caused it. See Span.Enter for installing a root.
type Ctx = vtime.TraceCtx

// CtxWireLen is the encoded size of a Ctx on the wire.
const CtxWireLen = 8 + 8

// EncodeCtx renders a trace context as 16 big-endian bytes, for layers
// that carry it in tracing-gated wire headers (datagrid transfer
// headers, group multicast headers, adaptive session records).
func EncodeCtx(c Ctx) []byte {
	b := make([]byte, CtxWireLen)
	binary.BigEndian.PutUint64(b, uint64(c.Trace))
	binary.BigEndian.PutUint64(b[8:], uint64(c.Span))
	return b
}

// DecodeCtx parses a context encoded by EncodeCtx.
func DecodeCtx(b []byte) Ctx {
	if len(b) < CtxWireLen {
		return Ctx{}
	}
	return Ctx{Trace: int64(binary.BigEndian.Uint64(b)), Span: int64(binary.BigEndian.Uint64(b[8:]))}
}

// Hub is the per-kernel telemetry instance: tracer + registry + flight
// recorder. The zero value is unusable; create with Attach.
type Hub struct {
	k   *vtime.Kernel
	reg *Registry

	tracing bool
	nextID  int64
	spans   []spanRec
	free    *Span // recycled span handles

	flight     []FlightEvent // lazily-allocated ring
	flightIdx  int
	flightLen  int
	flightSink io.Writer
	dumps      int
	dumpLimit  int // 0 = default, <0 = unlimited (SetDumpLimit)
}

// Attach returns the kernel's hub, creating and attaching one on first
// call. Layers constructed after the attach discover it with For and
// bind their metrics; attach the hub before building the layers you
// want observed.
func Attach(k *vtime.Kernel) *Hub {
	if h := For(k); h != nil {
		return h
	}
	h := &Hub{k: k, reg: NewRegistry()}
	// Kernel scheduler counters: plain (non-atomic) fields, so they are
	// read unsynchronized — snapshot after Run returns.
	h.reg.CounterFunc("vtime.events_fired", func() int64 { return k.EventsFired })
	h.reg.CounterFunc("vtime.proc_switches", func() int64 { return k.ProcSwitches })
	h.reg.CounterFunc("vtime.procs_spawned", func() int64 { return k.ProcsSpawned })
	// Buffer-pool traffic, read against attach-time baselines so each
	// run's readings are independent of earlier runs in the process
	// (the iovec pools are package-global). Gets/frees/occupancy are
	// driven purely by simulation logic and stay deterministic; misses
	// depend on what the GC kept alive in the sync.Pools, so that
	// series is volatile — visible in snapshots and Prom exposition,
	// excluded from the pinned series JSON.
	gets0, misses0 := iovec.PoolGets(), iovec.PoolMisses()
	frees0, unpooled0 := iovec.PoolFrees(), iovec.PoolUnpooled()
	h.reg.CounterFunc("iovec.pool_gets", func() int64 { return iovec.PoolGets() - gets0 })
	h.reg.CounterFunc("iovec.pool_misses", func() int64 { return iovec.PoolMisses() - misses0 })
	h.reg.CounterFunc("iovec.pool_unpooled", func() int64 { return iovec.PoolUnpooled() - unpooled0 })
	h.reg.GaugeFunc("iovec.pool_outstanding", func() int64 {
		return (iovec.PoolGets() - gets0) - (iovec.PoolFrees() - frees0)
	})
	h.reg.MarkVolatile("iovec.pool_misses")
	k.Telemetry = h
	return h
}

// For returns the hub attached to k, or nil. The nil hub is fully
// usable: every method no-ops.
func For(k *vtime.Kernel) *Hub {
	h, _ := k.Telemetry.(*Hub)
	return h
}

// KernelFailure implements vtime.FailureObserver: a deadlock or a proc
// panic (the determinism assertions of this codebase) dumps the flight
// recorder so the post-mortem rides along with the error.
func (h *Hub) KernelFailure(err error) {
	if h == nil {
		return
	}
	h.DumpFlight("kernel failure: " + err.Error())
}

// Registry returns the hub's metrics registry (nil on a nil hub).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// EnableTracing turns the span tracer on. Off by default: metrics and
// the flight recorder are always-on cheap, spans are opt-in.
func (h *Hub) EnableTracing() {
	if h != nil {
		h.tracing = true
	}
}

// Tracing reports whether spans are being recorded. Use to gate
// argument construction that would allocate.
func (h *Hub) Tracing() bool { return h != nil && h.tracing }

// spanArg is one key/value attached to a span. Values are int64 or
// string; fixed storage, no maps.
type spanArg struct {
	key  string
	sval string
	ival int64
	str  bool
}

const maxArgs = 4

// Span is an in-flight span handle. Obtained from Begin/Instant,
// finished with End, after which the handle is recycled — do not
// retain. Nil-safe: a nil *Span ignores every call.
type Span struct {
	h      *Hub
	next   *Span // free list
	id     int64
	parent int64
	trace  int64
	cat    string
	name   string
	tid    int
	start  vtime.Time
	inst   bool
	nargs  int
	args   [maxArgs]spanArg
}

// spanRec is a finished span, stored by value in the trace log.
type spanRec struct {
	id     int64
	parent int64
	trace  int64
	cat    string
	name   string
	tid    int
	start  vtime.Time
	dur    vtime.Duration
	inst   bool
	nargs  int
	args   [maxArgs]spanArg
}

// Begin opens a span in category cat (the layer) named name, on trace
// lane tid (the node). Returns nil when tracing is off — all Span
// methods tolerate that. The span auto-parents under the ambient trace
// context: when a request is in flight, the new span joins its tree;
// otherwise it becomes a root of its own trace.
func (h *Hub) Begin(cat, name string, tid int) *Span {
	if h == nil || !h.tracing {
		return nil
	}
	s := h.free
	if s != nil {
		h.free = s.next
	} else {
		s = new(Span)
	}
	h.nextID++
	*s = Span{h: h, id: h.nextID, cat: cat, name: name, tid: tid, start: h.k.Now()}
	if cur := h.k.TraceCtx(); !cur.Zero() {
		s.trace = cur.Trace
		s.parent = cur.Span
	} else {
		s.trace = s.id
	}
	return s
}

// Cur returns the ambient trace context (zero on a nil hub).
func (h *Hub) Cur() Ctx {
	if h == nil {
		return Ctx{}
	}
	return h.k.TraceCtx()
}

// SetCur installs c as the ambient trace context — the adoption point
// for a context that arrived over the wire (a chunk header, a multicast
// header, a replayed record).
func (h *Hub) SetCur(c Ctx) {
	if h != nil {
		h.k.SetTraceCtx(c)
	}
}

// Instant opens a zero-duration instant event (retransmit fired,
// decision taken, forecast published). End it like a span.
func (h *Hub) Instant(cat, name string, tid int) *Span {
	s := h.Begin(cat, name, tid)
	if s != nil {
		s.inst = true
	}
	return s
}

// ID returns the span's id (0 on nil), for cross-proc parent linking.
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Ctx returns the span's trace context (zero on nil): its trace id and
// its own id as the causally current span — what a child would inherit.
func (s *Span) Ctx() Ctx {
	if s == nil {
		return Ctx{}
	}
	return Ctx{Trace: s.trace, Span: s.id}
}

// Enter installs s as the ambient trace context, making everything that
// executes downstream — spawned procs, scheduled events, spans on other
// nodes — attach to s's tree. It returns the previous context; restore
// it with Exit when the operation completes:
//
//	sp := tel.Begin("datagrid", "put", node)
//	defer sp.End()
//	prev := sp.Enter()
//	defer sp.Exit(prev)
func (s *Span) Enter() Ctx {
	if s == nil {
		return Ctx{}
	}
	return s.h.k.SetTraceCtx(Ctx{Trace: s.trace, Span: s.id})
}

// Exit restores the context saved by Enter (no-op on nil).
func (s *Span) Exit(prev Ctx) {
	if s != nil {
		s.h.k.SetTraceCtx(prev)
	}
}

// Parent links s under p (both may be nil), adopting p's trace.
func (s *Span) Parent(p *Span) *Span {
	if s != nil && p != nil {
		s.parent = p.id
		s.trace = p.trace
	}
	return s
}

// I64 attaches an integer argument. At most 4 arguments per span;
// extras are dropped.
func (s *Span) I64(key string, v int64) *Span {
	if s != nil && s.nargs < maxArgs {
		s.args[s.nargs] = spanArg{key: key, ival: v}
		s.nargs++
	}
	return s
}

// Str attaches a string argument.
func (s *Span) Str(key, v string) *Span {
	if s != nil && s.nargs < maxArgs {
		s.args[s.nargs] = spanArg{key: key, sval: v, str: true}
		s.nargs++
	}
	return s
}

// End closes the span at the current virtual time, appends it to the
// trace log, and recycles the handle.
func (s *Span) End() {
	if s == nil {
		return
	}
	h := s.h
	h.spans = append(h.spans, spanRec{
		id: s.id, parent: s.parent, trace: s.trace, cat: s.cat, name: s.name,
		tid: s.tid, start: s.start, dur: h.k.Now().Sub(s.start), inst: s.inst,
		nargs: s.nargs, args: s.args,
	})
	s.next = h.free
	h.free = s
}

// SpanInfo is one finished span, exposed for tests and examples.
type SpanInfo struct {
	ID, Parent, Trace int64
	Cat, Name         string
	Tid               int
	Start             vtime.Time
	Dur               vtime.Duration
	Instant           bool
	Args              string // "k=v k=v" rendering
}

// Spans returns the finished spans in completion order.
func (h *Hub) Spans() []SpanInfo {
	if h == nil {
		return nil
	}
	out := make([]SpanInfo, len(h.spans))
	for i, r := range h.spans {
		var b bytes.Buffer
		for j := 0; j < r.nargs; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			a := r.args[j]
			if a.str {
				fmt.Fprintf(&b, "%s=%s", a.key, a.sval)
			} else {
				fmt.Fprintf(&b, "%s=%d", a.key, a.ival)
			}
		}
		out[i] = SpanInfo{
			ID: r.id, Parent: r.parent, Trace: r.trace, Cat: r.cat, Name: r.name,
			Tid: r.tid, Start: r.start, Dur: r.dur, Instant: r.inst, Args: b.String(),
		}
	}
	return out
}

// usec renders virtual nanoseconds as the microsecond decimal string
// the trace_event format wants — integer math only, so the trace is
// bit-identical across runs and platforms.
func usec(ns int64) string {
	return strconv.FormatInt(ns/1000, 10) + "." + fmt.Sprintf("%03d", ns%1000)
}

// WriteTrace emits the span log as Chrome trace_event JSON: one
// process, one lane (tid) per node, spans as "X" complete events and
// instants as "i" events. Span ids, trace ids and parents ride in args.
// Wherever a span's parent lives on a *different* node, a flow arrow
// ("s" at the parent, "f" at the child) is synthesized so Perfetto
// draws the causal hop between lanes. Events appear in completion
// order; under the sequential kernel that order — like everything else
// here — is deterministic. Spans still open at export time are simply
// absent: only finished spans are in the log.
func (h *Hub) WriteTrace(w io.Writer) error {
	if h == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	bw.WriteString(`{"ph":"M","pid":1,"name":"process_name","args":{"name":"padico"}}`)
	tids := map[int]bool{}
	for _, r := range h.spans {
		tids[r.tid] = true
	}
	sorted := make([]int, 0, len(tids))
	for tid := range tids {
		sorted = append(sorted, tid)
	}
	sort.Ints(sorted)
	for _, tid := range sorted {
		fmt.Fprintf(bw, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"node %d\"}}", tid, tid)
	}
	for _, r := range h.spans {
		if r.inst {
			fmt.Fprintf(bw, ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"cat\":%q,\"name\":%q,\"args\":{",
				r.tid, usec(int64(r.start)), r.cat, r.name)
		} else {
			fmt.Fprintf(bw, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"cat\":%q,\"name\":%q,\"args\":{",
				r.tid, usec(int64(r.start)), usec(int64(r.dur)), r.cat, r.name)
		}
		fmt.Fprintf(bw, "\"span\":%d", r.id)
		if r.trace != 0 {
			fmt.Fprintf(bw, ",\"trace\":%d", r.trace)
		}
		if r.parent != 0 {
			fmt.Fprintf(bw, ",\"parent\":%d", r.parent)
		}
		for j := 0; j < r.nargs; j++ {
			a := r.args[j]
			if a.str {
				fmt.Fprintf(bw, ",%q:%q", a.key, a.sval)
			} else {
				fmt.Fprintf(bw, ",%q:%d", a.key, a.ival)
			}
		}
		bw.WriteString("}}")
	}
	// Cross-node flow arrows: one s/f pair per span whose parent sits on
	// another lane. The binding point "e" attaches each end to the slice
	// enclosing its timestamp; the s end is clamped into the parent's
	// extent so a child that outlives its parent still binds to it.
	type extent struct {
		tid        int
		start, end vtime.Time
	}
	byID := make(map[int64]extent, len(h.spans))
	for _, r := range h.spans {
		byID[r.id] = extent{tid: r.tid, start: r.start, end: r.start.Add(r.dur)}
	}
	for _, r := range h.spans {
		p, ok := byID[r.parent]
		if r.parent == 0 || !ok || p.tid == r.tid {
			continue
		}
		at := r.start
		if at > p.end {
			at = p.end
		}
		if at < p.start {
			at = p.start
		}
		fmt.Fprintf(bw, ",\n{\"ph\":\"s\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"cat\":%q,\"name\":\"flow\",\"id\":%d,\"bp\":\"e\"}",
			p.tid, usec(int64(at)), r.cat, r.id)
		fmt.Fprintf(bw, ",\n{\"ph\":\"f\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"cat\":%q,\"name\":\"flow\",\"id\":%d,\"bp\":\"e\"}",
			r.tid, usec(int64(r.start)), r.cat, r.id)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// TraceJSON renders the trace to a byte slice.
func (h *Hub) TraceJSON() []byte {
	if h == nil {
		return nil
	}
	var b bytes.Buffer
	h.WriteTrace(&b) // (*bytes.Buffer).Write cannot fail
	return b.Bytes()
}
