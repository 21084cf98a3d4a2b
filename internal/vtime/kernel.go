// Package vtime implements a deterministic, cooperative discrete-event
// simulation kernel. It is the substrate every other package in this
// repository runs on: simulated network links, protocol stacks,
// middleware systems and benchmark drivers all execute as Procs on a
// Kernel and observe a virtual clock instead of the wall clock.
//
// The execution model is strictly sequential: exactly one Proc (or one
// event handler) runs at any instant, and control is handed over
// explicitly when a Proc blocks, sleeps or exits. Runnable Procs are
// resumed in FIFO order and events fire in (time, sequence) order, so a
// simulation is fully deterministic: the same program produces the same
// virtual trace on every run, regardless of GOMAXPROCS.
//
// There is no scheduler goroutine. The scheduler loop (dispatch) runs on
// whichever goroutine is giving up the CPU: a Proc that parks or exits
// fires the due events and picks the next Proc itself. If that Proc is
// the one that parked, it just carries on (a Sleep in a lone Proc never
// leaves its goroutine); otherwise it wakes the other Proc's goroutine
// and blocks. Event handlers therefore run on the stack of whichever
// Proc happened to park last, which they cannot observe: a handler has
// no Proc of its own and may not block. The root Proc is Run's caller:
// it runs on the goroutine that called Run, every other Proc on one of
// its own.
//
// Procs are real goroutines, but the kernel guarantees mutual exclusion
// by construction, so simulation state shared between Procs needs no
// locking. Do not share kernel objects with goroutines that are not
// Procs of the same Kernel.
package vtime

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration re-exports time.Duration: virtual durations use the same unit
// and literals (time.Microsecond etc.) as wall-clock durations.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return Duration(t).String() }

// ErrKilled is the panic value used to unwind Procs when the kernel
// shuts down. User code must not recover it; the kernel does.
var errKilled = errors.New("vtime: kernel shut down")

// DeadlockError is returned by Run when every live Proc is blocked and
// no event is pending, i.e. virtual time can no longer advance.
type DeadlockError struct {
	Now     Time
	Blocked []string // "name (reason)" for each parked Proc
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("vtime: deadlock at t=%v: %d proc(s) blocked: %s",
		e.Now, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// PanicError is returned by Run when a Proc or event handler panicked.
type PanicError struct {
	ProcName string
	Value    any
	Stack    []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("vtime: panic in %q: %v\n%s", e.ProcName, e.Value, e.Stack)
}

// TraceCtx is a compact trace context: the identity of the request
// (Trace) and of the span that is causally current (Span). The kernel
// carries one ambient TraceCtx alongside the virtual clock: a spawned
// Proc inherits the spawner's context, a parked Proc saves and restores
// its own across the block, and every scheduled event captures the
// context of its scheduler and reinstates it when it fires. Because
// execution is strictly sequential, the ambient context follows the
// causal chain through the entire simulation — packet hops, ACK
// processing, I/O readiness callbacks — with no per-layer plumbing.
// It is pure data: it never influences scheduling, so determinism is
// unaffected whether or not anyone reads it.
type TraceCtx struct {
	Trace int64 // request (root span) identity; 0 = none
	Span  int64 // causally current span; 0 = none
}

// Zero reports whether the context is empty (no trace in progress).
func (c TraceCtx) Zero() bool { return c == TraceCtx{} }

type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// Proc is a simulated process: a goroutine scheduled cooperatively by
// the Kernel. All blocking simulation primitives take the Proc so that
// only code running inside a process can block.
type Proc struct {
	k     *Kernel
	name  string
	id    int64
	state procState
	// Why blocked, for deadlock diagnostics: the message is parkKind +
	// parkName, joined only when a DeadlockError is built.
	parkKind, parkName string

	resume   chan struct{} // dispatch -> p's goroutine: run
	daemon   bool
	unparkFn func() // cached unpark closure for Sleep/Yield scheduling
	ctx      TraceCtx
}

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this Proc belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// event is one entry of the event heap, held by value: the ordering key
// (at, seq) sits in the heap's own backing array, so a sift touches no
// other memory, and a fire-and-forget event allocates nothing.
type event struct {
	at  Time
	seq int64
	fn  func()   // Schedule, Lane: the handler; After/At, Alarm: nil
	tm  *Timer   // cancellable events only; tm.fn == nil marks a tombstone
	al  *Alarm   // an Alarm's entry; al.due tells whether it fires
	ctx TraceCtx // scheduler's ambient context, reinstated at fire time
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a 4-ary min-heap on (at, seq): half the levels of a
// binary heap, with the four children of a node adjacent in memory.
// Sifting moves a hole along the path instead of swapping, and the
// comparisons are direct calls, not container/heap's interface calls.
// (at, seq) is a total order, so the pop sequence does not depend on
// the heap's shape.
type eventHeap []event

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

// pop removes and returns the earliest event of a non-empty heap.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = event{} // drop the handler and Timer references
	s = s[:n]
	*h = s
	if n > 0 {
		s.down(0, last)
	}
	return top
}

// down fills the hole at i with e or, while a child is earlier than e,
// with the earliest child, moving the hole towards the leaves.
func (s eventHeap) down(i int, e event) {
	for {
		first := 4*i + 1
		if first >= len(s) {
			break
		}
		min := first
		for c := first + 1; c < first+4 && c < len(s); c++ {
			if s[c].before(&s[min]) {
				min = c
			}
		}
		if !s[min].before(&e) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = e
}

// init restores the heap order over arbitrary contents.
func (s eventHeap) init() {
	if len(s) < 2 {
		return
	}
	for i := (len(s) - 2) / 4; i >= 0; i-- {
		s.down(i, s[i])
	}
}

// Kernel is a discrete-event scheduler. Create one with NewKernel, spawn
// Procs with Go, then call Run.
type Kernel struct {
	now        Time
	seq        int64
	events     eventHeap
	tombstones int     // Stop-cancelled entries still sitting in the heap
	runnable   []*Proc // FIFO, head-indexed so the backing array is reused
	rhead      int
	procs      map[int64]*Proc
	root       *Proc // runs on Run's goroutine; the simulation ends with it
	running    *Proc
	dead       bool
	failure    error
	nprocs     int64
	cur        TraceCtx // ambient trace context of the running Proc/event

	// Stats, exposed for tests and the bench harness. ProcSwitches
	// counts every resume of a Proc, including a Proc resuming itself
	// out of its own park; Handoffs counts only the resumes that woke
	// another goroutine.
	EventsFired   int64
	ProcSwitches  int64
	Handoffs      int64
	ProcsSpawned  int64
	ProcsFinished int64

	// Telemetry is an opaque per-kernel observability slot, set by
	// internal/telemetry.Attach. vtime only knows the FailureObserver
	// facet so the dependency points outward.
	Telemetry any
}

// FailureObserver is implemented by a telemetry hub that wants to hear
// about kernel failures (deadlock, proc panic) before Run returns —
// the flight-recorder dump hook.
type FailureObserver interface{ KernelFailure(err error) }

// notifyFailure tells an attached observer about a terminal error.
func (k *Kernel) notifyFailure(err error) {
	if err == nil {
		return
	}
	if fo, ok := k.Telemetry.(FailureObserver); ok {
		fo.KernelFailure(err)
	}
}

// NewKernel returns an empty kernel at t=0.
func NewKernel() *Kernel {
	return &Kernel{procs: make(map[int64]*Proc)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// TraceCtx returns the ambient trace context of whatever is currently
// executing (Proc or event handler).
func (k *Kernel) TraceCtx() TraceCtx { return k.cur }

// SetTraceCtx replaces the ambient trace context and returns the
// previous one, for save/restore around an explicit context handoff
// (entering a root span, adopting a wire-carried context).
func (k *Kernel) SetTraceCtx(c TraceCtx) TraceCtx {
	prev := k.cur
	k.cur = c
	return prev
}

// Go spawns a new Proc named name running fn. It may be called before
// Run or from inside a running Proc or event handler. The new Proc is
// appended to the runnable queue; it starts when the scheduler reaches
// it. Procs that outlive the root Proc (network pollers, daemons) are
// unwound when Run returns.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := k.newProc(name)
	go p.run(fn)
	return p
}

// newProc makes a runnable Proc that has no goroutine yet.
func (k *Kernel) newProc(name string) *Proc {
	if k.dead {
		panic("vtime: Go on dead kernel")
	}
	k.nprocs++
	p := &Proc{
		k:      k,
		name:   name,
		id:     k.nprocs,
		state:  stateRunnable,
		resume: make(chan struct{}),
		ctx:    k.cur, // inherit the spawner's trace context
	}
	p.unparkFn = p.unpark
	k.procs[p.id] = p
	k.ProcsSpawned++
	k.runnable = append(k.runnable, p)
	return p
}

// run is the goroutine of every Proc but root: wait for the first
// resume, run fn, pass the CPU on.
func (p *Proc) run(fn func(p *Proc)) {
	k := p.k
	<-p.resume
	// A Proc spawned but never resumed before the kernel shut down must
	// not start on the dead kernel.
	if !k.dead && p.call(fn) {
		k.dispatch(nil)
	} else {
		k.root.resume <- struct{}{} // unwound by teardown: back to Run
	}
}

// call runs fn as the body of p, which has just been resumed for the
// first time, and reports whether p came to its end: false if the
// kernel's shutdown unwound it. A panic of fn's own ends p and becomes
// the kernel's failure.
func (p *Proc) call(fn func(p *Proc)) (ended bool) {
	k := p.k
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errKilled) {
				return
			}
			if k.failure == nil {
				k.failure = &PanicError{ProcName: p.name, Value: r, Stack: debug.Stack()}
			}
		}
		p.state = stateDone
		delete(k.procs, p.id)
		k.ProcsFinished++
		k.running = nil
		ended = true
	}()
	k.cur = p.ctx
	fn(p)
	return
}

// GoDaemon is Go for Procs that are expected to outlive the root Proc
// (pollers, servers). Daemons do not count toward deadlock detection:
// a simulation where only daemons remain blocked terminates normally.
func (k *Kernel) GoDaemon(name string, fn func(p *Proc)) *Proc {
	p := k.Go(name, fn)
	p.daemon = true
	return p
}

// Timer is a cancellable scheduled event.
type Timer struct {
	k  *Kernel
	fn func() // nil once fired or stopped
}

// Stop cancels the timer; it is a no-op if the timer already fired.
// It returns true if the call prevented the timer from firing.
// Stopped timers leave a tombstone in the event heap; the kernel
// compacts the heap when tombstones outnumber live entries, so a
// workload that arms and cancels timers at a high rate (a polling
// WaitTimeout) cannot grow the heap without bound; see also Alarm.
func (t *Timer) Stop() bool {
	if t.fn == nil {
		return false
	}
	t.fn = nil // tombstone; heap entry is skipped when popped
	t.k.tombstones++
	t.k.maybeCompact()
	return true
}

// After schedules fn to run at now+d in scheduler context. Handlers must
// be short and non-blocking: they typically complete operations and wake
// Procs. Blocking primitives panic if used from handler context.
func (k *Kernel) After(d Duration, fn func()) *Timer {
	t := &Timer{k: k, fn: fn}
	k.push(d, nil, t)
	return t
}

// At schedules fn at absolute virtual time t (clamped to now).
func (k *Kernel) At(t Time, fn func()) *Timer {
	d := t.Sub(k.now)
	return k.After(d, fn)
}

// Schedule is After for fire-and-forget events: no Timer handle is
// returned, so the event lives in the heap's backing array alone and
// costs no allocation. Hot paths (cost charges, Proc wake-ups; a FIFO
// of non-decreasing times is a Lane) schedule millions of these.
// Timing and ordering are identical to After.
func (k *Kernel) Schedule(d Duration, fn func()) { k.push(d, fn, nil) }

// ScheduleAt is Schedule at absolute virtual time t (clamped to now).
func (k *Kernel) ScheduleAt(t Time, fn func()) { k.Schedule(t.Sub(k.now), fn) }

func (k *Kernel) push(d Duration, fn func(), tm *Timer) {
	if d < 0 {
		d = 0
	}
	k.seq++
	k.events.push(event{at: k.now.Add(d), seq: k.seq, fn: fn, tm: tm, ctx: k.cur})
}

// maybeCompact rebuilds the event heap without tombstones once they
// outnumber the live entries. Pop order is governed by the total
// (at, seq) order, so compaction never changes which event fires next.
func (k *Kernel) maybeCompact() {
	if k.tombstones <= len(k.events)/2 || len(k.events) < 64 {
		return
	}
	live := k.events[:0]
	for i := range k.events {
		if ev := &k.events[i]; ev.tm == nil || ev.tm.fn != nil {
			live = append(live, *ev)
		}
	}
	clear(k.events[len(live):])
	k.events = live
	k.tombstones = 0
	k.events.init()
}

// Run executes the simulation: it runs root as a Proc on the calling
// goroutine and schedules Procs and events until root returns. It then
// unwinds any remaining Procs and returns. Run returns an error if any
// Proc or event handler panicked or if the simulation deadlocked (no
// runnable Proc, no pending event, and at least one non-daemon Proc
// blocked) before root completed.
func (k *Kernel) Run(root func(p *Proc)) error {
	if k.dead {
		return errors.New("vtime: Run on dead kernel")
	}
	p := k.newProc("root")
	k.root = p
	if !k.dispatch(p) { // Procs spawned before Run go first
		<-p.resume
	}
	if !k.dead {
		p.call(root)
	}
	p.state = stateDone
	k.notifyFailure(k.failure)
	k.teardown()
	return k.failure
}

// dispatch is the scheduler loop. It runs on the goroutine that is
// giving up the CPU (self's, when a Proc parks; self is nil for a Proc
// that has ended): resume runnable Procs in FIFO order, fire events in
// (at, seq) order when none is runnable. It reports whether the Proc to
// run next is self, in which case the caller just carries on. Otherwise
// it has passed the CPU to another goroutine and the caller must touch
// no kernel state until it is resumed itself.
func (k *Kernel) dispatch(self *Proc) (resumed bool) {
	defer k.handlerPanicked(self, &resumed)
	for k.failure == nil {
		if k.rhead < len(k.runnable) {
			p := k.runnable[k.rhead]
			k.runnable[k.rhead] = nil
			k.rhead++
			if k.rhead == len(k.runnable) {
				k.runnable = k.runnable[:0]
				k.rhead = 0
			}
			p.state = stateRunning
			k.running = p
			k.ProcSwitches++
			if p == self {
				return true
			}
			k.Handoffs++
			p.resume <- struct{}{}
			return false
		}
		if !k.fireNextEvent() {
			// Nothing runnable, nothing scheduled, and root still blocked.
			k.failure = k.deadlock()
			break
		}
	}
	return k.halt(self)
}

// halt ends the simulation before root has returned: park points see
// the dead kernel and unwind, root's first, which takes control back to
// Run. It reports whether the caller is root itself, which then has
// nobody to wait for.
func (k *Kernel) halt(self *Proc) bool {
	k.dead = true
	if self == k.root {
		return true
	}
	k.root.resume <- struct{}{}
	return false
}

// handlerPanicked, deferred by dispatch, turns a panic in an event
// handler into the kernel's failure. The Proc whose goroutine hosted
// the handler is not the culprit: dispatch returns false to it, so it
// stays parked and is unwound with the others.
func (k *Kernel) handlerPanicked(self *Proc, resumed *bool) {
	if r := recover(); r != nil {
		if k.failure == nil {
			k.failure = &PanicError{ProcName: "event handler", Value: r, Stack: debug.Stack()}
		}
		*resumed = k.halt(self)
	}
}

// fireNextEvent pops events until one live event has run; it reports
// whether any event fired.
func (k *Kernel) fireNextEvent() bool {
	for len(k.events) > 0 {
		ev := k.events.pop()
		fn := ev.fn
		switch {
		case ev.tm != nil:
			if fn = ev.tm.fn; fn == nil {
				k.tombstones-- // cancelled; its tombstone leaves the heap here
				continue
			}
			ev.tm.fn = nil // fired: a later Stop reports false
		case ev.al != nil:
			if fn = ev.al.due(&ev); fn == nil {
				continue // not the alarm's deadline: re-queued or dropped
			}
		}
		if ev.at > k.now {
			k.now = ev.at
		}
		k.cur = ev.ctx
		k.EventsFired++
		fn()
		return true
	}
	return false
}

// deadlock builds a DeadlockError if a non-daemon Proc is blocked.
func (k *Kernel) deadlock() error {
	var blocked []string
	stuck := false
	for _, p := range k.procs {
		if p.state == stateBlocked {
			blocked = append(blocked, fmt.Sprintf("%s (%s%s)", p.name, p.parkKind, p.parkName))
			if !p.daemon {
				stuck = true
			}
		}
	}
	if !stuck {
		return nil
	}
	sort.Strings(blocked)
	return &DeadlockError{Now: k.now, Blocked: blocked}
}

// teardown unwinds every remaining Proc by resuming it with the kernel
// marked dead: park points panic errKilled, which call swallows, and a
// Proc that was never resumed returns without running. Each passes the
// CPU back to Run's goroutine, root's, when it is done. This prevents
// goroutine leaks across tests.
func (k *Kernel) teardown() {
	k.dead = true
	for _, p := range k.procs {
		if p.state == stateBlocked || p.state == stateRunnable {
			p.resume <- struct{}{}
			<-k.root.resume
		}
	}
	k.runnable = nil
	k.rhead = 0
	k.events = nil
}

// park blocks the calling Proc until something re-queues it via unpark.
// kind and name, concatenated, are the reason shown in deadlock
// diagnostics; they are kept apart so that parking allocates nothing.
func (p *Proc) park(kind, name string) {
	k := p.k
	if k.running != p {
		panic(fmt.Sprintf("vtime: park of %q from outside its own context", p.name))
	}
	p.state = stateBlocked
	p.parkKind, p.parkName = kind, name
	p.ctx = k.cur // save ambient context across the block
	k.running = nil
	if !k.dispatch(p) {
		<-p.resume
	}
	if k.dead {
		panic(errKilled)
	}
	k.cur = p.ctx
}

// unpark moves p from blocked to the back of the runnable queue. It is
// idempotent for already-runnable Procs and must be called from kernel
// context (another Proc or an event handler).
func (p *Proc) unpark() {
	if p.state != stateBlocked {
		return
	}
	p.state = stateRunnable
	p.k.runnable = append(p.k.runnable, p)
}

// Yield gives other runnable Procs and due events a chance to run before
// p continues, without advancing virtual time.
func (p *Proc) Yield() {
	p.k.Schedule(0, p.unparkFn)
	p.park("yield", "")
}

// Sleep suspends p for virtual duration d.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.k.Schedule(d, p.unparkFn)
	p.park("sleep", "")
}

// Consume models CPU time spent by this process: it advances virtual
// time by d exactly like Sleep but documents intent at call sites
// (marshalling cost, copy cost, protocol processing).
func (p *Proc) Consume(d Duration) { p.Sleep(d) }
