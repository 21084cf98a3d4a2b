package vtime

// Lane is a FIFO of one sink's events whose times never decrease: the
// packets a link finishes serializing, the arrivals at the far end of a
// fixed-latency wire. Each value keeps the (at, seq) key and the
// TraceCtx that Schedule would have given it, but only the head sits in
// the kernel's heap; the next value enters the heap when the head
// fires. Events therefore fire in exactly Schedule's order while the
// heap holds one entry per lane, not one per value in flight. A value
// pushed earlier than the lane's tail becomes an ordinary event. A Lane
// is embedded by value and set up with Init; it must not be copied
// afterwards.
type Lane[T any] struct {
	k       *Kernel
	sink    func(T)
	fire    func() // pre-bound pop: the handler of the head's heap entry
	vals    []T    // ring, a power of two long: n values from head on
	keys    []laneKey
	head, n int
	last    Time // time of the tail value
}

// laneKey is a value's heap key, kept for every value but the head,
// whose key is in the heap.
type laneKey struct {
	at  Time
	seq int64
	ctx TraceCtx
}

// Init binds l to k and to sink, which receives each value in kernel
// context at its time.
func (l *Lane[T]) Init(k *Kernel, sink func(T)) {
	l.k, l.sink = k, sink
	l.fire = l.pop
}

// Len returns the number of values waiting in the lane.
func (l *Lane[T]) Len() int { return l.n }

// Push schedules sink(v) at t (clamped to now).
func (l *Lane[T]) Push(t Time, v T) {
	k := l.k
	t = max(t, k.now)
	k.seq++
	if l.n > 0 && t < l.last {
		k.events.push(event{at: t, seq: k.seq, fn: func() { l.sink(v) }, ctx: k.cur})
		return
	}
	if l.n == len(l.vals) {
		l.vals, l.keys, l.head = regrow(l.vals, l.head), regrow(l.keys, l.head), 0
	}
	i := (l.head + l.n) & (len(l.vals) - 1)
	l.vals[i], l.last = v, t
	if l.n++; l.n == 1 {
		k.events.push(event{at: t, seq: k.seq, fn: l.fire, ctx: k.cur})
	} else {
		l.keys[i] = laneKey{t, k.seq, k.cur}
	}
}

// regrow returns ring, full from head on, in order in a ring twice as long.
func regrow[E any](ring []E, head int) []E {
	s := make([]E, max(8, 2*len(ring)))
	copy(s[copy(s, ring[head:]):], ring[:head])
	return s
}

func (l *Lane[T]) pop() {
	var zero T
	v := l.vals[l.head]
	l.vals[l.head] = zero
	l.head = (l.head + 1) & (len(l.vals) - 1)
	if l.n--; l.n > 0 {
		key := &l.keys[l.head]
		l.k.events.push(event{at: key.at, seq: key.seq, fn: l.fire, ctx: key.ctx})
	}
	l.sink(v)
}

// DelayLine is Schedule(d, func() { sink(v) }) for a constant d without
// a closure per value: a Lane whose times are now+d.
type DelayLine[T any] struct {
	lane Lane[T]
	d    Duration
}

// NewDelayLine returns a line of latency d feeding sink (kernel context).
func NewDelayLine[T any](k *Kernel, d Duration, sink func(T)) *DelayLine[T] {
	l := &DelayLine[T]{d: d}
	l.lane.Init(k, sink)
	return l
}

// Push schedules sink(v) d from now.
func (l *DelayLine[T]) Push(v T) { l.lane.Push(l.lane.k.now.Add(l.d), v) }

// Alarm is a re-armable deadline, such as a TCP retransmission timer
// that every ACK round pushes back. Set gives the deadline the (at, seq)
// key and TraceCtx that Schedule would give an event scheduled there
// and then, and fn fires at that key unless Stop or another Set comes
// first. A Set to the deadline already pending keeps that key, across
// a Stop too: the first arm for an instant is the one that fires.
//
// An Alarm holds one heap entry, not one per Set. The entry is never
// due after the deadline: moving the deadline later costs nothing, and
// when the entry pops before the deadline it re-queues itself at the
// deadline's key. Only a deadline moved earlier queues a second entry;
// the one it supersedes is dropped when it pops. Neither counts in
// EventsFired. An Alarm is embedded by value and set up with Init; it
// must not be copied afterwards.
type Alarm struct {
	k     *Kernel
	fn    func()
	at    Time // deadline of the latest Set
	seq   int64
	ctx   TraceCtx
	armed bool
	qat   Time  // key of the entry that guards the deadline;
	qseq  int64 // qseq == 0: none queued
}

// Init binds a to k and to fn, which runs in kernel context.
func (a *Alarm) Init(k *Kernel, fn func()) { a.k, a.fn = k, fn }

// Set arms the alarm to fire at t (clamped to now).
func (a *Alarm) Set(t Time) {
	k := a.k
	if t < k.now {
		t = k.now
	}
	k.seq++
	if t != a.at || t == k.now {
		a.at, a.seq, a.ctx = t, k.seq, k.cur
	}
	a.armed = true
	if a.qseq == 0 || a.qat > t {
		a.queue()
	}
}

// Stop disarms the alarm; its heap entry is dropped when it pops.
func (a *Alarm) Stop() { a.armed = false }

// Armed reports whether the alarm is set and has not fired.
func (a *Alarm) Armed() bool { return a.armed }

func (a *Alarm) queue() {
	a.qat, a.qseq = a.at, a.seq
	a.k.events.push(event{at: a.at, seq: a.seq, al: a, ctx: a.ctx})
}

// due is the kernel popping one of a's entries: it returns fn if the
// entry is the deadline's key, nil otherwise.
func (a *Alarm) due(ev *event) func() {
	if ev.seq != a.qseq {
		return nil // superseded by an earlier guard
	}
	a.qseq = 0
	switch {
	case !a.armed:
	case ev.seq == a.seq:
		a.armed = false
		return a.fn
	default:
		a.queue() // the deadline moved later
	}
	return nil
}
