package vtime

import "slices"

// Cond is a condition variable for simulated processes. Unlike
// sync.Cond there is no associated mutex: the kernel guarantees mutual
// exclusion, so the usual pattern is
//
//	for !predicate() {
//		cond.Wait(p)
//	}
//
// with Signal/Broadcast called by whichever Proc or event handler makes
// the predicate true. Wakeups are FIFO and deterministic.
// The wait list is a head-indexed slice rather than a re-sliced one:
// popping from the front with waiters[1:] strands the backing array's
// capacity, so a busy cond (credit windows, socket readiness) would
// reallocate on nearly every Wait. With the head index the backing is
// reused once drained. Wakeup order is unchanged (FIFO).
// The first waiter's slot is inline, so a Future's one waiter costs no
// heap array; a Cond must therefore not be copied once waited on.
type Cond struct {
	// kind + name is the park reason shown in deadlock diagnostics.
	// Queue, WaitGroup, Semaphore and Future embed a Cond by value and
	// tell themselves apart by kind, so building one concatenates and
	// allocates nothing beyond the object itself.
	kind, name string
	waiters    []*Proc
	head       int
	one        [1]*Proc // waiters' backing until a second waiter arrives
}

// NewCond returns a condition variable; name appears in deadlock
// diagnostics.
func NewCond(name string) *Cond { return &Cond{kind: "cond:", name: name} }

// Wait parks p until Signal or Broadcast. Spurious wakeups are possible
// (a Signal may race with another waiter's predicate), so always re-check
// the condition in a loop.
func (c *Cond) Wait(p *Proc) {
	c.enqueue(p)
	p.park(c.kind, c.name)
}

func (c *Cond) enqueue(p *Proc) {
	if c.waiters == nil {
		c.waiters = c.one[:0]
	}
	c.waiters = append(c.waiters, p)
}

// WaitTimeout parks p until a signal or until d elapses; it reports
// whether it was woken by a signal (true) or by the timeout (false).
// A Proc woken by Signal has already been removed from the wait list,
// so the timer firing later finds nothing to do.
func (c *Cond) WaitTimeout(p *Proc, d Duration) bool {
	timedOut := false
	timer := p.k.After(d, func() {
		for i := c.head; i < len(c.waiters); i++ {
			if c.waiters[i] == p {
				c.waiters = slices.Delete(c.waiters, i, i+1) // also nils the vacated tail slot
				timedOut = true
				p.unpark()
				return
			}
		}
	})
	c.enqueue(p)
	p.park(c.kind, c.name)
	timer.Stop()
	return !timedOut
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal() {
	if c.head == len(c.waiters) {
		return
	}
	p := c.waiters[c.head]
	c.waiters[c.head] = nil
	c.head++
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	p.unpark()
}

// Broadcast wakes every current waiter.
func (c *Cond) Broadcast() {
	for i := c.head; i < len(c.waiters); i++ {
		p := c.waiters[i]
		c.waiters[i] = nil
		p.unpark()
	}
	c.waiters = c.waiters[:0]
	c.head = 0
}

// Waiting returns the number of parked waiters.
func (c *Cond) Waiting() int { return len(c.waiters) - c.head }

// Queue is an unbounded FIFO of values with blocking Pop, the basic
// conduit between event handlers (producers, e.g. packet arrivals) and
// Procs (consumers, e.g. polling loops).
// Like Cond, the item list is head-indexed so the backing array is
// reused once drained instead of reallocating under steady traffic.
type Queue[T any] struct {
	items []T
	head  int
	cond  Cond
	// OnPush, if non-nil, runs after each Push; used by multiplexers to
	// kick a shared poller when any of many queues becomes non-empty.
	OnPush func()
}

// NewQueue returns an empty queue; name appears in deadlock diagnostics.
func NewQueue[T any](name string) *Queue[T] {
	return &Queue[T]{cond: Cond{kind: "cond:queue:", name: name}}
}

// Push appends v. Callable from Procs and event handlers.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.cond.Signal()
	if q.OnPush != nil {
		q.OnPush()
	}
}

// TryPop removes and returns the head without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

// Pop blocks p until an item is available and returns it.
func (q *Queue[T]) Pop(p *Proc) T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		q.cond.Wait(p)
	}
}

// PopTimeout is Pop bounded by d; ok is false on timeout.
func (q *Queue[T]) PopTimeout(p *Proc, d Duration) (T, bool) {
	deadline := p.Now().Add(d)
	for {
		if v, ok := q.TryPop(); ok {
			return v, true
		}
		remain := deadline.Sub(p.Now())
		if remain <= 0 {
			var zero T
			return zero, false
		}
		q.cond.WaitTimeout(p, remain)
	}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// WaitGroup mirrors sync.WaitGroup for simulated processes.
type WaitGroup struct {
	n    int
	cond Cond
}

// NewWaitGroup returns a WaitGroup; name appears in deadlock diagnostics.
func NewWaitGroup(name string) *WaitGroup {
	return &WaitGroup{cond: Cond{kind: "cond:waitgroup:", name: name}}
}

// Add adds delta to the counter.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("vtime: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.cond.Broadcast()
	}
}

// Done decrements the counter.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n != 0 {
		w.cond.Wait(p)
	}
}

// Semaphore is a counting semaphore with FIFO acquisition order.
type Semaphore struct {
	avail int
	cond  Cond
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(name string, n int) *Semaphore {
	return &Semaphore{avail: n, cond: Cond{kind: "cond:sem:", name: name}}
}

// Acquire takes one permit, blocking p until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.avail == 0 {
		s.cond.Wait(p)
	}
	s.avail--
}

// TryAcquire takes a permit without blocking; it reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.avail == 0 {
		return false
	}
	s.avail--
	return true
}

// Release returns one permit.
func (s *Semaphore) Release() {
	s.avail++
	s.cond.Signal()
}

// Future is a one-shot value container: completed at most once, awaited
// by any number of Procs. It is the kernel-level building block for
// asynchronous completions (VLink operations, MPI requests, RPC replies).
type Future[T any] struct {
	done bool
	val  T
	err  error
	cond Cond
	// Handler, if set before completion, runs in the completer's context
	// immediately upon completion (active-message style callback).
	Handler func(T, error)
}

// NewFuture returns an incomplete Future.
func NewFuture[T any](name string) *Future[T] {
	return &Future[T]{cond: Cond{kind: "cond:future:", name: name}}
}

// Complete resolves the future. Completing twice panics: completions
// represent hardware or protocol events that must be unique.
func (f *Future[T]) Complete(v T, err error) {
	if f.done {
		panic("vtime: Future completed twice")
	}
	f.done = true
	f.val = v
	f.err = err
	f.cond.Broadcast()
	if f.Handler != nil {
		f.Handler(v, err)
	}
}

// Reset makes f (or a zero Future) a fresh, incomplete Future named
// name, for the layer owning it to hand out again once every reader of
// the previous value is done. Resetting a Future with waiters panics.
func (f *Future[T]) Reset(name string) {
	if f.cond.Waiting() > 0 {
		panic("vtime: Reset of a Future with waiters")
	}
	var zero T
	f.done, f.val, f.err, f.Handler = false, zero, nil, nil
	f.cond.kind, f.cond.name = "cond:future:", name
}

// Done reports whether the future is resolved (poll interface).
func (f *Future[T]) Done() bool { return f.done }

// Wait blocks p until resolution and returns the value and error.
func (f *Future[T]) Wait(p *Proc) (T, error) {
	for !f.done {
		f.cond.Wait(p)
	}
	return f.val, f.err
}

// Value returns the resolved value and error; it panics if not done.
func (f *Future[T]) Value() (T, error) {
	if !f.done {
		panic("vtime: Value on incomplete Future")
	}
	return f.val, f.err
}
