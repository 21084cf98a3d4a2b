package vtime

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var end Time
	if err := k.Run(func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		p.Sleep(2 * time.Millisecond)
		end = p.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if end != Time(5*time.Millisecond) {
		t.Fatalf("end = %v, want 5ms", end)
	}
}

func TestZeroSleepYields(t *testing.T) {
	k := NewKernel()
	order := []string{}
	if err := k.Run(func(p *Proc) {
		k.Go("b", func(q *Proc) { order = append(order, "b") })
		p.Sleep(0)
		order = append(order, "a")
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
	if k.Now() != 0 {
		t.Fatalf("clock moved on zero sleep: %v", k.Now())
	}
}

func TestEventOrderDeterministic(t *testing.T) {
	k := NewKernel()
	var got []int
	if err := k.Run(func(p *Proc) {
		// Same timestamp: must fire in scheduling order.
		k.After(time.Millisecond, func() { got = append(got, 1) })
		k.After(time.Millisecond, func() { got = append(got, 2) })
		k.After(time.Microsecond, func() { got = append(got, 0) })
		p.Sleep(2 * time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if i != v {
			t.Fatalf("got %v, want [0 1 2]", got)
		}
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel()
	fired := false
	if err := k.Run(func(p *Proc) {
		tm := k.After(time.Millisecond, func() { fired = true })
		if !tm.Stop() {
			t.Error("Stop returned false on pending timer")
		}
		if tm.Stop() {
			t.Error("second Stop returned true")
		}
		p.Sleep(2 * time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	c := NewCond("never")
	err := k.Run(func(p *Proc) { c.Wait(p) })
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v, want 1 entry", de.Blocked)
	}
}

func TestDaemonDoesNotDeadlock(t *testing.T) {
	k := NewKernel()
	c := NewCond("poller")
	err := k.Run(func(p *Proc) {
		k.GoDaemon("poller", func(q *Proc) { c.Wait(q) })
		p.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatalf("daemon blocked forever should not fail Run: %v", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	k := NewKernel()
	err := k.Run(func(p *Proc) {
		k.Go("bad", func(q *Proc) { panic("boom") })
		p.Sleep(time.Millisecond)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.ProcName != "bad" {
		t.Fatalf("proc = %q, want bad", pe.ProcName)
	}
}

func TestRunEndsWhenRootExits(t *testing.T) {
	k := NewKernel()
	hits := 0
	err := k.Run(func(p *Proc) {
		k.GoDaemon("ticker", func(q *Proc) {
			for {
				q.Sleep(time.Millisecond)
				hits++
			}
		})
		p.Sleep(10*time.Millisecond + time.Microsecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 10 {
		t.Fatalf("ticker hits = %d, want 10", hits)
	}
}

func TestCondSignalFIFO(t *testing.T) {
	k := NewKernel()
	c := NewCond("fifo")
	var woke []string
	if err := k.Run(func(p *Proc) {
		for _, n := range []string{"w1", "w2", "w3"} {
			n := n
			k.Go(n, func(q *Proc) {
				c.Wait(q)
				woke = append(woke, n)
			})
		}
		p.Sleep(time.Millisecond)
		c.Signal()
		p.Sleep(time.Millisecond)
		c.Signal()
		c.Signal()
		p.Sleep(time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != "w1" || woke[1] != "w2" || woke[2] != "w3" {
		t.Fatalf("wake order = %v", woke)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k := NewKernel()
	c := NewCond("tmo")
	if err := k.Run(func(p *Proc) {
		start := p.Now()
		if c.WaitTimeout(p, time.Millisecond) {
			t.Error("WaitTimeout reported signal on timeout")
		}
		if got := p.Now().Sub(start); got != time.Millisecond {
			t.Errorf("timeout took %v, want 1ms", got)
		}
		// Now a signalled wait: signal arrives before deadline.
		k.After(100*time.Microsecond, func() { c.Signal() })
		if !c.WaitTimeout(p, time.Millisecond) {
			t.Error("WaitTimeout reported timeout on signal")
		}
		if c.Waiting() != 0 {
			t.Errorf("waiters left: %d", c.Waiting())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int]("q")
	var got []int
	if err := k.Run(func(p *Proc) {
		k.Go("consumer", func(c *Proc) {
			for i := 0; i < 3; i++ {
				got = append(got, q.Pop(c))
			}
		})
		p.Sleep(time.Millisecond)
		q.Push(1)
		q.Push(2)
		p.Sleep(time.Millisecond)
		q.Push(3)
		p.Sleep(time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	k := NewKernel()
	q := NewQueue[string]("q")
	if err := k.Run(func(p *Proc) {
		if _, ok := q.PopTimeout(p, time.Millisecond); ok {
			t.Error("PopTimeout succeeded on empty queue")
		}
		k.After(time.Millisecond, func() { q.Push("late") })
		v, ok := q.PopTimeout(p, 5*time.Millisecond)
		if !ok || v != "late" {
			t.Errorf("PopTimeout = %q,%v", v, ok)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup("wg")
	n := 0
	if err := k.Run(func(p *Proc) {
		for i := 0; i < 5; i++ {
			wg.Add(1)
			d := time.Duration(i+1) * time.Millisecond
			k.Go("worker", func(q *Proc) {
				q.Sleep(d)
				n++
				wg.Done()
			})
		}
		wg.Wait(p)
		if n != 5 {
			t.Errorf("n = %d at Wait return", n)
		}
		if p.Now() != Time(5*time.Millisecond) {
			t.Errorf("Wait returned at %v, want 5ms", p.Now())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore("sem", 2)
	active, peak := 0, 0
	if err := k.Run(func(p *Proc) {
		wg := NewWaitGroup("done")
		for i := 0; i < 6; i++ {
			wg.Add(1)
			k.Go("w", func(q *Proc) {
				sem.Acquire(q)
				active++
				if active > peak {
					peak = active
				}
				q.Sleep(time.Millisecond)
				active--
				sem.Release()
				wg.Done()
			})
		}
		wg.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
}

func TestFuture(t *testing.T) {
	k := NewKernel()
	if err := k.Run(func(p *Proc) {
		f := NewFuture[int]("f")
		if f.Done() {
			t.Error("new future done")
		}
		handled := 0
		f.Handler = func(v int, err error) { handled = v }
		k.After(time.Millisecond, func() { f.Complete(42, nil) })
		v, err := f.Wait(p)
		if v != 42 || err != nil {
			t.Errorf("Wait = %d,%v", v, err)
		}
		if handled != 42 {
			t.Errorf("handler saw %d", handled)
		}
		if v2, _ := f.Value(); v2 != 42 {
			t.Errorf("Value = %d", v2)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	k := NewKernel()
	err := k.Run(func(p *Proc) {
		f := NewFuture[int]("f")
		f.Complete(1, nil)
		f.Complete(2, nil)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
}

// Property: for any set of sleep durations, each Proc observes exactly
// its own total sleep, and the kernel clock ends at the max.
func TestQuickSleepAccounting(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 32 {
			durs = durs[:32]
		}
		k := NewKernel()
		ends := make([]Time, len(durs))
		err := k.Run(func(p *Proc) {
			wg := NewWaitGroup("all")
			for i, d := range durs {
				i, d := i, time.Duration(d)*time.Microsecond
				wg.Add(1)
				k.Go("w", func(q *Proc) {
					q.Sleep(d)
					ends[i] = q.Now()
					wg.Done()
				})
			}
			wg.Wait(p)
		})
		if err != nil {
			return false
		}
		var max Time
		for i, d := range durs {
			want := Time(time.Duration(d) * time.Microsecond)
			if ends[i] != want {
				return false
			}
			if want > max {
				max = want
			}
		}
		return k.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue preserves FIFO for any pushed sequence.
func TestQuickQueueFIFO(t *testing.T) {
	f := func(vals []int32) bool {
		k := NewKernel()
		var got []int32
		err := k.Run(func(p *Proc) {
			q := NewQueue[int32]("q")
			for _, v := range vals {
				q.Push(v)
			}
			for range vals {
				got = append(got, q.Pop(p))
			}
		})
		if err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedRunsAreDeterministic(t *testing.T) {
	run := func() (int64, int64, Time) {
		k := NewKernel()
		_ = k.Run(func(p *Proc) {
			q := NewQueue[int]("q")
			for i := 0; i < 10; i++ {
				i := i
				k.Go("prod", func(w *Proc) {
					w.Sleep(time.Duration(i%3) * time.Millisecond)
					q.Push(i)
				})
			}
			for i := 0; i < 10; i++ {
				q.Pop(p)
			}
		})
		return k.EventsFired, k.ProcSwitches, k.Now()
	}
	e1, s1, t1 := run()
	for i := 0; i < 5; i++ {
		e2, s2, t2 := run()
		if e1 != e2 || s1 != s2 || t1 != t2 {
			t.Fatalf("nondeterminism: (%d,%d,%v) vs (%d,%d,%v)", e1, s1, t1, e2, s2, t2)
		}
	}
}

func TestNestedSpawnFromHandler(t *testing.T) {
	k := NewKernel()
	ran := false
	if err := k.Run(func(p *Proc) {
		k.After(time.Millisecond, func() {
			k.Go("late", func(q *Proc) { ran = true })
		})
		p.Sleep(2 * time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("proc spawned from handler never ran")
	}
}

// TestTimerTombstoneCompaction is the regression test for the stopped-
// timer leak: Timers that are armed far in the future and immediately
// stopped used to sit in the event heap until their (distant) due time
// was popped. The kernel now compacts once tombstones outnumber live
// entries, so the heap stays bounded by the live-event count.
func TestTimerTombstoneCompaction(t *testing.T) {
	k := NewKernel()
	if err := k.Run(func(p *Proc) {
		for i := 0; i < 10000; i++ {
			tm := k.After(time.Hour, func() { t.Error("stopped timer fired") })
			if !tm.Stop() {
				t.Fatal("Stop returned false for a pending timer")
			}
		}
		if n := len(k.events); n > 128 {
			t.Fatalf("event heap holds %d entries after stopping 10000 timers; compaction leaked", n)
		}
		p.Sleep(time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleMatchesAfter pins Schedule's contract: identical firing
// time and ordering as After for the same (d, call-order) sequence.
func TestScheduleMatchesAfter(t *testing.T) {
	run := func(useSchedule bool) ([]int, Time) {
		k := NewKernel()
		var order []int
		err := k.Run(func(p *Proc) {
			for i := 0; i < 8; i++ {
				i := i
				d := time.Duration(8-i) * time.Millisecond
				if useSchedule {
					k.Schedule(d, func() { order = append(order, i) })
				} else {
					k.After(d, func() { order = append(order, i) })
				}
			}
			p.Sleep(20 * time.Millisecond)
		})
		if err != nil {
			t.Fatal(err)
		}
		return order, k.Now()
	}
	o1, t1 := run(false)
	o2, t2 := run(true)
	if t1 != t2 {
		t.Fatalf("final times differ: %v vs %v", t1, t2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("firing order differs at %d: %v vs %v", i, o1, o2)
		}
	}
}

// A Future handed out again after Reset is a new one-shot: completing
// it once more is legal, completing it twice still panics, and a Reset
// with a Proc parked on it is refused.
func TestFutureResetKeepsCompleteOnce(t *testing.T) {
	k := NewKernel()
	if err := k.Run(func(p *Proc) {
		f := NewFuture[int]("f")
		f.Complete(1, nil)
		f.Reset("f")
		if f.Done() {
			t.Fatal("Reset left the Future done")
		}
		k.Schedule(time.Microsecond, func() { f.Complete(2, nil) })
		if v, _ := f.Wait(p); v != 2 {
			t.Fatalf("reset Future resolved to %d, want 2", v)
		}
		mustPanic(t, "second Complete after Reset", func() { f.Complete(3, nil) })
		f.Reset("f")
		k.Go("waiter", func(q *Proc) { f.Wait(q) })
		p.Yield()
		mustPanic(t, "Reset with a waiter", func() { f.Reset("f") })
		f.Complete(4, nil)
	}); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}
