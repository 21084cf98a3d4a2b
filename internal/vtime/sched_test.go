package vtime

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// randomProgramHash runs a seeded random program over every scheduling
// primitive and returns a hash of its (now, proc, step, action) trace
// plus the kernel's final counters. One rand.Rand is shared by all
// Procs and handlers, so any change in who runs when also changes every
// later draw: the hash moves if the resume order does.
func randomProgramHash(t *testing.T, seed int64) uint64 {
	t.Helper()
	const (
		workers  = 16
		steps    = 300
		maxProcs = 600
	)
	k := NewKernel()
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	rec := func(who int64, step, action int) {
		var b [32]byte
		put := func(i int, v uint64) {
			for j := 0; j < 8; j++ {
				b[i+j] = byte(v >> (8 * j))
			}
		}
		put(0, uint64(k.Now()))
		put(8, uint64(who))
		put(16, uint64(step))
		put(24, uint64(action))
		h.Write(b[:])
	}
	conds := make([]*Cond, 4)
	for i := range conds {
		conds[i] = NewCond("c")
	}
	q := NewQueue[int]("q")
	sem := NewSemaphore("s", 2)
	wg := NewWaitGroup("all")
	var timers []*Timer
	spawned := 0
	handlers := 0
	dur := func() Duration { return Duration(rng.Intn(200)) * time.Microsecond }

	var body func(n int) func(p *Proc)
	spawn := func(n int) {
		if spawned >= maxProcs {
			return
		}
		spawned++
		wg.Add(1)
		k.Go("w", body(n))
	}
	handler := func() {
		handlers++
		id := handlers
		k.Schedule(dur(), func() {
			act := rng.Intn(5)
			rec(-1, id, act)
			switch act {
			case 0:
				spawn(5)
			case 1:
				if len(timers) > 0 {
					i := rng.Intn(len(timers))
					if timers[i].Stop() {
						rec(-1, id, 100)
					}
					timers = append(timers[:i], timers[i+1:]...)
				}
			case 2:
				conds[rng.Intn(len(conds))].Broadcast()
			case 3:
				q.Push(id)
			case 4:
				conds[rng.Intn(len(conds))].Signal()
			}
		})
	}
	body = func(n int) func(p *Proc) {
		return func(p *Proc) {
			defer wg.Done()
			for step := 0; step < n; step++ {
				act := rng.Intn(14)
				rec(p.id, step, act)
				c := conds[rng.Intn(len(conds))]
				switch act {
				case 0, 1:
					p.Sleep(dur())
				case 2:
					p.Yield()
				case 3:
					c.Wait(p) // the ticker daemon bounds the wait
				case 4:
					c.Signal()
				case 5:
					c.Broadcast()
				case 6:
					if c.WaitTimeout(p, dur()) {
						rec(p.id, step, 101)
					}
				case 7:
					spawn(rng.Intn(8))
				case 8:
					handler()
				case 9:
					id := len(timers)
					timers = append(timers, k.After(dur(), func() {
						rec(-2, id, 0)
						conds[id%len(conds)].Signal()
					}))
				case 10:
					if v, ok := q.PopTimeout(p, dur()); ok {
						rec(p.id, step, 1000+v)
					}
				case 11:
					q.Push(step)
				case 12:
					sem.Acquire(p)
					p.Consume(dur())
					sem.Release()
				case 13:
					f := NewFuture[int]("f")
					k.Schedule(dur(), func() { f.Complete(step, nil) })
					v, _ := f.Wait(p)
					rec(p.id, step, 2000+v)
				}
			}
		}
	}
	err := k.Run(func(p *Proc) {
		k.GoDaemon("ticker", func(d *Proc) {
			for {
				d.Sleep(25 * time.Microsecond)
				for _, c := range conds {
					c.Broadcast()
				}
			}
		})
		for i := 0; i < workers; i++ {
			spawn(steps)
		}
		wg.Wait(p)
		rec(p.id, -1, -1)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("seed %d: %d events, %d switches, %d procs, %d handlers, end %v", seed, k.EventsFired, k.ProcSwitches, k.ProcsSpawned, handlers, k.Now())
	rec(k.EventsFired, int(k.ProcSwitches), int(k.ProcsSpawned))
	rec(k.ProcsFinished, spawned, handlers)
	return h.Sum64()
}

// TestRandomProgramTracePinned pins the schedule of a random program to
// the hashes produced by the kernel-goroutine scheduler this package had
// before the dispatch loop moved onto the parking Proc (PR 14): the two
// must resume Procs and fire events in exactly the same order.
func TestRandomProgramTracePinned(t *testing.T) {
	// Computed at commit e5b9c72 (PR 13), before the scheduler changed.
	want := []uint64{1: 0x7bf8fc16df424b4, 2: 0x4b8b7fc0bdc49735, 3: 0x20f5344b4e9ef58b}
	for seed := int64(1); seed < int64(len(want)); seed++ {
		if got := randomProgramHash(t, seed); got != want[seed] {
			t.Errorf("seed %d: trace hash %#x, want %#x", seed, got, want[seed])
		}
	}
}

// TestHeapPopsInOrder drives random After / Schedule / Stop sequences
// through the kernel's heap and checks that what fires is exactly the
// live set in (at, seq) order, across compaction, for sizes around the
// 4-ary fan-out and the compaction threshold.
func TestHeapPopsInOrder(t *testing.T) {
	type key struct {
		at  Time
		seq int64
	}
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{0, 1, 2, 4, 5, 6, 63, 64, 65, 200, 3000} {
		for _, stopShare := range []int{0, 40, 70, 100} {
			k := NewKernel()
			var fired, want []key
			var timers []*Timer
			live := map[*Timer]key{}
			for i := 0; i < n; i++ {
				d := Duration(rng.Intn(n/3 + 1)) // many equal times: seq must break the tie
				ky := key{k.now.Add(d), k.seq + 1}
				fn := func() { fired = append(fired, ky) }
				if rng.Intn(3) == 0 {
					k.Schedule(d, fn)
					want = append(want, ky)
				} else {
					tm := k.After(d, fn)
					timers = append(timers, tm)
					live[tm] = ky
				}
				// Stop as we go, so compaction runs on a heap that keeps growing.
				if len(timers) > 0 && rng.Intn(100) < stopShare {
					tm := timers[rng.Intn(len(timers))]
					if _, ok := live[tm]; tm.Stop() != ok {
						t.Fatalf("n=%d: Stop = %v on a timer whose liveness is %v", n, !ok, ok)
					}
					delete(live, tm)
				}
				if rng.Intn(50) == 0 {
					k.maybeCompact()
				}
			}
			if stopShare == 100 {
				for _, tm := range timers {
					tm.Stop()
					delete(live, tm)
				}
			}
			for _, ky := range live {
				want = append(want, ky)
			}
			sort.Slice(want, func(i, j int) bool {
				return want[i].at < want[j].at || want[i].at == want[j].at && want[i].seq < want[j].seq
			})
			for k.fireNextEvent() {
			}
			if len(fired) != len(want) {
				t.Fatalf("n=%d stop=%d%%: %d events fired, want %d", n, stopShare, len(fired), len(want))
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("n=%d stop=%d%%: event %d fired as %v, want %v", n, stopShare, i, fired[i], want[i])
				}
			}
			if k.tombstones != 0 || len(k.events) != 0 {
				t.Fatalf("n=%d stop=%d%%: %d tombstones, %d entries left in a drained heap", n, stopShare, k.tombstones, len(k.events))
			}
			for _, tm := range timers {
				if tm.Stop() {
					t.Fatalf("n=%d: Stop reported true after the heap drained", n)
				}
			}
		}
	}
	var h eventHeap
	h.init() // an empty heap has no last parent to start from
	h.push(event{at: 1})
	h.init()
	if e := h.pop(); e.at != 1 || len(h) != 0 {
		t.Fatalf("single-entry heap popped %+v, %d left", e, len(h))
	}
}

// TestSteadyStateAllocatesNothing: once the heap, the runnable queue and
// a wait list have grown to size, the scheduling primitives allocate
// nothing. (AllocsPerRun counts the mallocs of every goroutine, so the
// echo Proc's side of the Queue exchange is included.)
func TestSteadyStateAllocatesNothing(t *testing.T) {
	k := NewKernel()
	if err := k.Run(func(p *Proc) {
		c := NewCond("c")
		signal := c.Signal
		noop := func() {}
		in, out := NewQueue[int]("in"), NewQueue[int]("out")
		f := NewFuture[int]("f")
		complete := func() { f.Complete(1, nil) }
		k.GoDaemon("echo", func(q *Proc) {
			for {
				out.Push(in.Pop(q))
			}
		})
		cases := []struct {
			name string
			op   func()
		}{
			{"Sleep", func() { p.Sleep(time.Microsecond) }},
			{"Yield", func() { p.Yield() }},
			{"Schedule", func() { k.Schedule(time.Microsecond, noop) }},
			{"Cond.Wait+Signal", func() {
				k.Schedule(time.Microsecond, signal)
				c.Wait(p)
			}},
			{"Queue.Push+Pop", func() {
				in.Push(1)
				out.Pop(p)
			}},
			// A Future its owner hands out again: completed by an event,
			// waited on (the waiter takes Cond's inline slot), reset.
			{"Future.Complete+Wait+Reset", func() {
				k.Schedule(time.Microsecond, complete)
				f.Wait(p)
				f.Reset("f")
			}},
		}
		for _, tc := range cases {
			if avg := testing.AllocsPerRun(200, tc.op); avg != 0 {
				t.Errorf("%s: %v allocations per call, want 0", tc.name, avg)
			}
		}
		p.Sleep(time.Millisecond) // drain the Schedule case's events
	}); err != nil {
		t.Fatal(err)
	}
}

// startEcho spawns a daemon that answers every Signal on ping with one
// on pong, and returns once it is waiting for the first.
func startEcho(k *Kernel, p *Proc) (ping, pong *Cond) {
	ping, pong = NewCond("ping"), NewCond("pong")
	k.GoDaemon("echo", func(q *Proc) {
		for {
			ping.Wait(q)
			pong.Signal()
		}
	})
	p.Yield()
	return ping, pong
}

// TestHandoffs: a Proc that is resumed out of its own park never leaves
// its goroutine; two Procs passing a token change goroutine on every
// switch.
func TestHandoffs(t *testing.T) {
	k := NewKernel()
	if err := k.Run(func(p *Proc) {
		s0, h0 := k.ProcSwitches, k.Handoffs
		for i := 0; i < 1000; i++ {
			p.Sleep(time.Microsecond)
		}
		if s, h := k.ProcSwitches-s0, k.Handoffs-h0; s != 1000 || h != 0 {
			t.Errorf("lone proc, 1000 sleeps: %d switches, %d handoffs; want 1000, 0", s, h)
		}

		ping, pong := startEcho(k, p)
		s0, h0 = k.ProcSwitches, k.Handoffs
		for i := 0; i < 1000; i++ {
			ping.Signal()
			pong.Wait(p)
		}
		if s, h := k.ProcSwitches-s0, k.Handoffs-h0; s != 2000 || h != 2000 {
			t.Errorf("ping-pong, 1000 round trips: %d switches, %d handoffs; want 2000, 2000", s, h)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockReasons pins the park reasons of DeadlockError.Blocked:
// they are assembled from two strings only when the error is built and
// must read as they did when park took one.
func TestDeadlockReasons(t *testing.T) {
	k := NewKernel()
	err := k.Run(func(p *Proc) {
		k.Go("a", func(q *Proc) { NewQueue[int]("x").Pop(q) })
		k.Go("b", func(q *Proc) { NewFuture[int]("f").Wait(q) })
		k.Go("c", func(q *Proc) { NewSemaphore("s", 0).Acquire(q) })
		k.Go("d", func(q *Proc) { w := NewWaitGroup("w"); w.Add(1); w.Wait(q) })
		k.GoDaemon("e", func(q *Proc) { NewCond("").Wait(q) })
		NewCond("never").Wait(p)
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	want := []string{
		"a (cond:queue:x)", "b (cond:future:f)", "c (cond:sem:s)",
		"d (cond:waitgroup:w)", "e (cond:)", "root (cond:never)",
	}
	if !reflect.DeepEqual(de.Blocked, want) {
		t.Fatalf("Blocked = %q\nwant      %q", de.Blocked, want)
	}
}

// TestLateSpawnNeverRuns: a Proc spawned but not yet scheduled when root
// returns used to be started by teardown on the dead kernel, where its
// first park panicked and turned a clean run into a PanicError.
func TestLateSpawnNeverRuns(t *testing.T) {
	k := NewKernel()
	ran := false
	err := k.Run(func(p *Proc) {
		k.Go("late", func(q *Proc) {
			ran = true
			q.Sleep(1)
		})
	})
	if err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if ran {
		t.Fatal("a Proc that was never scheduled ran during teardown")
	}
}

type failureLog struct{ errs []error }

func (f *failureLog) KernelFailure(err error) { f.errs = append(f.errs, err) }

// TestHandlerPanicIsReported: a panic in an event handler used to escape
// Run and kill the process. It is reported like a Proc's panic, under
// the name "event handler" and not under that of the Proc whose
// goroutine happened to host the handler; so is a blocking primitive
// called from a handler.
func TestHandlerPanicIsReported(t *testing.T) {
	cases := map[string]func(k *Kernel, p *Proc){
		"panic": func(k *Kernel, p *Proc) {
			k.Schedule(1, func() { panic("boom") })
		},
		"park from a handler": func(k *Kernel, p *Proc) {
			k.Schedule(1, func() { p.Sleep(1) })
		},
		"after the host proc exited": func(k *Kernel, p *Proc) {
			k.Go("short", func(q *Proc) { k.Schedule(1, func() { panic("boom") }) })
			NewCond("forever").Wait(p)
		},
	}
	for name, arm := range cases {
		k := NewKernel()
		obs := &failureLog{}
		k.Telemetry = obs
		cleanedUp := false
		err := k.Run(func(p *Proc) {
			defer func() { cleanedUp = true }()
			arm(k, p)
			p.Sleep(time.Millisecond)
			t.Errorf("%s: root ran on after the handler panicked", name)
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.ProcName != "event handler" {
			t.Fatalf("%s: Run = %v, want a PanicError naming the event handler", name, err)
		}
		if len(obs.errs) != 1 || obs.errs[0] != err {
			t.Errorf("%s: failure observer saw %v, want the error Run returned", name, obs.errs)
		}
		if !cleanedUp {
			t.Errorf("%s: the host proc was not unwound", name)
		}
	}
}

// TestWaitTimeoutLeavesNoStaleWaiter: removing a timed-out waiter from
// the middle of the list must not leave a *Proc behind in the slack of
// the backing array.
func TestWaitTimeoutLeavesNoStaleWaiter(t *testing.T) {
	k := NewKernel()
	c := NewCond("c")
	if err := k.Run(func(p *Proc) {
		k.Go("timed", func(q *Proc) { c.WaitTimeout(q, time.Microsecond) })
		k.GoDaemon("stays", func(q *Proc) { c.Wait(q) })
		p.Sleep(time.Millisecond)
		if c.Waiting() != 1 {
			t.Fatalf("%d waiters, want 1", c.Waiting())
		}
		for _, w := range c.waiters[len(c.waiters):cap(c.waiters)] {
			if w != nil {
				t.Fatalf("stale waiter %q beyond the end of the list", w.name)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
