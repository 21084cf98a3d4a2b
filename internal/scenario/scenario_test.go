package scenario

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"padico/internal/datagrid"
	"padico/internal/grid"
	"padico/internal/iovec"
	"padico/internal/vtime"
)

// A hub attached after the layers exist would observe nothing: the
// harness refuses instead of handing back a silently empty trace.
func TestObserveAfterBuildIsAnError(t *testing.T) {
	env, err := New(Spec{Name: "late", Testbed: grid.Cluster(2), DataGrid: &datagrid.Config{}}, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if env.Hub != nil {
		t.Fatal("a plain environment attached a hub")
	}
	err = env.Observe(Observers{Trace: true})
	if err == nil || !strings.Contains(err.Error(), "late") {
		t.Fatalf("late Observe = %v, want an error naming the scenario", err)
	}
	if env.Hub != nil {
		t.Fatal("late Observe attached a hub anyway")
	}
}

// Observers requested up front see the layers: the data grid built by
// New registers its metrics with the hub.
func TestObserversAttachBeforeLayers(t *testing.T) {
	env, err := New(Spec{Name: "early", Testbed: grid.Cluster(2), DataGrid: &datagrid.Config{}}, Observers{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !env.Hub.Tracing() {
		t.Fatal("tracing not enabled")
	}
	found := false
	for _, m := range env.Hub.Registry().Snapshot() {
		found = found || m.Name == "datagrid.puts"
	}
	if !found {
		t.Fatal("the data grid was built before the hub: datagrid.puts is not registered")
	}
}

func TestRunReturnsPanicsAndDeadlocks(t *testing.T) {
	run := func(body func(env *Env, p *vtime.Proc) error) error {
		env, err := New(Spec{Name: "doomed", Testbed: grid.Cluster(2)}, Observers{})
		if err != nil {
			t.Fatal(err)
		}
		return env.Run(func(p *vtime.Proc) error { return body(env, p) })
	}

	err := run(func(env *Env, p *vtime.Proc) error {
		env.G.K.Go("bomb", func(*vtime.Proc) { panic("boom") })
		p.Sleep(1)
		return nil
	})
	var pe *vtime.PanicError
	if !errors.As(err, &pe) || pe.ProcName != "bomb" || !strings.HasPrefix(err.Error(), "doomed: ") {
		t.Fatalf("proc panic = %v, want a *vtime.PanicError from \"bomb\" prefixed with the scenario name", err)
	}

	err = run(func(env *Env, p *vtime.Proc) error {
		vtime.NewQueue[int]("never").Pop(p)
		return nil
	})
	var de *vtime.DeadlockError
	if !errors.As(err, &de) || !strings.HasPrefix(err.Error(), "doomed: ") {
		t.Fatalf("deadlock = %v, want a *vtime.DeadlockError prefixed with the scenario name", err)
	}

	step := errors.New("step failed")
	if err = run(func(*Env, *vtime.Proc) error { return step }); !errors.Is(err, step) {
		t.Fatalf("failing step = %v, want it to wrap the body's error", err)
	}
}

// A fault-free pack-engine scenario leaves nothing behind: the bundle
// directory is removed and every pooled buffer is back. The testbed
// spans the WAN, so the closed channels are pstreams stripes under gsec
// over TCP: every receive buffer they hold and every TCP send block,
// the partly filled last one included, must be released by the time
// the run ends. No tolerance.
func TestRunCleansUp(t *testing.T) {
	baseline := iovec.Outstanding()
	env, err := New(Spec{
		Name:     "clean",
		Testbed:  grid.TwoClusterWAN(2, 2),
		DataGrid: &datagrid.Config{Replicas: 2},
		Pack:     true,
	}, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(env.dir); err != nil {
		t.Fatalf("pack directory: %v", err)
	}
	set := Set{Prefix: "obj", N: 3, Clients: 4, Data: bytes.Repeat([]byte("scenario"), 64<<10)}
	err = env.Run(func(p *vtime.Proc) error {
		if err := env.Put(p, set, 0); err != nil {
			return err
		}
		env.DG.WaitSettled(p)
		if err := env.Get(p, set, 2); err != nil {
			return err
		}
		return env.Verify(set)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(env.dir); !os.IsNotExist(err) {
		t.Fatalf("pack directory survived Run: %v", err)
	}
	if got := iovec.Outstanding(); got != baseline {
		t.Fatalf("iovec.Outstanding() = %d after the run, %d before it", got, baseline)
	}
}

func TestStreamDetectsOneFlippedByte(t *testing.T) {
	stream := func(flip bool) error {
		env, err := New(Spec{Name: "stream", Testbed: grid.Cluster(2)}, Observers{})
		if err != nil {
			t.Fatal(err)
		}
		chunk := bytes.Repeat([]byte{0xA5, 0x5A, 0x3C}, 1000)
		const total = 10*3000 + 17 // the last write is cut short
		return env.Run(func(p *vtime.Proc) error {
			ln, err := env.G.Stack.Host(1).Listen(80)
			if err != nil {
				return err
			}
			cli, err := env.G.Stack.Host(0).Dial(p, 1, 80)
			if err != nil {
				return err
			}
			srv, err := ln.Accept(p)
			if err != nil {
				return err
			}
			writes := 0
			write := func(p *vtime.Proc, b []byte) error {
				if writes++; flip && writes == 4 {
					b = bytes.Clone(b)
					b[1234] ^= 0x01
				}
				return cli.Write(p, b)
			}
			end, err := env.Stream(p, Pipe{Write: write, Read: srv.Read}, chunk, total, 4096)
			if err == nil && (writes != 11 || end == 0) {
				t.Errorf("%d writes, sink finished at %v", writes, end)
			}
			return err
		})
	}
	if err := stream(false); err != nil {
		t.Fatalf("clean stream: %v", err)
	}
	if err := stream(true); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("flipped byte = %v, want a corruption error", err)
	}
}
