package store_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"padico/internal/store"
	"padico/internal/vtime"
)

// payload builds a deterministic pseudo-random buffer.
func payload(seed int64, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// run executes fn as the root proc of a fresh kernel.
func run(t *testing.T, fn func(k *vtime.Kernel, p *vtime.Proc)) {
	t.Helper()
	k := vtime.NewKernel()
	if err := k.Run(func(p *vtime.Proc) { fn(k, p) }); err != nil {
		t.Fatal(err)
	}
}

// engines returns both backends for interface-level tests.
func engines(t *testing.T, k *vtime.Kernel) map[string]store.Engine {
	t.Helper()
	pk, err := store.OpenPack(k, 1, t.TempDir(), store.PackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]store.Engine{
		"memory": store.NewMemory(k, 1),
		"pack":   pk,
	}
}

func put(t *testing.T, p *vtime.Proc, e store.Engine, key string, data []byte) [32]byte {
	t.Helper()
	sum := sha256.Sum256(data)
	if err := e.Put(p, key, data, sum); err != nil {
		t.Fatalf("put %q: %v", key, err)
	}
	return sum
}

func TestEngineRoundtrip(t *testing.T) {
	run(t, func(k *vtime.Kernel, p *vtime.Proc) {
		for name, e := range engines(t, k) {
			a, b := payload(1, 2000), payload(2, 300)
			sumA := put(t, p, e, "alpha", a)
			put(t, p, e, "beta", b)

			if got, ok := e.Get("alpha"); !ok || !bytes.Equal(got, a) {
				t.Errorf("%s: Get(alpha) mismatch (ok=%v)", name, ok)
			}
			if got, ok := e.Read(p, "beta"); !ok || !bytes.Equal(got, b) {
				t.Errorf("%s: Read(beta) mismatch (ok=%v)", name, ok)
			}
			if sum, ok := e.Sum("alpha"); !ok || sum != sumA {
				t.Errorf("%s: Sum(alpha) mismatch", name)
			}
			if n, ok := e.Size("alpha"); !ok || n != len(a) {
				t.Errorf("%s: Size(alpha)=%d want %d", name, n, len(a))
			}
			if e.Len() != 2 || e.Bytes() != int64(len(a)+len(b)) {
				t.Errorf("%s: Len=%d Bytes=%d", name, e.Len(), e.Bytes())
			}
			keys := e.Keys()
			if len(keys) != 2 || keys[0] != "alpha" || keys[1] != "beta" {
				t.Errorf("%s: Keys=%v", name, keys)
			}
			if _, ok := e.Get("gamma"); ok {
				t.Errorf("%s: Get(gamma) found a ghost", name)
			}

			// Overwrite replaces bytes and checksum.
			a2 := payload(3, 500)
			put(t, p, e, "alpha", a2)
			if got, _ := e.Get("alpha"); !bytes.Equal(got, a2) {
				t.Errorf("%s: overwrite not visible", name)
			}
			if err := e.Verify(p, "alpha"); err != nil {
				t.Errorf("%s: Verify after overwrite: %v", name, err)
			}

			// Delete removes; double delete reports false.
			if !e.Delete(p, "beta") {
				t.Errorf("%s: Delete(beta) = false", name)
			}
			if e.Delete(p, "beta") {
				t.Errorf("%s: double Delete(beta) = true", name)
			}
			if _, ok := e.Get("beta"); ok || e.Len() != 1 {
				t.Errorf("%s: beta survived delete", name)
			}
			if err := e.Verify(p, "beta"); !errors.Is(err, store.ErrNoKey) {
				t.Errorf("%s: Verify(deleted) = %v", name, err)
			}
			if err := e.Close(); err != nil {
				t.Errorf("%s: Close: %v", name, err)
			}
		}
	})
}

func TestEngineCorruptVerifyQuarantine(t *testing.T) {
	run(t, func(k *vtime.Kernel, p *vtime.Proc) {
		for name, e := range engines(t, k) {
			put(t, p, e, "obj", payload(7, 4096))
			if err := e.Verify(p, "obj"); err != nil {
				t.Fatalf("%s: clean Verify: %v", name, err)
			}
			if !e.Corrupt("obj") {
				t.Fatalf("%s: Corrupt = false", name)
			}
			if err := e.Verify(p, "obj"); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("%s: Verify(corrupt) = %v, want ErrCorrupt", name, err)
			}
			if !e.Quarantine(p, "obj") {
				t.Fatalf("%s: Quarantine = false", name)
			}
			if _, ok := e.Get("obj"); ok {
				t.Fatalf("%s: quarantined key still served", name)
			}
			e.Close()
		}
	})
}

func TestPackReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	var want []byte
	run(t, func(k *vtime.Kernel, p *vtime.Proc) {
		e, err := store.OpenPack(k, 3, dir, store.PackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		put(t, p, e, "keep", payload(11, 3000))
		put(t, p, e, "gone", payload(12, 100))
		put(t, p, e, "keep", payload(13, 1234)) // overwrite wins on replay
		e.Delete(p, "gone")                     // tombstone wins on replay
		want, _ = e.Get("keep")
		want = append([]byte(nil), want...)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	})
	run(t, func(k *vtime.Kernel, p *vtime.Proc) {
		e, err := store.OpenPack(k, 3, dir, store.PackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if got, ok := e.Get("keep"); !ok || !bytes.Equal(got, want) {
			t.Fatalf("reopen: keep lost or stale (ok=%v len=%d)", ok, len(got))
		}
		if _, ok := e.Get("gone"); ok {
			t.Fatal("reopen: tombstoned key resurrected")
		}
		if e.Len() != 1 {
			t.Fatalf("reopen: Len=%d want 1", e.Len())
		}
		if err := e.Verify(p, "keep"); err != nil {
			t.Fatalf("reopen: Verify(keep): %v", err)
		}
		// Appends after reopen land after the replayed tail.
		put(t, p, e, "new", payload(14, 64))
	})
}

func TestPackReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	run(t, func(k *vtime.Kernel, p *vtime.Proc) {
		e, err := store.OpenPack(k, 4, dir, store.PackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		put(t, p, e, "first", payload(21, 2048))
		put(t, p, e, "second", payload(22, 2048))
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	})

	// Simulate a crash mid-append: cut the last needle's payload short.
	bundle := filepath.Join(dir, "bundle-000000.pack")
	fi, err := os.Stat(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(bundle, fi.Size()-512); err != nil {
		t.Fatal(err)
	}

	run(t, func(k *vtime.Kernel, p *vtime.Proc) {
		e, err := store.OpenPack(k, 4, dir, store.PackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, ok := e.Get("second"); ok {
			t.Fatal("torn needle served after reopen")
		}
		if _, ok := e.Get("first"); !ok {
			t.Fatal("intact needle lost with the torn tail")
		}
		if e.Stats().TornTails != 1 {
			t.Fatalf("TornTails=%d want 1", e.Stats().TornTails)
		}
		if err := e.Verify(p, "first"); err != nil {
			t.Fatalf("Verify(first): %v", err)
		}
		// The truncated tail must be clean append space: write, reopen,
		// check both records.
		put(t, p, e, "third", payload(23, 777))
	})
	run(t, func(k *vtime.Kernel, p *vtime.Proc) {
		e, err := store.OpenPack(k, 4, dir, store.PackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if e.Len() != 2 {
			t.Fatalf("after torn-tail append+reopen: Len=%d want 2", e.Len())
		}
		for _, key := range []string{"first", "third"} {
			if err := e.Verify(p, key); err != nil {
				t.Fatalf("Verify(%s): %v", key, err)
			}
		}
	})
}

func TestPackBundleRolling(t *testing.T) {
	run(t, func(k *vtime.Kernel, p *vtime.Proc) {
		dir := t.TempDir()
		e, err := store.OpenPack(k, 5, dir, store.PackConfig{BundleMaxBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			put(t, p, e, string(rune('a'+i)), payload(int64(i), 1500))
		}
		if e.Stats().BundleRolls == 0 {
			t.Fatal("no bundle rolls at 4 KiB cap with 12 KiB written")
		}
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) < 2 {
			t.Fatalf("expected multiple bundle files, got %d", len(names))
		}
		// Every object readable across bundles, then across a reopen.
		for i := 0; i < 8; i++ {
			key := string(rune('a' + i))
			if got, ok := e.Read(p, key); !ok || !bytes.Equal(got, payload(int64(i), 1500)) {
				t.Fatalf("Read(%s) mismatch after roll (ok=%v)", key, ok)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e2, err := store.OpenPack(k, 5, dir, store.PackConfig{BundleMaxBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		if e2.Len() != 8 {
			t.Fatalf("reopen across bundles: Len=%d want 8", e2.Len())
		}
	})
}

func TestPackFsyncBatching(t *testing.T) {
	run(t, func(k *vtime.Kernel, p *vtime.Proc) {
		e, err := store.OpenPack(k, 6, t.TempDir(), store.PackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		// Many puts inside one budget window: at most the leading sync.
		for i := 0; i < 20; i++ {
			put(t, p, e, "burst", payload(int64(i), 256))
		}
		burst := e.Stats().Fsyncs
		if burst > 1 {
			t.Fatalf("burst of 20 puts paid %d fsyncs, want ≤ 1", burst)
		}
		// Spaced puts: one sync per budget window.
		for i := 0; i < 5; i++ {
			p.Sleep(110 * time.Millisecond)
			put(t, p, e, "spaced", payload(int64(i), 256))
		}
		if got := e.Stats().Fsyncs - burst; got != 5 {
			t.Fatalf("5 spaced puts paid %d fsyncs, want 5", got)
		}
	})
}

func TestPackChargesVirtualDiskTime(t *testing.T) {
	run(t, func(k *vtime.Kernel, p *vtime.Proc) {
		mem := store.NewMemory(k, 7)
		pk, err := store.OpenPack(k, 7, t.TempDir(), store.PackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer pk.Close()
		t0 := p.Now()
		put(t, p, mem, "x", payload(31, 1<<20))
		if p.Now() != t0 {
			t.Fatal("memory Put consumed virtual time")
		}
		put(t, p, pk, "x", payload(31, 1<<20))
		if p.Now() == t0 {
			t.Fatal("pack Put consumed no virtual time")
		}
	})
}

func TestAuditorPassQuarantinesAndPaces(t *testing.T) {
	run(t, func(k *vtime.Kernel, p *vtime.Proc) {
		e, err := store.OpenPack(k, 8, t.TempDir(), store.PackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		const objs, size = 4, 1 << 16
		for i := 0; i < objs; i++ {
			put(t, p, e, string(rune('a'+i)), payload(int64(40+i), size))
		}
		e.Corrupt("c")

		var repaired []string
		a := store.NewAuditor(k, 8, e, store.AuditConfig{
			RateBytes: 10e6,
			OnCorrupt: func(p *vtime.Proc, key string) { repaired = append(repaired, key) },
		})
		t0 := p.Now()
		if n := a.Pass(p); n != 1 {
			t.Fatalf("Pass quarantined %d, want 1", n)
		}
		if len(repaired) != 1 || repaired[0] != "c" {
			t.Fatalf("OnCorrupt got %v", repaired)
		}
		if _, ok := e.Get("c"); ok {
			t.Fatal("corrupt needle still served after audit")
		}
		// Rate pacing: scanning objs×size bytes at 10 MB/s takes at
		// least bytes/rate of virtual time.
		minD := vtime.Duration(float64(objs*size) / 10e6 * float64(time.Second))
		if got := p.Now().Sub(t0); got < minD {
			t.Fatalf("audit pass took %v, rate budget demands ≥ %v", got, minD)
		}
		// A clean second pass quarantines nothing.
		if n := a.Pass(p); n != 0 {
			t.Fatalf("clean Pass quarantined %d", n)
		}
		if a.Passes != 2 {
			t.Fatalf("Passes=%d want 2", a.Passes)
		}
	})
}

func TestAuditorBackgroundDaemon(t *testing.T) {
	k := vtime.NewKernel()
	var e store.Engine
	if err := k.Run(func(p *vtime.Proc) {
		var err error
		e, err = store.OpenPack(k, 9, t.TempDir(), store.PackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		put(t, p, e, "obj", payload(51, 8192))
		e.Corrupt("obj")
		a := store.NewAuditor(k, 9, e, store.AuditConfig{Interval: 100 * time.Millisecond})
		a.Start()
		p.Sleep(350 * time.Millisecond) // ≥ 3 scrub intervals
		if _, ok := e.Get("obj"); ok {
			t.Fatal("background auditor never quarantined the corrupt needle")
		}
		if a.Passes < 2 {
			t.Fatalf("Passes=%d want ≥ 2", a.Passes)
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.Close()
}
