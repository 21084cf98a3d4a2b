package store

import (
	"crypto/sha256"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"padico/internal/vtime"
)

// writeBundle stores objects through a pack in dir, deletes the keys in
// del (tombstone needles), closes it and returns the bundle's bytes.
func writeBundle(t testing.TB, dir string, objs map[string][]byte, del ...string) []byte {
	t.Helper()
	k := vtime.NewKernel()
	var err error
	if rerr := k.Run(func(p *vtime.Proc) {
		var e *Pack
		if e, err = OpenPack(k, 0, dir, PackConfig{}); err != nil {
			return
		}
		for _, key := range []string{"a", "bb", "ccc"} {
			if data, ok := objs[key]; ok && err == nil {
				err = e.Put(p, key, data, sha256.Sum256(data))
			}
		}
		for _, key := range del {
			e.Delete(p, key)
		}
		if cerr := e.Close(); err == nil {
			err = cerr
		}
	}); rerr != nil || err != nil {
		t.Fatal(rerr, err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "bundle-000000.pack"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// openWithin opens the pack in dir and fails the test when the scan
// does not finish within d: a needle that never advances the scan must
// show up as a failure, not as a hung test binary.
func openWithin(t testing.TB, dir string, d time.Duration) *Pack {
	t.Helper()
	type opened struct {
		e   *Pack
		err error
	}
	done := make(chan opened, 1)
	go func() {
		e, err := OpenPack(vtime.NewKernel(), 0, dir, PackConfig{})
		done <- opened{e, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.e
	case <-time.After(d):
		t.Fatalf("OpenPack did not return within %v", d)
		return nil
	}
}

// checkIndex fails unless every indexed needle's payload lies inside
// the (possibly truncated) bundle file.
func checkIndex(t testing.TB, e *Pack, dir string) {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "bundle-000000.pack"))
	if err != nil {
		t.Fatal(err)
	}
	for key, ref := range e.index {
		if ref.size < 0 || ref.off < needleHdrLen+int64(len(key)) || ref.off+int64(ref.size) > fi.Size() {
			t.Fatalf("needle %q indexed at [%d, +%d) of a %d-byte file", key, ref.off, ref.size, fi.Size())
		}
	}
}

// TestPackScanRejectsHostileSize appends, after one good needle, a
// needle whose magic and CRC are right but whose size field no write
// produced. Read as an int, such a size is negative or runs past the
// file; either way the needle is a torn tail. With size =
// -(header+key) the scan's offset would never advance.
func TestPackScanRejectsHostileSize(t *testing.T) {
	const key = "evil"
	for _, size := range []int{
		-(needleHdrLen + len(key)), // the scan stands still
		-1,                         // a negative payload ref
		math.MaxInt64,              // the end offset overflows
		1 << 40,                    // past the end of the file
	} {
		dir := t.TempDir()
		good := writeBundle(t, dir, map[string][]byte{"a": []byte("payload")})
		var hdr [needleHdrLen]byte
		encodeHeader(&hdr, 0, key, size, [32]byte{})
		bundle := append(append(append([]byte(nil), good...), hdr[:]...), key...)
		if err := os.WriteFile(filepath.Join(dir, "bundle-000000.pack"), bundle, 0o644); err != nil {
			t.Fatal(err)
		}
		e := openWithin(t, dir, 10*time.Second)
		checkIndex(t, e, dir)
		if _, ok := e.index[key]; ok || e.Len() != 1 || e.Stats().TornTails != 1 {
			t.Fatalf("size %d: %d needles indexed, %d torn tails; want the good one and 1", size, e.Len(), e.Stats().TornTails)
		}
		if b, ok := e.Get("a"); !ok || string(b) != "payload" {
			t.Fatalf("size %d: good needle reads %q, %v", size, b, ok)
		}
		if fi, _ := os.Stat(filepath.Join(dir, "bundle-000000.pack")); fi.Size() != int64(len(good)) {
			t.Fatalf("size %d: bundle is %d bytes after the scan, want it cut back to %d", size, fi.Size(), len(good))
		}
		e.Close()
	}
}

// FuzzNeedleScan feeds arbitrary bundle bytes to OpenPack. The scan must
// not panic or hang, and every needle it indexes must lie inside the
// file it leaves behind.
func FuzzNeedleScan(f *testing.F) {
	seed := writeBundle(f, f.TempDir(), map[string][]byte{
		"a": []byte("first"), "bb": make([]byte, 300), "ccc": []byte("third"),
	}, "bb")
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(seed[:needleHdrLen-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, bundle []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "bundle-000000.pack"), bundle, 0o644); err != nil {
			t.Fatal(err)
		}
		e := openWithin(t, dir, 10*time.Second)
		defer e.Close()
		checkIndex(t, e, dir)
	})
}
