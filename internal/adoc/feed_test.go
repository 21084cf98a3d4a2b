package adoc

import (
	"bytes"
	"errors"
	"testing"

	"padico/internal/iovec"
	"padico/internal/vlink"
	"padico/internal/vlink/vlinktest"
	"padico/internal/vtime"
)

// frames encodes chunks as the write side does: each deflated at the
// level an idle link gets, or stored when deflate does not shrink it.
func frames(chunks ...[]byte) []byte {
	c := &conn{}
	var out []byte
	for _, chunk := range chunks {
		f, _ := c.frame(chunk)
		out = append(out, f.Bytes()...)
		f.Release()
	}
	return out
}

// readAll posts one read on c and returns what it completed with.
func readAll(c vlink.Conn) (int, error) {
	n, err := -1, error(nil)
	c.PostRead(make([]byte, 1<<16), func(m int, e error) { n, err = m, e })
	return n, err
}

// accepted returns an AdOC conn accepted over an inner conn whose bytes
// feed hands over.
func accepted() (c vlink.Conn, feed func([]byte)) {
	k := vtime.NewKernel()
	raw := vlinktest.NewLoopbackDriver(k, 0)
	ln, _ := New(k, raw).Listen(1)
	ln.SetAcceptHandler(func(ac vlink.Conn) { c = ac })
	in := raw.Inject(1)
	return c, func(b []byte) { in.Push(nil, b); in.Deliver() }
}

// TestCorruptFrameEndsTheRead feeds frames that cannot decode: deflated
// bytes that do not inflate, and lengths beyond ChunkSize. The pending
// read and every later one end with ErrCorrupt; nothing panics.
func TestCorruptFrameEndsTheRead(t *testing.T) {
	hdr := func(lvl uint8, orig, clen uint32, body []byte) []byte {
		w := iovec.NewWriter(nil)
		w.PutU8(lvl)
		w.PutU32(orig)
		w.PutU32(clen)
		w.Put(body)
		return w.Bytes()
	}
	text := bytes.Repeat([]byte("ab"), 500)
	overstated := frames(text) // claims one byte more than it inflates to
	w := iovec.NewWriter(overstated[1:1])
	w.PutU32(uint32(len(text) + 1))
	for name, wire := range map[string][]byte{
		"garbage deflate": hdr(1, 100, 5, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}),
		"short inflate":   overstated,
		"orig too large":  hdr(0, ChunkSize+1, 1, []byte{0}),
		"clen too large":  hdr(1, 1, 0xFFFFFFFF, nil),
	} {
		c, feed := accepted()
		n, err := -1, error(nil)
		c.PostRead(make([]byte, 64), func(m int, e error) { n, err = m, e })
		feed(wire)
		if n != 0 || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: read completed with (%d, %v), want (0, ErrCorrupt)", name, n, err)
		}
		feed(frames([]byte("after")))
		if n, err := readAll(c); n != 0 || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: a later read got (%d, %v), want (0, ErrCorrupt)", name, n, err)
		}
	}
}
