package adoc

import (
	"bytes"
	"errors"
	"testing"

	"padico/internal/iovec"
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
func readAll(c *conn) (int, error) {
	n, err := -1, error(nil)
	c.PostRead(make([]byte, 1<<16), func(m int, e error) { n, err = m, e })
	return n, err
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
		c := &conn{}
		n, err := -1, error(nil)
		c.PostRead(make([]byte, 64), func(m int, e error) { n, err = m, e })
		c.feed(wire)
		if n != 0 || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: read completed with (%d, %v), want (0, ErrCorrupt)", name, n, err)
		}
		c.feed(frames([]byte("after")))
		if n, err := readAll(c); n != 0 || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: a later read got (%d, %v), want (0, ErrCorrupt)", name, n, err)
		}
	}
}

// FuzzAdocFeed feeds arbitrary bytes to the frame parser, whole and
// split in two at an arbitrary point. It must not panic; both feeds must
// agree on whether the stream broke and, if it did not, on the bytes
// decoded; those must be no more than ChunkSize per frame header the
// input could hold. And the input itself, framed by the write side,
// must decode back to itself.
func FuzzAdocFeed(f *testing.F) {
	text := bytes.Repeat([]byte("adaptive online compression "), 100)
	f.Add(frames(text), uint16(3))
	f.Add(frames([]byte("tiny"), text), uint16(200))
	f.Add(frames(text)[:40], uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		whole, parts := &conn{}, &conn{}
		whole.feed(data)
		cut := int(split) % (len(data) + 1)
		parts.feed(data[:cut])
		parts.feed(data[cut:])
		if (whole.err == nil) != (parts.err == nil) {
			t.Fatalf("whole feed err %v, split at %d err %v", whole.err, cut, parts.err)
		}
		if whole.err == nil && !bytes.Equal(whole.rx.Bytes(), parts.rx.Bytes()) {
			t.Fatalf("split at %d decodes differently", cut)
		}
		if max := ChunkSize * (len(data)/chunkHdrLen + 1); whole.rx.Len() > max {
			t.Fatalf("%d input bytes decoded to %d", len(data), whole.rx.Len())
		}
		if len(data) > ChunkSize {
			return
		}
		c := &conn{}
		c.feed(frames(data))
		if c.err != nil || !bytes.Equal(c.rx.Bytes(), data) {
			t.Fatalf("round trip of %d bytes: err %v, got %d bytes", len(data), c.err, c.rx.Len())
		}
	})
}
