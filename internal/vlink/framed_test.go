package vlink_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"padico/internal/adoc"
	"padico/internal/gsec"
	"padico/internal/iovec"
	"padico/internal/pstreams"
	"padico/internal/vlink"
	"padico/internal/vlink/vlinktest"
	"padico/internal/vtime"
)

// A framed format is a wrapper driver whose receive side is an Inbox
// fed by ReadFrames.
type framedFormat struct {
	name string
	err  error // what a broken stream ends with
	wrap func(k *vtime.Kernel, inner vlink.Driver) vlink.Driver
	// maxFrame is the largest buffer one frame may hold before its bytes
	// arrived: the pool class of the format's largest body.
	maxFrame int
	// claim is a frame header announcing a 256 MiB body.
	claim []byte
}

var framedFormats = []framedFormat{
	{"pstreams", pstreams.ErrCorrupt, func(k *vtime.Kernel, inner vlink.Driver) vlink.Driver {
		return pstreams.New(k, 0, inner, 1)
	}, 64 << 10, iovec.NewWriter(nil).PutU64(0).PutU32(256 << 20).Bytes()},
	{"gsec", gsec.ErrIntegrity, func(k *vtime.Kernel, inner vlink.Driver) vlink.Driver {
		return gsec.New(k, inner, gsec.Credential{ID: "fuzz-ca", Key: []byte("fuzz-key")})
	}, 1 << 20, iovec.NewWriter(nil).PutU32(256 << 20).Bytes()},
	{"adoc", adoc.ErrCorrupt, func(k *vtime.Kernel, inner vlink.Driver) vlink.Driver {
		return adoc.New(k, inner)
	}, 64 << 10, iovec.NewWriter(nil).PutU8(1).PutU32(256 << 20).PutU32(256 << 20).Bytes()},
}

// encode returns the bytes a fresh dialer of format f sends on its
// inner conn for the given writes, read off the acceptor's side of a
// loopback pair. A fresh driver's handshake nonce and link id are fixed,
// so the bytes before the first write (gsec's hello, the pstreams
// preamble) are the same every time, and so is gsec's session key.
func encode(t testing.TB, f framedFormat, writes ...[]byte) []byte {
	k := vtime.NewKernel()
	var wire []byte
	tap := &vlinktest.Driver{Inner: vlinktest.NewLoopbackDriver(k, 0), K: k,
		Mangle: func(accepted bool, _ int, _ int64, p []byte) {
			if accepted {
				wire = append(wire, p...)
			}
		}}
	ln, err := f.wrap(k, tap).Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	ln.SetAcceptHandler(func(c vlink.Conn) {})
	if err := k.Run(func(p *vtime.Proc) {
		f.wrap(k, tap).Dial(vlink.Addr{Port: 1}, func(c vlink.Conn, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			left := len(writes)
			for _, w := range writes {
				c.PostWritev(iovec.Make(w), func(int, error) {
					if left--; left == 0 {
						c.Close()
					}
				})
			}
			if left == 0 {
				c.Close()
			}
		})
		p.Sleep(time.Second)
	}); err != nil {
		t.Fatal(err)
	}
	return wire
}

// received is what an acceptor's reads of one inbound stream came to.
type received struct {
	n     int
	sum   [32]byte // sha256 of the bytes read
	err   error    // what the last read completed with
	alloc uint64   // bytes allocated from the first byte pushed to the end
}

// receive accepts a conn of format f over an inner conn that delivers
// wire in two pieces, cut at cut, then its end, and reads it to its end.
func receive(f framedFormat, wire []byte, cut int) received {
	k := vtime.NewKernel()
	raw := vlinktest.NewLoopbackDriver(k, 0)
	ln, _ := f.wrap(k, raw).Listen(1)
	var c vlink.Conn
	ln.SetAcceptHandler(func(ac vlink.Conn) { c = ac })
	var r received
	h := sha256.New()
	buf := make([]byte, 64<<10)
	posted := false
	read := func(n int, err error) {
		posted = false
		r.n += n
		h.Write(buf[:n])
		r.err = err
	}
	drain := func() {
		for c != nil && r.err == nil && !posted {
			posted = true
			c.PostRead(buf, read)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	in := raw.Inject(1)
	for _, piece := range [][]byte{wire[:cut], wire[cut:]} {
		in.Push(nil, piece)
		in.Deliver()
		drain()
	}
	in.End(io.EOF)
	drain()
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - before
	h.Sum(r.sum[:0])
	if c != nil {
		c.Close()
	}
	return r
}

// allocBound is what receiving input bytes may allocate: a fixed cost
// per conn (handshake, inflater), a bounded cost per input byte (the
// smallest frame still takes a pooled buffer and its bookkeeping), what
// the frames produced, and one frame whose bytes have not all arrived.
// Nothing in it grows with what a header claims.
func allocBound(f framedFormat, input, output int) uint64 {
	return uint64(512<<10 + 64*input + 2*output + f.maxFrame)
}

// TestHostileLengthClaims: one frame header claiming a 256 MiB body
// ends the read with the format's error, and the receive side allocates
// no more than it would for a well-formed frame.
func TestHostileLengthClaims(t *testing.T) {
	for _, f := range framedFormats {
		t.Run(f.name, func(t *testing.T) {
			wire := append(encode(t, f), f.claim...)
			r := receive(f, wire, len(wire))
			if r.n != 0 || !errors.Is(r.err, f.err) {
				t.Fatalf("read ended with (%d, %v), want (0, %v)", r.n, r.err, f.err)
			}
			if r.alloc >= 1<<20 {
				t.Fatalf("a 256 MiB claim allocated %d bytes", r.alloc)
			}
		})
	}
}

// FuzzFramed feeds arbitrary bytes to each framed format's receive side,
// after the fixed handshake or preamble a fresh dialer sends: whole, and
// split in two at an arbitrary point. It must not panic; both feeds must
// read the same bytes and end the same way; the bytes read are at most
// the input (pstreams, gsec) or ChunkSize per frame header the input
// could hold (AdOC); and what is allocated grows with the input, never
// with what a header claims. The input itself, written by the format's
// encoder, must read back exactly.
func FuzzFramed(f *testing.F) {
	text := bytes.Repeat([]byte("adaptive online compression "), 10)
	hellos := make([][]byte, len(framedFormats))
	for i, fm := range framedFormats {
		hellos[i] = encode(f, fm)
		one := encode(f, fm, text)[len(hellos[i]):]
		f.Add(uint8(i), one, uint16(3))
		f.Add(uint8(i), encode(f, fm, []byte("tiny"), text)[len(hellos[i]):], uint16(200))
		f.Add(uint8(i), one[:40], uint16(0))
	}
	f.Fuzz(func(t *testing.T, format uint8, data []byte, split uint16) {
		i := int(format) % len(framedFormats)
		fm, hello := framedFormats[i], hellos[i]
		wire := append(append([]byte(nil), hello...), data...)
		whole := receive(fm, wire, len(wire))
		parts := receive(fm, wire, len(hello)+int(split)%(len(data)+1))
		if whole.n != parts.n || whole.sum != parts.sum || (whole.err == io.EOF) != (parts.err == io.EOF) {
			t.Fatalf("%s: whole feed read %d bytes and ended with %v, split at %d read %d and ended with %v",
				fm.name, whole.n, whole.err, split, parts.n, parts.err)
		}
		if whole.err != io.EOF && !errors.Is(whole.err, fm.err) {
			t.Fatalf("%s: read ended with %v", fm.name, whole.err)
		}
		max := len(data)
		if fm.name == "adoc" {
			max = adoc.ChunkSize * (len(data)/9 + 1)
		}
		if whole.n > max {
			t.Fatalf("%s: %d input bytes read as %d", fm.name, len(data), whole.n)
		}
		if b := allocBound(fm, len(data), whole.n); whole.alloc > b {
			t.Fatalf("%s: %d input bytes allocated %d, bound %d", fm.name, len(data), whole.alloc, b)
		}
		wire = encode(t, fm, data)
		back := receive(fm, wire, len(wire)/2)
		if back.err != io.EOF || back.n != len(data) || back.sum != sha256.Sum256(data) {
			t.Fatalf("%s: round trip of %d bytes read %d and ended with %v", fm.name, len(data), back.n, back.err)
		}
	})
}
