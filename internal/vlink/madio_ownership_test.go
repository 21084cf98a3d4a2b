package vlink_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"padico/internal/iovec"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// madioPair connects node 0 to node 1 over the madio driver and returns
// both ends.
func (tb *testbed) madioPair(t *testing.T, p *vtime.Proc) (a, b *vlink.VLink) {
	t.Helper()
	ln, err := tb.ep[1].Listen("madio", 9000)
	if err != nil {
		t.Fatal(err)
	}
	a, err = tb.ep[0].ConnectWait(p, "madio", vlink.Addr{Node: 1, Port: 9000})
	if err != nil {
		t.Fatal(err)
	}
	return a, ln.Accept(p)
}

// Write's contract ends the caller's borrow when it returns: the madio
// driver must own the bytes by then, because MadIO lends a message's
// segments all the way to the receiver. Before the driver took
// ownership, a buffer reused right after Write corrupted the message in
// flight.
func TestMadIOWriteEndsTheBorrow(t *testing.T) {
	for _, size := range []int{1, 4096, 1 << 20} {
		tb := newTestbed(t)
		want := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(want)
		if err := tb.k.Run(func(p *vtime.Proc) {
			a, b := tb.madioPair(t, p)
			buf := append([]byte(nil), want...)
			if _, err := a.Write(p, buf); err != nil {
				t.Fatal(err)
			}
			clear(buf) // reuse the buffer while the message is on the wire
			got := make([]byte, size)
			if _, err := b.ReadFull(p, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%d B: receiver saw the sender's later writes", size)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// Every pooled buffer a madConn sends comes back to the pool, whichever
// way the message ends: read, left unread at Close or Fail, arriving
// after the reader closed, or dropped by MadIO because the logical
// channel was unregistered under it.
func TestMadIOBuffersGoBackToThePool(t *testing.T) {
	msg := make([]byte, 10000)
	endings := []struct {
		name string
		end  func(tb *testbed, p *vtime.Proc, a, b *vlink.VLink)
	}{
		{"read in pieces", func(tb *testbed, p *vtime.Proc, a, b *vlink.VLink) {
			buf := make([]byte, 3000)
			for got := 0; got < 2*len(msg); {
				n, err := b.Read(p, buf)
				if err != nil {
					t.Fatal(err)
				}
				got += n
			}
		}},
		{"queued unread at Close", func(tb *testbed, p *vtime.Proc, a, b *vlink.VLink) {
			p.Sleep(time.Millisecond) // both messages delivered, nobody reads
			b.Close()
		}},
		{"queued unread at Fail", func(tb *testbed, p *vtime.Proc, a, b *vlink.VLink) {
			p.Sleep(time.Millisecond)
			b.Fail()
		}},
		{"in flight at Close", func(tb *testbed, p *vtime.Proc, a, b *vlink.VLink) {
			b.Close() // the messages arrive at a link that is gone
			p.Sleep(time.Millisecond)
		}},
		{"in flight at MadIO.Unregister", func(tb *testbed, p *vtime.Proc, a, b *vlink.VLink) {
			tb.mio[1].Unregister(madioLogical) // MadIO discards them on arrival
			p.Sleep(time.Millisecond)
			if tb.mio[1].MsgsDropped != 2 {
				t.Errorf("MadIO dropped %d messages, want 2", tb.mio[1].MsgsDropped)
			}
		}},
	}
	for _, e := range endings {
		t.Run(e.name, func(t *testing.T) {
			tb := newTestbed(t)
			if err := tb.k.Run(func(p *vtime.Proc) {
				a, b := tb.madioPair(t, p)
				before := iovec.Outstanding()
				for i := 0; i < 2; i++ {
					if _, err := a.Write(p, msg); err != nil {
						t.Fatal(err)
					}
				}
				if iovec.Outstanding() != before+2 {
					t.Fatalf("%d buffers in flight after two writes, want 2", iovec.Outstanding()-before)
				}
				e.end(tb, p, a, b)
				if left := iovec.Outstanding() - before; left != 0 {
					t.Errorf("%d buffers never released", left)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
