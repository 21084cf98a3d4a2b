package pstreams_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"padico/internal/iovec"
	"padico/internal/pstreams"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vlink/vlinktest"
	"padico/internal/vtime"
)

// dial establishes one striped link over the hostile driver.
func dial(t *testing.T, p *vtime.Proc, k *vtime.Kernel, hostile *vlinktest.Driver, stripes int) (snd, rcv *vlink.VLink) {
	t.Helper()
	ep := vlink.NewEndpoint(topology.NodeID(0))
	ep.AddDriver(pstreams.New(k, 0, hostile, stripes))
	ln, err := ep.Listen("pstreams", 1)
	if err != nil {
		t.Fatal(err)
	}
	snd, err = ep.ConnectWait(p, "pstreams", vlink.Addr{Node: 0, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	return snd, ln.Accept(p)
}

// Property: whatever the write sizes, the striping width, the order the
// stripes deliver in and the places the inner reads cut the 12-byte
// header and the body, the reader sees the written stream, in non-empty
// pieces, then EOF once — and no pooled buffer stays out.
func TestStreamIntegrityUnderFragmentation(t *testing.T) {
	for _, maxRead := range []int{1, 5, 13, 1000, 64 << 10} {
		for _, stripes := range []int{1, 2, 4} {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("read%d/stripes%d/seed%d", maxRead, stripes, seed), func(t *testing.T) {
					streamTrial(t, maxRead, stripes, seed)
				})
			}
		}
	}
}

func streamTrial(t *testing.T, maxRead, stripes int, seed int64) {
	rnd := rand.New(rand.NewSource(seed))
	k := vtime.NewKernel()
	hostile := &vlinktest.Driver{Inner: vlinktest.NewLoopbackDriver(k, 0), K: k, Rand: rnd,
		MaxRead: maxRead, MaxDelay: 50 * time.Microsecond}
	writes := 1 + rnd.Intn(8)
	if maxRead < 100 {
		writes = 1 + rnd.Intn(2) // one event per byte: keep the trial short
	}
	var sent, got []byte
	base := iovec.Outstanding()
	if err := k.Run(func(p *vtime.Proc) {
		snd, rcv := dial(t, p, k, hostile, stripes)
		done := vtime.NewWaitGroup("sink")
		done.Add(1)
		k.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			buf := make([]byte, 100<<10)
			for {
				n, err := rcv.Read(q, buf[:1+rnd.Intn(len(buf))])
				got = append(got, buf[:n]...)
				if err == io.EOF && n == 0 {
					return
				}
				if err != nil || n == 0 {
					t.Errorf("read completed with n=%d err=%v before EOF", n, err)
					return
				}
			}
		})
		for i := 0; i < writes; i++ {
			b := make([]byte, rnd.Intn(3*pstreams.ChunkSize+1))
			rnd.Read(b)
			sent = append(sent, b...)
			if n, err := snd.PostWrite(b).Wait(p); n != len(b) || err != nil {
				t.Fatalf("write %d: n=%d err=%v", i, n, err)
			}
		}
		snd.Close()
		done.Wait(p)
		if !bytes.Equal(got, sent) {
			t.Errorf("stream corrupted: %d bytes written, %d read", len(sent), len(got))
		}
		if n, err := rcv.Read(p, make([]byte, 8)); n != 0 || err != io.EOF {
			t.Errorf("read after EOF: n=%d err=%v", n, err)
		}
		rcv.Close()
		p.Sleep(time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	if d := iovec.Outstanding() - base; d != 0 {
		t.Errorf("%d pooled buffers still out after both ends closed", d)
	}
}

// A link dies with stripe 0 stuck inside its first chunk: the chunks of
// the other stripes are complete but stashed behind the gap. Close must
// hand all of them, and the half-filled body, back to the pool — at once
// when nobody reads, and after completing the read when one is posted.
func TestCloseReleasesStashedChunks(t *testing.T) {
	for _, posted := range []bool{false, true} {
		t.Run(fmt.Sprintf("readPosted=%v", posted), func(t *testing.T) {
			k := vtime.NewKernel()
			stuck := false
			hostile := &vlinktest.Driver{Inner: vlinktest.NewLoopbackDriver(k, 0), K: k,
				Rand: rand.New(rand.NewSource(1)), MaxRead: 100, MaxDelay: time.Microsecond,
				Hold: func(accepted bool, n int) bool { return stuck && accepted && n == 0 }}
			base := iovec.Outstanding()
			if err := k.Run(func(p *vtime.Proc) {
				snd, rcv := dial(t, p, k, hostile, 4)
				stuck = true
				payload := make([]byte, 8*pstreams.ChunkSize)
				rand.New(rand.NewSource(2)).Read(payload)
				snd.Write(p, payload)
				p.Sleep(50 * time.Millisecond) // stripes 1-3 deliver, stripe 0 sticks
				if iovec.Outstanding() == base {
					t.Fatal("nothing stashed: the scenario does not test Close")
				}
				var op *vlink.Op
				buf := make([]byte, 64)
				if posted {
					op = rcv.PostRead(buf)
				}
				rcv.Close()
				if posted {
					// As before the reassembler pooled anything: the read
					// stays posted over Close and takes the next bytes.
					if op.Done() {
						t.Fatal("Close completed the posted read")
					}
					stuck = false
					hostile.Release()
					if n, err := op.Wait(p); n != len(buf) || err != nil || !bytes.Equal(buf, payload[:n]) {
						t.Fatalf("posted read: n=%d err=%v", n, err)
					}
				}
				if d := iovec.Outstanding() - base; d != 0 {
					t.Errorf("%d pooled buffers still out after Close", d)
				}
				snd.Close()
				p.Sleep(50 * time.Millisecond)
			}); err != nil {
				t.Fatal(err)
			}
			if d := iovec.Outstanding() - base; d != 0 {
				t.Errorf("%d pooled buffers still out after both ends closed", d)
			}
		})
	}
}

// A preamble that cannot belong to the link it names closes its stripe
// instead of panicking the listener: an index beyond the announced
// count, a count of zero, a count other than the one the link's first
// stripe announced, an index already taken. The link then completes
// with its real stripes.
func TestBadPreambleClosesTheStripe(t *testing.T) {
	k := vtime.NewKernel()
	raw := vlinktest.NewLoopbackDriver(k, 0)
	ln, err := pstreams.New(k, 0, raw, 2).Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	var link vlink.Conn
	ln.SetAcceptHandler(func(c vlink.Conn) { link = c })
	for _, s := range []struct {
		name         string
		lid          uint64
		index, total uint8
		closed       bool
	}{
		{"stripe 3 of 2", 1, 3, 2, true},
		{"stripe 0 of 0", 2, 0, 0, true},
		{"stripe 0 of 2", 1, 0, 2, false},
		{"stripe 1 of 3 on a link of 2", 1, 1, 3, true},
		{"stripe 0 of 2 again", 1, 0, 2, true},
		{"stripe 1 of 2", 1, 1, 2, false},
	} {
		in := raw.Inject(1)
		in.Push(nil, iovec.NewWriter(nil).PutU64(s.lid).PutU8(s.index).PutU8(s.total).Bytes())
		in.Deliver()
		if in.Closed() != s.closed {
			t.Fatalf("%s: stripe closed = %v, want %v", s.name, in.Closed(), s.closed)
		}
	}
	if link == nil {
		t.Fatal("the link's two real stripes did not make a link")
	}
}
