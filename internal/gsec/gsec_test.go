package gsec_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"padico/internal/gsec"
	"padico/internal/iovec"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vlink/vlinktest"
	"padico/internal/vtime"
)

func endpoint(k *vtime.Kernel, key string) *vlink.Endpoint {
	ep := vlink.NewEndpoint(topology.NodeID(0))
	ep.AddDriver(gsec.New(k, vlinktest.NewLoopbackDriver(k, 0),
		gsec.Credential{ID: "test-ca", Key: []byte(key)}))
	return ep
}

// roundTrip writes payload through one ciphered loopback link and
// returns what the acceptor read before EOF.
func roundTrip(t *testing.T, payload []byte) []byte {
	k := vtime.NewKernel()
	ep := endpoint(k, "shared-secret")
	var got []byte
	if err := k.Run(func(p *vtime.Proc) {
		ln, err := ep.Listen("gsec", 1)
		if err != nil {
			t.Fatal(err)
		}
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		k.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			v := ln.Accept(q)
			buf := make([]byte, 16<<10)
			for {
				n, err := v.Read(q, buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		})
		v, err := ep.ConnectWait(p, "gsec", vlink.Addr{Node: 0, Port: 1})
		if err != nil {
			t.Fatal(err)
		}
		v.Write(p, payload)
		v.Close()
		done.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAuthenticatedEncryptedRoundTrip(t *testing.T) {
	payload := make([]byte, 60000)
	rand.New(rand.NewSource(2)).Read(payload)
	if got := roundTrip(t, payload); !bytes.Equal(got, payload) {
		t.Fatal("ciphered stream corrupted")
	}
}

// One write longer than a record may carry goes out as several records:
// the receiver, which ends the stream on a longer one, reads it intact.
func TestLongWriteSplitsIntoRecords(t *testing.T) {
	payload := make([]byte, 3<<20+5)
	rand.New(rand.NewSource(5)).Read(payload)
	if got := roundTrip(t, payload); !bytes.Equal(got, payload) {
		t.Fatalf("%d bytes written in one write, %d read back intact", len(payload), len(got))
	}
}

func TestWrongKeyRefused(t *testing.T) {
	k := vtime.NewKernel()
	// Two drivers with different PSKs on the same node: the dialer must
	// be rejected by the acceptor's verification.
	good := vlink.NewEndpoint(topology.NodeID(0))
	inner := vlinktest.NewLoopbackDriver(k, 0)
	good.AddDriver(gsec.New(k, inner, gsec.Credential{ID: "ca", Key: []byte("right-key")}))
	evilDrv := gsec.New(k, inner, gsec.Credential{ID: "ca", Key: []byte("wrong-key")})
	evil := vlink.NewEndpoint(topology.NodeID(0))
	evil.AddDriver(evilDrv)

	if err := k.Run(func(p *vtime.Proc) {
		ln, err := good.Listen("gsec", 1)
		if err != nil {
			t.Fatal(err)
		}
		accepted := false
		ln.SetAcceptHandler(func(*vlink.VLink) { accepted = true })
		_, err = evil.ConnectWait(p, "gsec", vlink.Addr{Node: 0, Port: 1})
		if !errors.Is(err, gsec.ErrAuth) {
			t.Fatalf("dial with wrong key: err = %v, want ErrAuth", err)
		}
		if accepted {
			t.Fatal("acceptor produced a link for a failed handshake")
		}
		if evilDrv.AuthFails == 0 {
			t.Fatal("no auth failure recorded")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary chunkings cross the record layer intact.
func TestQuickRecordLayer(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		k := vtime.NewKernel()
		ep := endpoint(k, "k")
		rnd := rand.New(rand.NewSource(int64(trial)))
		var msg []byte
		sizes := make([]int, rnd.Intn(6)+1)
		for i := range sizes {
			sizes[i] = rnd.Intn(9000) + 1
			b := make([]byte, sizes[i])
			rnd.Read(b)
			msg = append(msg, b...)
		}
		var got []byte
		if err := k.Run(func(p *vtime.Proc) {
			ln, _ := ep.Listen("gsec", 1)
			done := vtime.NewWaitGroup("done")
			done.Add(1)
			k.Go("sink", func(q *vtime.Proc) {
				defer done.Done()
				v := ln.Accept(q)
				buf := make([]byte, 4096)
				for {
					n, err := v.Read(q, buf)
					got = append(got, buf[:n]...)
					if err != nil {
						return
					}
				}
			})
			v, err := ep.ConnectWait(p, "gsec", vlink.Addr{Node: 0, Port: 1})
			if err != nil {
				t.Fatal(err)
			}
			off := 0
			for _, n := range sizes {
				v.Write(p, msg[off:off+n])
				off += n
			}
			v.Close()
			done.Wait(p)
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("trial %d corrupted", trial)
		}
	}
}

// dialHostile establishes one ciphered link whose inner connection is
// the hostile driver's.
func dialHostile(t *testing.T, p *vtime.Proc, k *vtime.Kernel, hostile *vlinktest.Driver) (snd, rcv *vlink.VLink) {
	t.Helper()
	ep := vlink.NewEndpoint(topology.NodeID(0))
	ep.AddDriver(gsec.New(k, hostile, gsec.Credential{ID: "test-ca", Key: []byte("k")}))
	ln, err := ep.Listen("gsec", 1)
	if err != nil {
		t.Fatal(err)
	}
	snd, err = ep.ConnectWait(p, "gsec", vlink.Addr{Node: 0, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	return snd, ln.Accept(p)
}

// The record layer's fragmentation table: the inner reads cut the
// 4-byte length, the ciphertext and the 16-byte MAC at every offset, and
// one record is empty. The reader sees the written stream in non-empty
// pieces, then EOF once, and every record buffer goes back to the pool.
func TestRecordLayerUnderFragmentation(t *testing.T) {
	for _, maxRead := range []int{1, 3, 5, 19, 1000, 64 << 10} {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("read%d/seed%d", maxRead, seed), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(seed))
				k := vtime.NewKernel()
				hostile := &vlinktest.Driver{Inner: vlinktest.NewLoopbackDriver(k, 0), K: k, Rand: rnd,
					MaxRead: maxRead, MaxDelay: 50 * time.Microsecond}
				sizes := []int{rnd.Intn(9000) + 1, 0, rnd.Intn(70000) + 1, 1, rnd.Intn(300)}
				var sent, got []byte
				base := iovec.Outstanding()
				if err := k.Run(func(p *vtime.Proc) {
					snd, rcv := dialHostile(t, p, k, hostile)
					done := vtime.NewWaitGroup("sink")
					done.Add(1)
					k.Go("sink", func(q *vtime.Proc) {
						defer done.Done()
						buf := make([]byte, 20000)
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
					for i, n := range sizes {
						b := make([]byte, n)
						rnd.Read(b)
						sent = append(sent, b...)
						if w, err := snd.PostWrite(b).Wait(p); w != n || err != nil {
							t.Fatalf("record %d: n=%d err=%v", i, w, err)
						}
					}
					snd.Close()
					done.Wait(p)
					if !bytes.Equal(got, sent) {
						t.Errorf("stream corrupted: %d bytes written, %d read", len(sent), len(got))
					}
					rcv.Close()
					p.Sleep(time.Millisecond)
				}); err != nil {
					t.Fatal(err)
				}
				if d := iovec.Outstanding() - base; d != 0 {
					t.Errorf("%d pooled buffers still out after both ends closed", d)
				}
			})
		}
	}
}

// One flipped ciphertext bit in the second of three records: the first
// record is delivered, then the connection fails — the pending read and
// every later one complete with ErrIntegrity, nothing of the bad record
// or the good one behind it comes out, no buffer stays out, and the
// process does not panic.
func TestBadMACFailsTheConnection(t *testing.T) {
	const rec = 5000
	hello := 2 + len("test-ca") + 16 + 16
	flip := int64(hello + (4 + rec + 16) + 4 + rec/2) // mid-ciphertext of record 2
	k := vtime.NewKernel()
	hostile := &vlinktest.Driver{Inner: vlinktest.NewLoopbackDriver(k, 0), K: k,
		Rand: rand.New(rand.NewSource(3)), MaxRead: 700, MaxDelay: time.Microsecond,
		Mangle: func(accepted bool, _ int, off int64, p []byte) {
			if accepted && off <= flip && flip < off+int64(len(p)) {
				p[flip-off] ^= 0x10
			}
		}}
	payload := make([]byte, 3*rec)
	rand.New(rand.NewSource(4)).Read(payload)
	base := iovec.Outstanding()
	if err := k.Run(func(p *vtime.Proc) {
		snd, rcv := dialHostile(t, p, k, hostile)
		for off := 0; off < len(payload); off += rec {
			snd.Write(p, payload[off:off+rec])
		}
		var got []byte
		buf := make([]byte, 1500)
		var err error
		for err == nil {
			var n int
			n, err = rcv.Read(p, buf)
			got = append(got, buf[:n]...)
		}
		if !errors.Is(err, gsec.ErrIntegrity) {
			t.Fatalf("read ended with %v, want ErrIntegrity", err)
		}
		if !bytes.Equal(got, payload[:rec]) {
			t.Fatalf("%d bytes delivered, want exactly the first record's %d", len(got), rec)
		}
		if n, err := rcv.Read(p, buf); n != 0 || !errors.Is(err, gsec.ErrIntegrity) {
			t.Fatalf("later read: n=%d err=%v, want ErrIntegrity", n, err)
		}
		rcv.Close()
		snd.Close()
		p.Sleep(time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	if d := iovec.Outstanding() - base; d != 0 {
		t.Errorf("%d pooled buffers still out after the failed connection closed", d)
	}
}
