// Package gsec implements the security communication method of §3.2
// ("Encryption and authentication ... through the use of a protocol
// plug-in", in the spirit of GSI): a VLink wrapper driver that performs
// mutual authentication with pre-shared-key certificates at connect
// time, then protects the stream with AES-CTR encryption and
// HMAC-SHA256 integrity per record.
//
// The selector applies it per-link: ciphering is pointless on secure
// machine-room networks and mandated on inter-site links (§2.1).
package gsec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"padico/internal/iovec"
	"padico/internal/model"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// ErrAuth is returned when the peer fails the handshake.
var ErrAuth = errors.New("gsec: authentication failed")

// ErrIntegrity fails a connection that received a record whose MAC does
// not verify: nothing from that record on is delivered, and the pending
// and every later read complete with it.
var ErrIntegrity = errors.New("gsec: record integrity failure")

const (
	nonceLen  = 16
	macLen    = 16 // truncated HMAC-SHA256
	recHdrLen = 4
)

// Credential is a pre-shared-key "certificate" (the paper leaves full
// GSI certificate chains and delegation as future work).
type Credential struct {
	ID  string
	Key []byte
}

// Driver decorates an inner VLink driver with authentication and
// encryption.
type Driver struct {
	k     *vtime.Kernel
	inner vlink.Driver
	cred  Credential
	seq   uint64

	Handshakes int64
	AuthFails  int64
}

// New builds a gsec driver over inner with the given credential. Both
// ends must hold the same key.
func New(k *vtime.Kernel, inner vlink.Driver, cred Credential) *Driver {
	return &Driver{k: k, inner: inner, cred: cred}
}

// Name implements vlink.Driver.
func (d *Driver) Name() string { return "gsec" }

// Listen implements vlink.Driver.
func (d *Driver) Listen(port int) (vlink.Listener, error) {
	il, err := d.inner.Listen(port)
	if err != nil {
		return nil, err
	}
	l := &listener{d: d, il: il}
	il.SetAcceptHandler(func(c vlink.Conn) {
		d.handshake(c, false, func(sc vlink.Conn, err error) {
			if err != nil {
				c.Close()
				return
			}
			if l.accept != nil {
				l.accept(sc)
			}
		})
	})
	return l, nil
}

type listener struct {
	d      *Driver
	il     vlink.Listener
	accept func(vlink.Conn)
}

func (l *listener) SetAcceptHandler(fn func(vlink.Conn)) { l.accept = fn }
func (l *listener) Close()                               { l.il.Close() }

// Dial implements vlink.Driver.
func (d *Driver) Dial(addr vlink.Addr, cb func(vlink.Conn, error)) {
	d.inner.Dial(addr, func(c vlink.Conn, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		d.handshake(c, true, cb)
	})
}

// handshake: both sides send [idLen][id][nonce][HMAC(key, id||nonce)],
// verify the peer's proof, and derive the session key
// HMAC(key, dialerNonce || acceptorNonce).
func (d *Driver) handshake(c vlink.Conn, dialer bool, cb func(vlink.Conn, error)) {
	d.Handshakes++
	d.seq++
	var myNonce [nonceLen]byte
	// Deterministic nonce: derived from the driver identity and a
	// sequence number (the simulation has no entropy source).
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%v", d.cred.ID, d.seq, dialer)))
	copy(myNonce[:], sum[:nonceLen])

	hello := buildHello(d.cred, myNonce[:])
	c.PostWritev(iovec.Make(hello), func(int, error) {})

	// Read the peer hello (variable length: read header then rest).
	hdr := make([]byte, 2)
	readFull(c, hdr, func(err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		idLen := int(iovec.NewReader(hdr).U16())
		rest := make([]byte, idLen+nonceLen+macLen)
		readFull(c, rest, func(err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			r := iovec.NewReader(rest)
			peerID, peerNonce, proof := string(r.Next(idLen)), r.Next(nonceLen), r.Next(macLen)
			if !verifyHello(d.cred, peerID, peerNonce, proof) {
				d.AuthFails++
				cb(nil, ErrAuth)
				return
			}
			var a, b []byte
			if dialer {
				a, b = myNonce[:], peerNonce
			} else {
				a, b = peerNonce, myNonce[:]
			}
			mac := hmac.New(sha256.New, d.cred.Key)
			mac.Write(a)
			mac.Write(b)
			session := mac.Sum(nil) // 32 bytes: 16 for AES key, 16 for IV base
			sc, err := newSecConn(d, c, session)
			cb(sc, err)
		})
	})
}

func buildHello(cred Credential, nonce []byte) []byte {
	mac := hmac.New(sha256.New, cred.Key)
	mac.Write([]byte(cred.ID))
	mac.Write(nonce)
	proof := mac.Sum(nil)[:macLen]
	return iovec.NewWriter(make([]byte, 0, 2+len(cred.ID)+nonceLen+macLen)).
		PutU16(uint16(len(cred.ID))).Put([]byte(cred.ID)).Put(nonce).Put(proof).Bytes()
}

func verifyHello(cred Credential, id string, nonce, proof []byte) bool {
	mac := hmac.New(sha256.New, cred.Key)
	mac.Write([]byte(id))
	mac.Write(nonce)
	want := mac.Sum(nil)[:macLen]
	return hmac.Equal(want, proof)
}

// readFull reads exactly len(buf) bytes through chained PostReads.
func readFull(c vlink.Conn, buf []byte, done func(error)) {
	got := 0
	var pump func(n int, err error)
	pump = func(n int, err error) {
		got += n
		if err != nil {
			done(err)
			return
		}
		if got < len(buf) {
			c.PostRead(buf[got:], pump)
			return
		}
		done(nil)
	}
	c.PostRead(buf, pump)
}

// secConn is the record layer: AES-CTR with a per-record IV counter per
// direction, HMAC-SHA256 (truncated) per record. Records are strictly
// ordered per direction, so counters need no negotiation.
type secConn struct {
	d      *Driver
	inner  vlink.Conn
	encKey []byte
	macKey []byte
	block  cipher.Block // cached AES block (stateless, reused per record)
	wIV    uint64
	rIV    uint64
	// wHorizon serializes record hand-off to the inner driver on one
	// virtual encryption CPU: records carry strictly ordered counters,
	// so a small record's (cheaper) cost event must never overtake a
	// large one's when an upper wrapper pipelines writes.
	wHorizon vtime.Time

	// Reassembly: the 4-byte length sizes the pooled buffer the record's
	// ciphertext and MAC are then received into; a verified record is
	// decrypted in place and queues in rx, where reads consume it.
	hdr    [recHdrLen]byte
	got    int        // bytes so far of hdr, then of rec
	rec    *iovec.Buf // the record being received; nil between records
	rx     iovec.Queue
	rerr   error // io.EOF or ErrIntegrity once the inbound stream ended
	closed bool
	rbuf   []byte
	rcb    func(int, error)
}

func newSecConn(d *Driver, inner vlink.Conn, session []byte) (*secConn, error) {
	c := &secConn{d: d, inner: inner, encKey: session[:16], macKey: session[16:]}
	block, err := aes.NewCipher(c.encKey)
	if err != nil {
		return nil, err
	}
	c.block = block
	buf := make([]byte, 64<<10)
	var pump func(n int, err error)
	pump = func(n int, err error) {
		c.feed(buf[:n])
		if c.rerr != nil {
			return // integrity failure: feed closed the inner conn
		}
		if err != nil {
			c.endRead(io.EOF)
			return
		}
		inner.PostRead(buf, pump)
	}
	inner.PostRead(buf, pump)
	return c, nil
}

// Kernel lets VLink charge costs on the right kernel.
func (c *secConn) Kernel() *vtime.Kernel { return c.d.k }

// Peer implements vlink.Conn.
func (c *secConn) Peer() topology.NodeID { return c.inner.Peer() }

// ctrStream builds the AES-CTR keystream for one record (IV derived
// from the record counter).
func (c *secConn) ctrStream(ctr uint64) cipher.Stream {
	var iv [aes.BlockSize]byte
	iovec.NewWriter(iv[:8]).PutU64(ctr)
	return cipher.NewCTR(c.block, iv[:])
}

func (c *secConn) mac(ctr uint64, ct []byte) []byte {
	m := hmac.New(sha256.New, c.macKey)
	var ctrb [8]byte
	m.Write(iovec.NewWriter(ctrb[:0]).PutU64(ctr).Bytes())
	m.Write(ct)
	return m.Sum(nil)[:macLen]
}

// PostWritev implements vlink.Conn: record = [4B len][ciphertext][mac].
// Encryption transforms bytes, so this wrapper copies exactly once:
// AES-CTR runs segment by segment (the keystream is positional, so the
// ciphertext equals that of the flattened plaintext) straight into the
// pooled record buffer, which is released once the inner driver
// accepted it.
func (c *secConn) PostWritev(v iovec.Vec, cb func(int, error)) {
	ctr := c.wIV
	c.wIV++
	total := v.Len()
	rec := iovec.Get(recHdrLen + total + macLen)
	rb := rec.Bytes()
	iovec.NewWriter(rb[:0]).PutU32(uint32(total))
	stream := c.ctrStream(ctr)
	off := recHdrLen
	for _, s := range v.Segs {
		stream.XORKeyStream(rb[off:off+len(s.B)], s.B)
		off += len(s.B)
	}
	ct := rb[recHdrLen : recHdrLen+total]
	copy(rb[recHdrLen+total:], c.mac(ctr, ct))
	cost := model.EncryptPerByte.Cost(total)
	now := c.d.k.Now()
	if c.wHorizon < now {
		c.wHorizon = now
	}
	c.wHorizon = c.wHorizon.Add(cost)
	c.d.k.ScheduleAt(c.wHorizon, func() {
		c.inner.PostWritev(iovec.Make(rec.Bytes()), func(int, error) {
			rec.Release()
			cb(total, nil)
		})
	})
}

// feed consumes stream bytes: each is copied once, into the header or
// into the record buffer it is verified, decrypted and read from.
func (c *secConn) feed(data []byte) {
	for !c.orphaned() {
		if c.rec == nil {
			if !iovec.Fill(c.hdr[:], &c.got, &data) {
				break
			}
			c.rec, c.got = iovec.Get(int(iovec.NewReader(c.hdr[:]).U32())+macLen), 0
		}
		if !iovec.Fill(c.rec.Bytes(), &c.got, &data) {
			break
		}
		rb := c.rec.Bytes()
		ct, mac := rb[:len(rb)-macLen], rb[len(rb)-macLen:]
		ctr := c.rIV
		c.rIV++
		if !hmac.Equal(mac, c.mac(ctr, ct)) {
			c.inner.Close()
			c.endRead(ErrIntegrity)
			return
		}
		c.ctrStream(ctr).XORKeyStream(ct, ct)
		c.rx.Push(c.rec, ct)
		c.rec, c.got = nil, 0
	}
	c.tryComplete()
}

// endRead ends the inbound stream: a half-received record is dropped,
// and reads complete with err once what is queued has been consumed.
func (c *secConn) endRead(err error) {
	c.rerr = err
	c.dropPartial()
	c.tryComplete()
}

func (c *secConn) dropPartial() {
	if c.rec != nil {
		c.rec.Release()
		c.rec = nil
	}
}

// orphaned reports that nobody is left to read: the conn was closed and
// the read posted before that, if any, has completed. (The wrappers
// that pump a conn re-post from inside the completion; VLink posts
// nothing after Close.) The inner conn is still read to its EOF, but
// what arrives is dropped.
func (c *secConn) orphaned() bool { return c.closed && c.rcb == nil }

func (c *secConn) tryComplete() {
	if c.rcb != nil && (c.rx.Len() > 0 || c.rerr != nil) {
		n := c.rx.Read(c.rbuf)
		cb := c.rcb
		c.rcb, c.rbuf = nil, nil
		var err error
		if n == 0 {
			err = c.rerr
		}
		cb(n, err)
	}
	if c.orphaned() {
		c.dropPartial()
		c.rx.Release()
	}
}

// PostRead implements vlink.Conn.
func (c *secConn) PostRead(buf []byte, cb func(int, error)) {
	if c.rcb != nil {
		panic("gsec: overlapping PostRead")
	}
	c.rbuf, c.rcb = buf, cb
	c.tryComplete()
}

// Close implements vlink.Conn. A read still posted completes as if the
// conn were open (with the next bytes, or the error that ends the
// stream); everything else received goes back to the pool.
func (c *secConn) Close() {
	c.closed = true
	c.tryComplete()
	c.inner.Close()
}
