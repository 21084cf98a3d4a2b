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

	"padico/internal/iovec"
	"padico/internal/model"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// ErrAuth is returned when the peer fails the handshake.
var ErrAuth = errors.New("gsec: authentication failed")

// ErrIntegrity fails a connection that received a record whose MAC does
// not verify, or whose header claims more than a record carries:
// nothing from that record on is delivered, and once the records before
// it are read every later read completes with it.
var ErrIntegrity = errors.New("gsec: record integrity failure")

const (
	nonceLen  = 16
	macLen    = 16 // truncated HMAC-SHA256
	recHdrLen = 4
)

// maxRecord is the most plaintext one record carries: a whole record
// fits the largest pooled buffer. A longer write goes out as several
// records, and a header claiming more ends the stream with ErrIntegrity.
const maxRecord = 1<<20 - recHdrLen - macLen

// Credential is a pre-shared-key "certificate" (the paper leaves full
// GSI certificate chains and delegation as future work).
type Credential struct {
	ID  string
	Key []byte
}

// Driver decorates an inner VLink driver with authentication and
// encryption.
type Driver struct {
	vlink.Wrapper
	k    *vtime.Kernel
	cred Credential
	seq  uint64

	Handshakes int64
	AuthFails  int64
}

// New builds a gsec driver over inner with the given credential. Both
// ends must hold the same key.
func New(k *vtime.Kernel, inner vlink.Driver, cred Credential) *Driver {
	d := &Driver{k: k, cred: cred}
	d.Wrapper = vlink.Wrapper{Inner: inner, Wrap: d.handshake}
	return d
}

// Name implements vlink.Driver.
func (d *Driver) Name() string { return "gsec" }

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
	vlink.PostReadFull(c, hdr, func(err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		idLen := int(iovec.NewReader(hdr).U16())
		rest := make([]byte, idLen+nonceLen+macLen)
		vlink.PostReadFull(c, rest, func(err error) {
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

// secConn is the record layer: AES-CTR with a per-record IV counter per
// direction, HMAC-SHA256 (truncated) per record. Records are strictly
// ordered per direction, so counters need no negotiation. Receiving,
// the 4-byte length sizes the pooled buffer the record's ciphertext and
// MAC are received into; a verified record is decrypted in place and
// queues in the inbox.
type secConn struct {
	vlink.Inbox
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
}

func newSecConn(d *Driver, inner vlink.Conn, session []byte) (*secConn, error) {
	c := &secConn{d: d, inner: inner, encKey: session[:16], macKey: session[16:]}
	block, err := aes.NewCipher(c.encKey)
	if err != nil {
		return nil, err
	}
	c.block = block
	c.ReadFrames(inner, 64<<10, recHdrLen, recordLen, c.open)
	return c, nil
}

// recordLen is a record's ciphertext and MAC length.
func recordLen(hdr []byte) (int, error) {
	n := iovec.NewReader(hdr).U32()
	if n > maxRecord {
		return 0, ErrIntegrity
	}
	return int(n) + macLen, nil
}

// open verifies a received record, decrypts it in place and queues the
// plaintext. A record whose MAC does not verify ends the stream.
func (c *secConn) open(_ []byte, rec *iovec.Buf) error {
	rb := rec.Bytes()
	ct, mac := rb[:len(rb)-macLen], rb[len(rb)-macLen:]
	ctr := c.rIV
	c.rIV++
	if !hmac.Equal(mac, c.mac(ctr, ct)) {
		rec.Release()
		return ErrIntegrity
	}
	c.ctrStream(ctr).XORKeyStream(ct, ct)
	c.Push(rec, ct)
	return nil
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
// accepted it. A write longer than maxRecord goes out as several
// records.
func (c *secConn) PostWritev(v iovec.Vec, cb func(int, error)) {
	total := v.Len()
	if total <= maxRecord {
		c.seal(v, total, cb)
		return
	}
	left := (total + maxRecord - 1) / maxRecord
	for off := 0; off < total; off += maxRecord {
		part := v.Slice(off, min(maxRecord, total-off))
		c.seal(part, part.Len(), func(int, error) {
			if left--; left == 0 {
				cb(total, nil)
			}
		})
		part.Release() // seal copied it
	}
}

// seal encrypts v, n bytes, into one record and hands it to the inner
// driver after the encryption cost; cb(n, nil) runs once it accepted it.
func (c *secConn) seal(v iovec.Vec, n int, cb func(int, error)) {
	ctr := c.wIV
	c.wIV++
	rec := iovec.Get(recHdrLen + n + macLen)
	rb := rec.Bytes()
	iovec.NewWriter(rb[:0]).PutU32(uint32(n))
	stream := c.ctrStream(ctr)
	off := recHdrLen
	for _, s := range v.Segs {
		stream.XORKeyStream(rb[off:off+len(s.B)], s.B)
		off += len(s.B)
	}
	ct := rb[recHdrLen : recHdrLen+n]
	copy(rb[recHdrLen+n:], c.mac(ctr, ct))
	cost := model.EncryptPerByte.Cost(n)
	now := c.d.k.Now()
	if c.wHorizon < now {
		c.wHorizon = now
	}
	c.wHorizon = c.wHorizon.Add(cost)
	c.d.k.ScheduleAt(c.wHorizon, func() {
		c.inner.PostWritev(iovec.Make(rec.Bytes()), func(int, error) {
			rec.Release()
			cb(n, nil)
		})
	})
}

// Close implements vlink.Conn. A read still posted completes as if the
// conn were open (with the next bytes, or the error that ends the
// stream); everything else received goes back to the pool.
func (c *secConn) Close() {
	c.CloseRead()
	c.inner.Close()
}
