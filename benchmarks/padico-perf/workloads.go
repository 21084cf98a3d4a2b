package main

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
)

// workload is one set of inputs the benchmark runs. run drives one
// iteration: prep (timed as set-up), the timed section, verification.
// Payload bytes are generated from the seed inside every prep, into
// buffers that are allocated once, so that set-up is a steady CPU-bound
// quantity and leaves no garbage; digests of the payloads are taken in
// the first prep only. The program under test only ever sees the
// generated inputs.
type workload struct {
	name string
	why  string
	run  func(it *iter)
	// ladder measures the layer ladder this workload owns; the traced
	// run reports its values beside the workload's own counters.
	ladder func(cfg *runConfig, out map[string]float64) error
}

const mib = 1 << 20

// fillSeeded overwrites p with pseudo-random bytes determined by seed:
// the AES-CTR keystream under a key derived from it. The standard
// library does this in assembly, so what prep costs does not move with
// where a compiler happens to place a byte loop; math/rand's Read, a Go
// loop over single bytes, ran a third faster or slower from one build
// of this program to the next, and set-up time with it.
func fillSeeded(seed int64, p []byte) {
	key := sha256.Sum256(binary.LittleEndian.AppendUint64([]byte("padico-perf:"), uint64(seed)))
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		panic(err) // 16 bytes is a valid AES key size
	}
	clear(p)
	cipher.NewCTR(block, key[16:]).XORKeyStream(p, p)
}

// workloads is the suite, in the order BENCHMARK.json lists it.
func workloads() []*workload {
	return []*workload{
		sanWorkload("san-pingpong",
			"64 B round trips through four front doors on Myrinet: per-message cost (events, proc switches) is everything, bytes are nothing",
			64, 65536, 6000, msgLadder),
		sanWorkload("san-bulk",
			"1 MiB messages through the same four doors: per-byte cost (copies, allocations) is everything, the event loop does little",
			mib, 4, 64, bulkLadder),
		wanStreamWorkload(),
		gridReplicateWorkload(),
		storeChurnWorkload(),
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// san-pingpong and san-bulk.

const replyLen = 8

// sanInputs are the distinct requests a SAN workload cycles through and
// the reply the peer owes for each (the head of the request's SHA-256,
// computed in the first prep). Both live in flat buffers so that prep
// regenerates the requests with one Read.
type sanInputs struct {
	size, n          int
	payload, replies []byte
}

func genSAN(seed int64, size, distinct int) *sanInputs {
	in := &sanInputs{size: size, n: distinct,
		payload: make([]byte, size*distinct), replies: make([]byte, replyLen*distinct)}
	in.fill(seed)
	for k := 0; k < distinct; k++ {
		sum := sha256.Sum256(in.req(k))
		copy(in.reply(k), sum[:])
	}
	return in
}

// fill generates the request bytes from the seed.
func (in *sanInputs) fill(seed int64) { fillSeeded(seed, in.payload) }

func (in *sanInputs) req(k int) []byte { return in.payload[k*in.size : (k+1)*in.size : (k+1)*in.size] }
func (in *sanInputs) reply(k int) []byte {
	return in.replies[k*replyLen : (k+1)*replyLen : (k+1)*replyLen]
}

// echo is the peer of one door: it checks every request against the
// one the sequence prescribes and answers with that request's reply.
type echo struct {
	in  *sanInputs
	i   int
	bad bool
}

func (e *echo) serve(req []byte) []byte {
	k := e.i % e.in.n
	e.i++
	if !bytes.Equal(req, e.in.req(k)) {
		e.bad = true
	}
	return e.in.reply(k)
}

// exchange makes the i-th call of a door's sequence and reports
// whether both directions carried the right bytes.
func (e *echo) exchange(p *Proc, d *door, i int) bool {
	k := i % e.in.n
	reply, err := d.call(p, e.in.req(k))
	ok := err == nil && bytes.Equal(reply, e.in.reply(k)) && !e.bad
	e.bad = false
	return ok
}

// sanDoors are the four front doors of the SAN workloads and the route
// each must report on grid.Cluster(2).
var sanDoors = []struct{ layer, route string }{
	{"session", "san/madio"},
	{"vlink", "madio"},
	{"mpi", "vmad/madio"},
	{"orb", "omniORB-4.0.0/madio"},
}

func ladderSpec(layer string) doorSpec {
	for _, s := range sanLadder {
		if s.layer == layer {
			return s
		}
	}
	panic("no rung " + layer)
}

// sanWorkload sends perDoor requests of msgSize bytes through each of
// the four doors in sequence, closed loop, one client.
func sanWorkload(name, why string, msgSize, distinct, perDoor int,
	ladder func(*runConfig, map[string]float64) error) *workload {
	var in *sanInputs
	return &workload{name: name, why: why, ladder: ladder, run: func(it *iter) {
		if in == nil {
			in = genSAN(it.cfg.seed, msgSize, distinct)
		} else {
			in.fill(it.cfg.seed)
		}
		count := it.cfg.scaled(perDoor)
		tb := it.built(newCluster(2))
		it.finish(tb.run(func(p *Proc) {
			type opened struct {
				d *door
				e *echo
			}
			var doors []opened
			for _, want := range sanDoors {
				e := &echo{in: in}
				d, err := ladderSpec(want.layer).open(p, tb, msgSize, replyLen, e.serve)
				if err != nil {
					it.fatal = fmt.Errorf("%s: open %s door: %w", name, want.layer, err)
					return
				}
				if !it.assertRoute(want.layer+" door", d.route, want.route) {
					return
				}
				// One untimed call: lazy connection set-up is not per-message cost.
				if !e.exchange(p, d, 0) {
					it.fatal = fmt.Errorf("%s: warm-up call through the %s door failed", name, want.layer)
					return
				}
				doors = append(doors, opened{d, e})
			}
			it.payloadBytes = int64(len(doors)) * int64(count) * int64(msgSize+replyLen)
			it.startTimed(len(doors) * count)
			for _, o := range doors {
				it.phase(o.d.layer, "roundtrips", func() {
					for i := 1; i <= count; i++ {
						it.tr.op(o.d.layer, "call")
						ok := o.e.exchange(p, o.d, i)
						it.tr.endOp()
						it.check(ok)
					}
				})
			}
			it.endTimed()
			for _, o := range doors {
				o.d.close()
			}
		}))
	}}
}

// ---------------------------------------------------------------------
// wan-stream.

const (
	streamWrite = 256 << 10 // one Write, one op
	wanLoss     = 0.0005
)

// halfCompressible is n seeded bytes of which every other 4 KiB page is
// zero, so AdOC has real work and a real gain.
func halfCompressible(seed int64, n int) []byte {
	b := make([]byte, n)
	fillHalfCompressible(seed, b)
	return b
}

func fillHalfCompressible(seed int64, b []byte) {
	fillSeeded(seed, b)
	for off := 0; off < len(b); off += 8192 {
		clear(b[off:min(off+4096, len(b))])
	}
}

// streamCheck is the digesting sink: the stream is block repeated, and
// every byte that arrives is compared with the byte that was sent.
type streamCheck struct {
	block []byte
	off   int
	bad   map[int]bool // writes that arrived damaged, by index
}

func (c *streamCheck) sink(b []byte) {
	for len(b) > 0 {
		pos := c.off % len(c.block)
		n := min(len(b), len(c.block)-pos)
		if !bytes.Equal(b[:n], c.block[pos:pos+n]) {
			c.bad[c.off/streamWrite] = true
			c.bad[(c.off+n-1)/streamWrite] = true
		}
		c.off += n
		b = b[n:]
	}
}

// wanVariants are the three channels of wan-stream and the route the
// selector must give each on the VTHD-like WAN.
var wanVariants = []struct {
	name  string
	opt   sessionOpt
	route string
}{
	{"plain-tcp", qosPlainSingle, "wan/sysio x1"},
	{"default-qos", qosDefault, "wan/pstreams x4 +gsec"},
	{"adoc-gsec", qosAdocGsec, "wan/sysio x1 +adoc +gsec"},
}

func wanStreamWorkload() *workload {
	const name = "wan-stream"
	block := make([]byte, 4*mib)
	return &workload{name: name,
		why:    "three session channels stream across the lossy WAN: per-segment work in ipstack, netsim and the vlink wrappers; datagrid, group, store and the SAN stack do nothing",
		ladder: wanLadderRun,
		run: func(it *iter) {
			fillHalfCompressible(it.cfg.seed, block)
			writes := it.cfg.scaled(32) // x 256 KiB per channel
			total := writes * streamWrite
			tb := it.built(newTwoSites(1, 1, wanLoss))
			it.finish(tb.run(func(p *Proc) {
				var streams []*stream
				var checks []*streamCheck
				for _, v := range wanVariants {
					c := &streamCheck{block: block, bad: map[int]bool{}}
					s, err := openSessionStream(v.opt)(p, tb, total, c.sink)
					if err != nil {
						it.fatal = fmt.Errorf("%s: open %s channel: %w", name, v.name, err)
						return
					}
					if !it.assertRoute(v.name+" channel", s.route, v.route) {
						return
					}
					streams, checks = append(streams, s), append(checks, c)
				}
				it.payloadBytes = int64(len(streams)) * int64(total)
				it.startTimed(len(streams) * writes)
				for vi, s := range streams {
					wrote := make([]bool, writes)
					arrived := false
					it.phase("session", wanVariants[vi].name, func() {
						for i := range wrote {
							pos := i * streamWrite % len(block)
							it.tr.op("session", "write")
							wrote[i] = s.write(p, block[pos:pos+streamWrite]) == nil
							it.tr.endOp()
						}
						it.tr.op("session", "drain")
						arrived = s.wait(p) == nil
						it.tr.endOp()
					})
					for i, ok := range wrote {
						it.check(ok && arrived && !checks[vi].bad[i])
					}
				}
				it.endTimed()
				it.assertPositive("netsim drops on the lossy WAN core", it.counters["netsim.drops"])
				for _, s := range streams {
					s.close()
				}
			}))
		}}
}

// ---------------------------------------------------------------------
// grid-replicate.

type gridInputs struct {
	payload []byte // the objects, back to back
	objects [][]byte
	sums    [][32]byte
}

func gridReplicateWorkload() *workload {
	const (
		name      = "grid-replicate"
		nObjects  = 6
		siteNodes = 3
		gridLoss  = 0.0002
	)
	var in *gridInputs
	return &workload{name: name,
		why:    "the headline scenario: replica-3 Puts, settle, cross-site Gets and VerifyReplicas over two clusters and a lossy WAN, on the pack store: datagrid, group, session and store together",
		ladder: groupLadderRun,
		run: func(it *iter) {
			objectSize := it.cfg.scaled(2*mib/4096) * 4096
			first := in == nil
			if first {
				in = &gridInputs{payload: make([]byte, nObjects*objectSize)}
				for i := 0; i < nObjects; i++ {
					in.objects = append(in.objects, in.payload[i*objectSize:(i+1)*objectSize:(i+1)*objectSize])
				}
			}
			fillSeeded(it.cfg.seed, in.payload)
			if first {
				for _, obj := range in.objects {
					in.sums = append(in.sums, sha256.Sum256(obj))
				}
			}
			dir, err := it.tempDir()
			if err != nil {
				it.fatal = err
				return
			}
			tb := it.built(newTwoSites(siteNodes, siteNodes, gridLoss))
			if it.hubOn {
				tb.enableTelemetry()
			}
			dg := tb.newPackDataGrid(dir, 3, 4, true)
			objName := func(i int) string { return fmt.Sprintf("obj-%d", i) }
			writer := func(i int) int { return i % (2 * siteNodes) }
			it.finish(tb.run(func(p *Proc) {
				it.startTimed(3 * nObjects)
				phase := func(name string, body func()) {
					it.observe("datagrid."+name+"_wall_s", it.phase("datagrid", name, body)/1e9)
				}
				phase("put", func() {
					for i, obj := range in.objects {
						it.tr.op("datagrid", "Put")
						err := dg.put(p, writer(i), objName(i), obj)
						it.tr.endOp()
						it.check(err == nil)
					}
				})
				phase("settle", func() { dg.waitSettled(p) })
				phase("get", func() {
					for i, obj := range in.objects {
						reader := (writer(i) + siteNodes) % (2 * siteNodes)
						it.tr.op("datagrid", "Get")
						got, err := dg.get(p, reader, objName(i))
						it.tr.endOp()
						it.check(err == nil && bytes.Equal(got, obj))
					}
				})
				phase("verify", func() {
					for i := range in.objects {
						it.tr.op("datagrid", "VerifyReplicas")
						err := dg.verify(objName(i))
						it.tr.endOp()
						it.check(err == nil)
					}
				})
				it.endTimed()
				// Allocation volume is charged against every byte the grid
				// moved (replication and reads), not only the bytes Put.
				it.payloadBytes = it.counters["datagrid.bytes_moved"]
				if tb.sameSite(writer(0), (writer(0)+siteNodes)%(2*siteNodes)) {
					it.fatal = &routeError{name, "reader of object 0", "same site as its writer", "the other site"}
				}
				it.assertPositive("datagrid group fan-outs", it.counters["datagrid.group_fanouts"])
				it.assertPositive("datagrid WAN bytes", it.counters["datagrid.wan_bytes"])
				it.assertPositive("netsim drops on the lossy WAN core", it.counters["netsim.drops"])
				if errs := dg.jobErrors(); len(errs) > 0 {
					it.failed += len(errs)
				}
				if it.hubOn {
					it.hubSpans = tb.hubSpans()
				}
			}))
			// Untimed: the SHA-256 of what every holder stores was checked by
			// VerifyReplicas; here the payload the harness generated is
			// checked against the digest taken in prep.
			for i, obj := range in.objects {
				if sha256.Sum256(obj) != in.sums[i] {
					it.failed++
				}
			}
			if err := dg.close(); err != nil && it.fatal == nil {
				it.fatal = fmt.Errorf("%s: close datagrid: %w", name, err)
			}
		}}
}

// ---------------------------------------------------------------------
// store-churn.

type storeKey struct {
	name            string
	data, rewrite   []byte // rewrite is nil unless the key is overwritten
	sum, rewriteSum [32]byte
	del             bool
}

// live is the payload a reader must get after the churn, nil if deleted.
func (k *storeKey) live() []byte {
	switch {
	case k.del:
		return nil
	case k.rewrite != nil:
		return k.rewrite
	}
	return k.data
}

type storeInputs struct {
	pool                       []byte     // every payload is a slice of it
	keys                       []storeKey // in Put order
	putBytes, rewriteBytes     int64
	liveBytes                  int64
	nRewrite, nDelete, nLiving int
}

// genStore lays nKeys sizes on a fixed log-uniform grid from 4 KiB to
// 1 MiB, so that every seed moves the same number of bytes, and lets
// the seed pick the contents, the Put order and, within each run of ten
// neighbouring sizes, the three keys overwritten and the two deleted.
func genStore(seed int64, nKeys int) *storeInputs {
	in := &storeInputs{pool: make([]byte, 8*mib), keys: make([]storeKey, nKeys)}
	in.fill(seed)
	rng := rand.New(rand.NewSource(seed)) // the plan: offsets, roles, order
	slice := func(n int) ([]byte, [32]byte) {
		off := rng.Intn(len(in.pool) - n)
		b := in.pool[off : off+n : off+n]
		return b, sha256.Sum256(b)
	}
	for base := 0; base < nKeys; base += 10 {
		roles := rng.Perm(10)
		for j := base; j < min(base+10, nKeys); j++ {
			size := int(4096 * math.Pow(256, (float64(j)+0.5)/float64(nKeys)))
			k := &in.keys[j]
			k.name = fmt.Sprintf("key-%04d", j)
			k.data, k.sum = slice(size)
			in.putBytes += int64(size)
			switch role := roles[j-base]; {
			case role < 3:
				k.rewrite, k.rewriteSum = slice(size)
				in.rewriteBytes += int64(size)
				in.nRewrite++
			case role < 5:
				k.del = true
				in.nDelete++
			}
			if !k.del {
				in.liveBytes += int64(size)
				in.nLiving++
			}
		}
	}
	rng.Shuffle(nKeys, func(a, b int) { in.keys[a], in.keys[b] = in.keys[b], in.keys[a] })
	return in
}

// fill generates the payload bytes from the seed.
func (in *storeInputs) fill(seed int64) { fillSeeded(seed, in.pool) }

func storeChurnWorkload() *workload {
	const (
		name      = "store-churn"
		bundleMax = 8 * mib
	)
	var in *storeInputs
	return &workload{name: name,
		why: "no network: Put, overwrite, Delete, reopen scan, cold Read, Verify and warm Read on one pack engine; the store does all the work and is used differently from grid-replicate",
		run: func(it *iter) {
			if in == nil {
				in = genStore(it.cfg.seed, it.cfg.scaled(600))
			} else {
				in.fill(it.cfg.seed)
			}
			dir, err := it.tempDir()
			if err != nil {
				it.fatal = err
				return
			}
			tb := it.built(newBareKernel())
			st, err := tb.openPack(filepath.Join(dir, "node-0"), bundleMax)
			if err != nil {
				it.fatal = fmt.Errorf("%s: open pack: %w", name, err)
				return
			}
			it.payloadBytes = in.putBytes + in.rewriteBytes + 3*in.liveBytes
			nOps := len(in.keys) + in.nRewrite + in.nDelete + 1 + 3*in.nLiving
			it.finish(tb.run(func(p *Proc) {
				it.startTimed(nOps)
				// phase runs body as one span and reports its cost per unit.
				phase := func(span, metric string, units float64, body func()) {
					it.observe(metric, it.phase("store", span, body)/units)
				}
				putNs := it.phase("store", "put", func() {
					for i := range in.keys {
						k := &in.keys[i]
						it.tr.op("store", "Put")
						err := st.put(p, k.name, k.data, k.sum)
						it.tr.endOp()
						it.check(err == nil)
					}
				})
				rewriteNs := it.phase("store", "overwrite", func() {
					for i := range in.keys {
						if k := &in.keys[i]; k.rewrite != nil {
							it.tr.op("store", "Put")
							err := st.put(p, k.name, k.rewrite, k.rewriteSum)
							it.tr.endOp()
							it.check(err == nil)
						}
					}
				})
				// Put cost covers fresh keys and overwrites alike.
				it.observe("store.put_ns_per_mb", (putNs+rewriteNs)/(float64(in.putBytes+in.rewriteBytes)/mib))
				phase("delete", "store.delete_ns_per_op", float64(in.nDelete), func() {
					for i := range in.keys {
						if k := &in.keys[i]; k.del {
							it.tr.op("store", "Delete")
							existed := st.del(p, k.name)
							it.tr.endOp()
							it.check(existed)
						}
					}
				})
				reopened := false
				phase("reopen", "store.reopen_ns_per_needle", float64(len(in.keys)+in.nRewrite+in.nDelete), func() {
					reopened = st.close() == nil && st.open() == nil
					it.check(reopened && st.live() == in.nLiving)
				})
				if !reopened {
					return
				}
				readAll := func(span, metric string) {
					phase(span, metric, float64(in.liveBytes)/mib, func() {
						for i := range in.keys {
							if want := in.keys[i].live(); want != nil {
								it.tr.op("store", "Read")
								got, ok := st.read(p, in.keys[i].name)
								it.tr.endOp()
								it.check(ok && bytes.Equal(got, want))
							}
						}
					})
				}
				readAll("cold_read", "store.cold_read_ns_per_mb")
				phase("verify", "store.verify_ns_per_mb", float64(in.liveBytes)/mib, func() {
					for i := range in.keys {
						if in.keys[i].live() != nil {
							it.tr.op("store", "Verify")
							err := st.verify(p, in.keys[i].name)
							it.tr.endOp()
							it.check(err == nil)
						}
					}
				})
				readAll("warm_read", "store.warm_read_ns_per_mb")
				it.endTimed()
				it.assertPositive("store cold loads after reopen", it.counters["store.cold_loads"])
			}))
			if err := st.close(); err != nil && it.fatal == nil {
				it.fatal = fmt.Errorf("%s: close pack: %w", name, err)
			}
		}}
}
