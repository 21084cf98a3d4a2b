package vrp

import (
	"testing"
	"time"

	"padico/internal/ipstack"
	"padico/internal/model"
	"padico/internal/netsim"
	"padico/internal/vtime"
)

// TestShortDatagramsAreDropped sends a VRP endpoint, from a raw UDP
// port, datagrams shorter than the 9-byte header and acks shorter than
// the 17 bytes an ack needs. Each is dropped; the well-formed data
// packet behind them is still delivered.
func TestShortDatagramsAreDropped(t *testing.T) {
	k := vtime.NewKernel()
	st := ipstack.New(k)
	mk := func(seed int64) *netsim.Path {
		return netsim.NewPath(k, "link", seed,
			&netsim.Hop{Name: "hop", Rate: model.LossyRate, Latency: model.LossyWireLat, QueueCap: 256})
	}
	st.ConnectPath(0, 1, mk(5), mk(6), 1500)
	raw, _ := st.Host(0).ListenUDP(7000)
	ub, _ := st.Host(1).ListenUDP(7001)
	c := New(k, ub, 0, 7000, 0.1, model.LossyRate)
	hostile := [][]byte{
		{},
		{byte(pktData)},
		c.packet(pktData, 0, nil)[:8],
		c.packet(pktAck, 0, nil),
		c.packet(pktAck, 0, make([]byte, 7)),
	}
	if err := k.Run(func(p *vtime.Proc) {
		for _, dg := range hostile {
			raw.SendTo(1, 7001, dg)
		}
		raw.SendTo(1, 7001, c.packet(pktData, 0, []byte("ok")))
		m, ok := c.RecvTimeout(p, time.Second)
		if !ok || m.Seq != 0 || string(m.Data) != "ok" {
			t.Errorf("after the short datagrams: got %+v, %v; want seq 0 %q", m, ok, "ok")
		}
	}); err != nil {
		t.Fatal(err)
	}
}
