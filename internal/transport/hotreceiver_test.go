package transport_test

import (
	"testing"

	"xmp/internal/cc"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

// TestIsolateHotReceiver is the SACK burst-storm regression: 16 senders
// converge on one 1 Gbps receiver downlink behind shallow (100-packet)
// queues. Before the maxBurst cap, SACK-block ingestion let senders blast
// whole windows into their NICs, multiplying drops ~100x.
func TestIsolateHotReceiver(t *testing.T) {
	results := map[bool]struct {
		goodput float64
		drops   int64
	}{}
	for _, sack := range []bool{false, true} {
		eng := sim.NewEngine()
		n := topo.NewNetwork(eng)
		left := n.NewSwitch("left", topo.LayerEdge)
		right := n.NewSwitch("right", topo.LayerEdge)
		fwd := n.AddLink("l->r", 10*netem.Gbps, 31*sim.Microsecond, netem.NewDropTail(1000), right, topo.LayerEdge)
		rev := n.AddLink("r->l", 10*netem.Gbps, 31*sim.Microsecond, netem.NewDropTail(1000), left, topo.LayerEdge)
		recv := n.NewHost("sink")
		n.AttachHost(recv, right, netem.Gbps, 31*sim.Microsecond, topo.DropTailMaker(100), topo.LayerRack)
		topo.RouteHostAddrs(left, recv, fwd)
		cfg := transport.DefaultConfig()
		cfg.EnableSACK = sack
		var conns []*transport.Conn
		for i := 0; i < 16; i++ {
			s := n.NewHost("src")
			n.AttachHost(s, left, netem.Gbps, 31*sim.Microsecond, topo.DropTailMaker(100), topo.LayerEdge)
			topo.RouteHostAddrs(right, s, rev)
			c := transport.NewConn(eng, transport.Options{
				ID: n.NextConnID(), Src: s, Dst: recv,
				Controller: cc.NewReno(2, false), Config: cfg,
				Supply: transport.InfiniteSupply{},
			})
			c.Start()
			conns = append(conns, c)
		}
		eng.Run(sim.Time(500 * sim.Millisecond))
		var sent, rtx, rto, fr, acked int64
		for _, c := range conns {
			st := c.Stats()
			sent += st.SentSegments
			rtx += st.RetransSegments
			rto += st.Timeouts
			fr += st.FastRetransmits
			acked += st.AckedBytes
		}
		var drops int64
		for _, li := range n.Links() {
			drops += li.Queue().Stats().DroppedPackets
		}
		_ = sent
		_ = rtx
		_ = rto
		_ = fr
		results[sack] = struct {
			goodput float64
			drops   int64
		}{float64(acked*8) / 0.5 / 1e6, drops}
	}
	for sack, r := range results {
		if r.goodput < 850 {
			t.Fatalf("sack=%v: hot-receiver goodput %.0f Mbps too low", sack, r.goodput)
		}
	}
	if results[true].drops > 10*results[false].drops+1000 {
		t.Fatalf("SACK burst storm is back: drops %d vs %d", results[true].drops, results[false].drops)
	}
}
