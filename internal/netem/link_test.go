package netem

import (
	"testing"

	"xmp/internal/sim"
)

// sink records delivered packets with their arrival times.
type sink struct {
	eng  *sim.Engine
	pkts []*Packet
	at   []sim.Time
}

func (s *sink) Receive(p *Packet) {
	s.pkts = append(s.pkts, p)
	s.at = append(s.at, s.eng.Now())
}

func TestLinkSerializationPlusPropagation(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, "l", Gbps, 20*sim.Microsecond, NewDropTail(100), s)
	p := dataPkt(false) // 1500 bytes -> 12 us at 1 Gbps
	l.Send(p)
	eng.Run(sim.MaxTime)
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(s.pkts))
	}
	want := sim.Time(32 * sim.Microsecond) // 12 us tx + 20 us prop
	if s.at[0] != want {
		t.Fatalf("delivered at %v, want %v", s.at[0], want)
	}
}

func TestLinkBackToBackPacketsPipeline(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, "l", Gbps, 20*sim.Microsecond, NewDropTail(100), s)
	l.Send(dataPkt(false))
	l.Send(dataPkt(false))
	eng.Run(sim.MaxTime)
	if len(s.pkts) != 2 {
		t.Fatalf("delivered %d packets", len(s.pkts))
	}
	// Second packet serializes while the first propagates: arrivals 12 us
	// apart (the serialization time), not 32 us.
	if gap := s.at[1].Sub(s.at[0]); gap != 12*sim.Microsecond {
		t.Fatalf("inter-arrival %v, want 12us", gap)
	}
}

func TestLinkThroughputMatchesCapacity(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, "l", 300*Mbps, sim.Millisecond, NewDropTail(10000), s)
	const n = 1000
	for i := 0; i < n; i++ {
		l.Send(dataPkt(false))
	}
	eng.Run(sim.MaxTime)
	if len(s.pkts) != n {
		t.Fatalf("delivered %d of %d", len(s.pkts), n)
	}
	// n packets serialized back to back: last arrival at n*txTime + delay.
	tx := l.TxTime(MaxPacketBytes)
	want := sim.Time(0).Add(sim.Duration(n) * tx).Add(sim.Millisecond)
	if s.at[n-1] != want {
		t.Fatalf("last arrival %v, want %v", s.at[n-1], want)
	}
	if l.TxBytes() != int64(n*MaxPacketBytes) {
		t.Fatalf("txBytes %d", l.TxBytes())
	}
}

func TestLinkDropsWhenQueueFull(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, "l", Mbps, 0, NewDropTail(5), s)
	for i := 0; i < 20; i++ {
		l.Send(dataPkt(false))
	}
	eng.Run(sim.MaxTime)
	// 1 in flight + 5 queued accepted; the rest dropped.
	if len(s.pkts) != 6 {
		t.Fatalf("delivered %d, want 6", len(s.pkts))
	}
	if drops := l.Queue().Stats().DroppedPackets; drops != 14 {
		t.Fatalf("drops %d, want 14", drops)
	}
}

func TestLinkSetDown(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, "l", Gbps, 10*sim.Microsecond, NewDropTail(100), s)
	eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			l.Send(dataPkt(false))
		}
	})
	eng.Schedule(30*sim.Microsecond, func() { l.SetDown(true) })
	eng.Run(sim.MaxTime)
	if len(s.pkts) >= 10 {
		t.Fatal("link down did not stop deliveries")
	}
	if !l.Down() {
		t.Fatal("link not reported down")
	}
	// Sends while down are discarded.
	before := len(s.pkts)
	l.Send(dataPkt(false))
	eng.Run(sim.MaxTime)
	if len(s.pkts) != before {
		t.Fatal("packet delivered over a down link")
	}
}

func TestLinkSetDownDropsQueueAndInFlight(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	// 12 us serialization per packet, 50 us propagation: at t=30us packet 2
	// is still serializing and packet 0 is propagating.
	l := NewLink(eng, "l", Gbps, 50*sim.Microsecond, NewDropTail(100), s)
	eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			l.Send(dataPkt(false))
		}
	})
	eng.Schedule(30*sim.Microsecond, func() {
		if l.Queue().Len() == 0 {
			t.Fatal("queue already empty; down would not exercise the drain")
		}
		l.SetDown(true)
		// The queue is drained synchronously: nothing left to transmit.
		if got := l.Queue().Len(); got != 0 {
			t.Fatalf("queue holds %d packets after SetDown", got)
		}
	})
	eng.Run(sim.MaxTime)
	// Packets 0 and 1 finished serializing before t=30us and propagate to
	// delivery; packet 2 was mid-serialization and is released into the
	// dead link; 3..9 were drained from the queue. Nothing is re-queued.
	if len(s.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2 (pre-down serializations only)", len(s.pkts))
	}
}

func TestLinkSetDownUpCycle(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, "l", Gbps, 10*sim.Microsecond, NewDropTail(100), s)
	eng.Schedule(0, func() { l.SetDown(true) })
	eng.Schedule(sim.Microsecond, func() { l.Send(dataPkt(false)) }) // dropped: down
	eng.Schedule(2*sim.Microsecond, func() { l.SetDown(false) })
	eng.Schedule(3*sim.Microsecond, func() { l.Send(dataPkt(false)) })
	eng.Run(sim.MaxTime)
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1 (only the post-up send)", len(s.pkts))
	}
	// 3us send + 12us serialization + 10us propagation.
	if want := sim.Time(25 * sim.Microsecond); s.at[0] != want {
		t.Fatalf("delivered at %v, want %v", s.at[0], want)
	}
	if l.Down() {
		t.Fatal("link still reported down after SetDown(false)")
	}
}

func TestLinkExtraDelayAppliesToNewDeliveries(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, "l", Gbps, 20*sim.Microsecond, NewDropTail(100), s)
	eng.Schedule(0, func() { l.Send(dataPkt(false)) })
	// Armed while the first packet propagates: it keeps its original delay.
	eng.Schedule(15*sim.Microsecond, func() { l.SetExtraDelay(100 * sim.Microsecond) })
	eng.Schedule(40*sim.Microsecond, func() { l.Send(dataPkt(false)) })
	// Disarmed: the third packet is back to the base delay.
	eng.Schedule(200*sim.Microsecond, func() { l.SetExtraDelay(0) })
	eng.Schedule(210*sim.Microsecond, func() { l.Send(dataPkt(false)) })
	eng.Run(sim.MaxTime)
	if len(s.pkts) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(s.pkts))
	}
	want := []sim.Time{
		sim.Time(32 * sim.Microsecond),  // 12 tx + 20 prop, extra not yet armed at tx-done
		sim.Time(172 * sim.Microsecond), // 40 + 12 tx + 20 prop + 100 extra
		sim.Time(242 * sim.Microsecond), // 210 + 12 tx + 20 prop
	}
	for i, w := range want {
		if s.at[i] != w {
			t.Fatalf("packet %d delivered at %v, want %v", i, s.at[i], w)
		}
	}
	if l.ExtraDelay() != 0 {
		t.Fatalf("extra delay %v after disarm", l.ExtraDelay())
	}
}

func TestLinkExtraDelayValidation(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, "l", Gbps, 0, NewDropTail(1), &sink{eng: eng})
	defer func() {
		if recover() == nil {
			t.Fatal("negative extra delay did not panic")
		}
	}()
	l.SetExtraDelay(-sim.Microsecond)
}

func TestSwitchEgressLinks(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	sw := NewSwitch(1, "sw", "rack")
	a := NewLink(eng, "a", Gbps, 0, NewDropTail(1), s)
	b := NewLink(eng, "b", Gbps, 0, NewDropTail(1), s)
	sw.AddRoute(2, b)
	sw.AddRoute(1, a)
	sw.AddRoute(3, a) // same link twice: must dedupe
	// Ordered by the lowest address routed to each link, not by install.
	links := sw.EgressLinks()
	if len(links) != 2 || links[0] != a || links[1] != b {
		t.Fatalf("EgressLinks = %v, want [a b]", links)
	}
	if sw.Route(1) != a || sw.Route(2) != b || sw.Route(3) != a || sw.Route(0) != nil || sw.Route(4) != nil {
		t.Fatal("routes do not map back to their links")
	}
}

// TestSwitchPortLimit: a table entry is a 16-bit port index, so a switch
// takes 65,535 distinct egress links and panics on the next one; a route
// to a link it already has still installs. The first 65,534 ports are set
// directly: installing them one by one scans quadratically.
func TestSwitchPortLimit(t *testing.T) {
	sw := NewSwitch(1, "sw", "rack")
	links := make([]Link, maxPorts+1)
	for i := range maxPorts - 1 {
		sw.ports = append(sw.ports, &links[i])
	}
	sw.AddRoute(1, &links[maxPorts-1])
	sw.AddRoute(2, &links[0])
	if sw.Route(1) != &links[maxPorts-1] || sw.Route(2) != &links[0] {
		t.Fatal("routes at the port limit do not map back to their links")
	}
	mustPanic(t, "65,536th egress link", "sw has 65535 egress links", func() {
		sw.AddRoute(3, &links[maxPorts])
	})
}

func TestLinkUtilization(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, "l", Gbps, 0, NewDropTail(1000), s)
	const n = 100
	for i := 0; i < n; i++ {
		l.Send(dataPkt(false))
	}
	eng.Run(sim.MaxTime)
	// Over exactly the busy period utilization is 1.
	busy := sim.Time(0).Add(sim.Duration(n) * l.TxTime(MaxPacketBytes))
	if u := l.Utilization(busy); u < 0.999 || u > 1.001 {
		t.Fatalf("utilization over busy period = %v, want 1", u)
	}
	// Over twice the busy period it is 0.5.
	if u := l.Utilization(busy * 2); u < 0.499 || u > 0.501 {
		t.Fatalf("utilization over 2x busy period = %v, want 0.5", u)
	}
}

func TestLinkTxTime(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, "l", Gbps, 0, NewDropTail(1), &sink{eng: eng})
	if got := l.TxTime(1500); got != 12*sim.Microsecond {
		t.Fatalf("TxTime(1500) at 1Gbps = %v, want 12us", got)
	}
}

func TestBpsString(t *testing.T) {
	cases := map[Bps]string{
		Gbps:       "1Gbps",
		300 * Mbps: "300Mbps",
		1500:       "1500bps",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

// TestSwitchForwardsByTable: a switch's table decides the path resolved
// through it, and a packet stamped with that path arrives where the table
// points.
func TestSwitchForwardsByTable(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(1, "sw", "rack")
	src := NewHost(eng, 2, "src")
	src.AddAddr(1)
	src.AttachNIC(NewLink(eng, "nic", Gbps, 0, NewDropTail(10), sw))
	for i, a := range []Addr{100, 200} {
		h := NewHost(eng, NodeID(3+i), "dst")
		h.AddAddr(a)
		sw.AddRoute(a, NewLink(eng, "out", Gbps, 0, NewDropTail(10), h))
		pa := src.PathTo(a)
		if pa == nil || pa.Len() != 2 || pa.Hop(1) != sw.Route(a) {
			t.Fatalf("path to %d does not leave the switch by its route", a)
		}
		ep := &countEndpoint{}
		p := NewDataPacket(1, 1, a, 0, MSS, false)
		p.Slot = h.Register(1, ep)
		p.SetPath(pa)
		src.Send(p)
		eng.Run(sim.MaxTime)
		if ep.delivered != 1 {
			t.Fatalf("packet for %d delivered %d times at its owner", a, ep.delivered)
		}
	}
}

func TestSwitchDuplicateRoutePanics(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(1, "sw", "rack")
	l := NewLink(eng, "l", Gbps, 0, NewDropTail(1), &sink{eng: eng})
	sw.AddRoute(5, l)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate route did not panic")
		}
	}()
	sw.AddRoute(5, l)
}

func TestSwitchDenseTableBounds(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(1, "sw", "rack")
	l := NewLink(eng, "l", Gbps, 0, NewDropTail(10), &sink{eng: eng})
	// Install out of order: the table must grow to cover the highest addr
	// and leave the gaps unroutable.
	sw.AddRoute(9, l)
	sw.AddRoute(3, l)
	if sw.Route(9) != l || sw.Route(3) != l {
		t.Fatal("installed routes not found")
	}
	for _, dst := range []Addr{0, 4, 10, 1 << 20, -1} {
		if sw.Route(dst) != nil {
			t.Fatalf("Route(%d) = non-nil, want nil", dst)
		}
	}
}

// TestRoutingLoopHasNoPath: resolution through a routing loop stops after
// initialTTL nodes and finds no path.
func TestRoutingLoopHasNoPath(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSwitch(1, "a", "core")
	b := NewSwitch(2, "b", "core")
	a.AddRoute(7, NewLink(eng, "a->b", Gbps, 0, NewDropTail(10), b))
	b.AddRoute(7, NewLink(eng, "b->a", Gbps, 0, NewDropTail(10), a))
	h := NewHost(eng, 3, "h")
	h.AttachNIC(NewLink(eng, "nic", Gbps, 0, NewDropTail(10), a))
	if pa := h.PathTo(7); pa != nil {
		t.Fatalf("PathTo through a loop = %d hops, want nil", pa.Len())
	}
}

type recordingEndpoint struct{ got []*Packet }

func (r *recordingEndpoint) Deliver(p *Packet) { r.got = append(r.got, p) }

func TestHostDemux(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1, "h1")
	h.AddAddr(10)
	h.AddAddr(11)
	if h.PrimaryAddr() != 10 {
		t.Fatal("primary addr wrong")
	}
	ep1, ep2 := &recordingEndpoint{}, &recordingEndpoint{}
	slot1 := h.Register(1, ep1)
	slot2 := h.Register(2, ep2)
	ack := func(conn ConnID, dst Addr, slot int32) *Packet {
		p := NewAckPacket(conn, 99, dst, 0)
		p.Slot = slot
		return p
	}
	h.Receive(ack(1, 10, slot1))
	h.Receive(ack(2, 11, slot2))
	h.Receive(ack(3, 10, slot1)) // unknown conn
	if len(ep1.got) != 1 || len(ep2.got) != 1 {
		t.Fatalf("demux wrong: %d/%d", len(ep1.got), len(ep2.got))
	}
	if h.Misdelivered != 1 {
		t.Fatalf("misdelivered = %d", h.Misdelivered)
	}
	h.Unregister(1, slot1)
	h.Receive(ack(1, 10, slot1))
	if h.Misdelivered != 2 {
		t.Fatal("unregistered conn still receiving")
	}
}

func TestHostDuplicateRegisterPanics(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1, "h1")
	h.Register(1, &recordingEndpoint{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register did not panic")
		}
	}()
	h.Register(1, &recordingEndpoint{})
}

func TestHostSendUsesNIC(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	h := NewHost(eng, 1, "h1")
	h.AttachNIC(NewLink(eng, "nic", Gbps, 0, NewDropTail(10), s))
	h.Send(dataPkt(false))
	eng.Run(sim.MaxTime)
	if len(s.pkts) != 1 {
		t.Fatal("host did not transmit via NIC")
	}
	if h.NIC() == nil || h.Engine() != eng {
		t.Fatal("accessors wrong")
	}
}

func TestPacketString(t *testing.T) {
	p := NewControlPacket(3, 1, 2, true, true)
	if got := p.String(); got == "" {
		t.Fatal("empty String()")
	}
	for _, p := range []*Packet{
		NewControlPacket(3, 1, 2, false, false),
		NewAckPacket(1, 1, 2, 5),
		NewDataPacket(1, 1, 2, 5, 100, true),
	} {
		if p.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestPacketConstructors(t *testing.T) {
	d := NewDataPacket(1, 2, 3, 7, 999, true)
	if d.WireBytes != HeaderBytes+999 || !d.ECT || d.Seq != 7 || d.PayloadBytes != 999 {
		t.Fatalf("data packet fields wrong: %+v", d)
	}
	a := NewAckPacket(1, 3, 2, 8)
	if !a.IsAck || a.Ack != 8 || a.WireBytes != HeaderBytes {
		t.Fatalf("ack packet fields wrong: %+v", a)
	}
	s := NewControlPacket(1, 2, 3, true, true)
	if !s.SYN || s.FIN {
		t.Fatal("SYN constructor wrong")
	}
	f := NewControlPacket(1, 2, 3, false, true)
	if f.SYN || !f.FIN {
		t.Fatal("FIN constructor wrong")
	}
}
