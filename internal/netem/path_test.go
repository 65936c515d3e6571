package netem

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"xmp/internal/sim"
)

// countEndpoint counts deliveries for the demux tests.
type countEndpoint struct{ delivered int }

func (e *countEndpoint) Deliver(*Packet) { e.delivered++ }

// chainNet builds src -[nicA]-> sw1 -[mid]-> sw2 -[last]-> dst with routes
// for dst's primary address installed at both switches, as the product
// (o nil) or the hop-by-hop oracle builds it.
func chainNet(eng *sim.Engine, o *hopByHop) (src, dst *Host, sw1, sw2 *Switch) {
	src = NewHost(eng, 1, "src")
	dst = NewHost(eng, 2, "dst")
	src.AddAddr(10)
	dst.AddAddr(20)
	sw1 = NewSwitch(3, "sw1", LayerTestRack)
	sw2 = NewSwitch(4, "sw2", LayerTestRack)
	mk := func(name string, to Receiver) *Link {
		return NewLink(eng, name, Gbps, 10*sim.Microsecond, NewDropTail(100), to)
	}
	src.AttachNIC(mk("src->sw1", o.into(sw1)))
	last := mk("sw2->dst", dst)
	mid := mk("sw1->sw2", o.into(sw2))
	sw1.AddRoute(20, mid)
	sw2.AddRoute(20, last)
	return src, dst, sw1, sw2
}

// LayerTestRack labels test switches; the value is irrelevant to routing.
const LayerTestRack = "rack"

func TestPathResolution(t *testing.T) {
	eng := sim.NewEngine()
	src, dst, _, _ := chainNet(eng, nil)

	pa := src.PathTo(20)
	if pa == nil {
		t.Fatal("PathTo(20) = nil on a fully routed chain")
	}
	if pa.Len() != 3 {
		t.Fatalf("path length %d, want 3 (nic, sw1->sw2, sw2->dst)", pa.Len())
	}
	if pa.Hop(0) != src.NIC() {
		t.Fatal("path does not start at the source NIC")
	}
	if pa.Hop(2).Dst() != Receiver(dst) {
		t.Fatal("path does not end at the destination host")
	}
	if again := src.PathTo(20); again != pa {
		t.Fatal("PathTo is not cached: second resolution returned a new path")
	}

	// No route for an unknown address: nil, every time it is asked.
	if src.PathTo(99) != nil || src.PathTo(99) != nil {
		t.Fatal("PathTo to an unrouted address resolved a path")
	}
	// The reverse direction has no routes installed at all.
	if dst.PathTo(10) != nil {
		t.Fatal("PathTo resolved a path with no reverse routes")
	}
}

// TestPathToAfterAddRoute: a miss is not cached, so a route installed after
// a first resolution found none is the path the next resolution returns.
func TestPathToAfterAddRoute(t *testing.T) {
	eng := sim.NewEngine()
	src, dst, sw1, sw2 := chainNet(eng, nil)
	dst.AddAddr(21)
	if pa := src.PathTo(21); pa != nil {
		t.Fatalf("PathTo(21) = %v before sw1 and sw2 route it", linkNames(pa.hops))
	}
	sw1.AddRoute(21, sw1.Route(20))
	sw2.AddRoute(21, sw2.Route(20))
	pa := src.PathTo(21)
	if pa == nil || !slices.Equal(linkNames(pa.hops), linkNames(src.PathTo(20).hops)) {
		t.Fatal("PathTo(21) found no path, or another than address 20's, after the routes were installed")
	}
}

// TestResolvedPathDeliveryMatchesHopByHop sends the same segment stamped
// with its path and unstamped through the oracle's walk: the links crossed,
// the arrival time and the demux must agree exactly.
func TestResolvedPathDeliveryMatchesHopByHop(t *testing.T) {
	run := func(o *hopByHop) (arrivals int, at sim.Time, hops []string) {
		eng := sim.NewEngine()
		src, dst, _, _ := chainNet(eng, o)
		ep := &countEndpoint{}
		p := NewDataPacket(7, 10, 20, 0, MSS, false)
		p.Slot = dst.Register(7, ep)
		if o == nil {
			pa := src.PathTo(20)
			p.SetPath(pa)
			hops = linkNames(pa.hops)
		}
		src.Send(p)
		eng.Run(sim.MaxTime)
		if o != nil {
			hops = o.hops(src.NIC(), p)
		}
		return ep.delivered, eng.Now(), hops
	}
	gotHop, atHop, walked := run(newHopByHop())
	gotPath, atPath, resolved := run(nil)
	if gotHop != 1 || gotPath != 1 {
		t.Fatalf("deliveries: hop-by-hop %d, resolved %d, want 1 and 1", gotHop, gotPath)
	}
	if atHop != atPath {
		t.Fatalf("arrival time diverges: hop-by-hop %v, resolved %v", atHop, atPath)
	}
	if !slices.Equal(walked, resolved) {
		t.Fatalf("links crossed: hop-by-hop %v, resolved %v", walked, resolved)
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := recover(); msg == nil || !strings.Contains(fmt.Sprint(msg), want) {
			t.Errorf("%s: panicked with %v, want a message containing %q", what, msg, want)
		}
	}()
	f()
}

// TestPathlessPacketPanics: a switch forwards nothing by itself, so a
// packet sent toward one without a path — never stamped, or released to a
// poisoning pool and sent again — panics instead of being walked.
func TestPathlessPacketPanics(t *testing.T) {
	eng := sim.NewEngine()
	src, _, _, _ := chainNet(eng, nil)
	mustPanic(t, "unstamped packet", "packet without a resolved path reached switch sw1", func() {
		src.Send(NewDataPacket(7, 10, 20, 0, MSS, false))
		eng.Run(sim.MaxTime)
	})

	eng = sim.NewEngine()
	src, _, _, _ = chainNet(eng, nil)
	pl := NewPacketPool()
	pl.Poison = true
	p := pl.Data(7, 10, 20, 0, MSS, false)
	p.SetPath(src.PathTo(20))
	p.Release()
	mustPanic(t, "released poisoned packet", "sim: negative delay", func() {
		src.Send(p)
		eng.Run(sim.MaxTime)
	})
}

func TestSlotDemux(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1, "h")
	h.AddAddr(1)
	epA, epB := &countEndpoint{}, &countEndpoint{}
	slotA := h.Register(100, epA)
	slotB := h.Register(200, epB)
	if slotA == 0 || slotB == 0 || slotA == slotB {
		t.Fatalf("bad slots %d, %d: want distinct non-zero", slotA, slotB)
	}

	send := func(conn ConnID, slot int32) {
		p := NewDataPacket(conn, 2, 1, 0, MSS, false)
		p.Slot = slot
		h.Receive(p)
	}
	send(100, slotA)
	send(200, slotB)
	if epA.delivered != 1 || epB.delivered != 1 {
		t.Fatalf("delivered A=%d B=%d, want 1 and 1", epA.delivered, epB.delivered)
	}

	// An unstamped, foreign, or out-of-range slot delivers nowhere: there
	// is no other way to find the endpoint.
	send(100, 0)
	send(100, slotB)
	send(200, 500)
	if epA.delivered != 1 || epB.delivered != 1 || h.Misdelivered != 3 {
		t.Fatalf("bad stamps delivered: A=%d B=%d misdelivered=%d, want 1, 1, 3", epA.delivered, epB.delivered, h.Misdelivered)
	}

	// After Unregister the slot misses.
	h.Unregister(100, slotA)
	send(100, slotA)
	if epA.delivered != 1 || h.Misdelivered != 4 {
		t.Fatalf("packet for an unregistered connection: A=%d misdelivered=%d", epA.delivered, h.Misdelivered)
	}

	// The retired slot is recycled to the next registration, and a stale
	// stamp for the old connection must NOT cross-deliver to the new
	// occupant: the ConnID check rejects it.
	epC := &countEndpoint{}
	slotC := h.Register(300, epC)
	if slotC != slotA {
		t.Fatalf("retired slot not recycled: got %d, want %d", slotC, slotA)
	}
	send(100, slotA) // stale stamp for the dead conn 100
	if epC.delivered != 0 || h.Misdelivered != 5 {
		t.Fatalf("stale slot stamp: C=%d misdelivered=%d, want 0 and 5", epC.delivered, h.Misdelivered)
	}
	send(300, slotC) // the new occupant still demuxes
	if epC.delivered != 1 {
		t.Fatal("recycled slot did not deliver to its new connection")
	}
}

// TestUnregisterStaleSlot: unregistering a connection whose slot has since
// been recycled leaves the slot's new occupant registered.
func TestUnregisterStaleSlot(t *testing.T) {
	h := NewHost(sim.NewEngine(), 1, "h")
	old := h.Register(1, &countEndpoint{})
	h.Unregister(1, old)
	ep := &countEndpoint{}
	if slot := h.Register(2, ep); slot != old {
		t.Fatalf("slot %d not recycled (got %d)", old, slot)
	}
	h.Unregister(1, old) // stale: the slot holds connection 2 now
	h.Unregister(2, 99)  // a slot the host never handed out
	p := NewDataPacket(2, 0, 0, 0, MSS, false)
	p.Slot = old
	h.Receive(p)
	if ep.delivered != 1 || h.Misdelivered != 0 {
		t.Fatalf("after stale Unregisters: delivered %d, misdelivered %d, want 1 and 0", ep.delivered, h.Misdelivered)
	}
}

// TestDuplicateRegisterPanics: connection IDs ascend per host — one
// NextConnID per network — so an ID equal to or below the last registered
// is a duplicate, until Reset restarts the count as Network.Reset restarts
// the IDs.
func TestDuplicateRegisterPanics(t *testing.T) {
	h := NewHost(sim.NewEngine(), 1, "h")
	h.Register(5, &countEndpoint{})
	mustPanic(t, "equal ID", "conn 5 registered on host h after conn 5", func() { h.Register(5, &countEndpoint{}) })
	mustPanic(t, "lower ID", "conn 3 registered on host h after conn 5", func() { h.Register(3, &countEndpoint{}) })
	h.Unregister(5, 1)
	mustPanic(t, "ID of an unregistered connection", "conn 5 registered", func() { h.Register(5, &countEndpoint{}) })
	h.Reset()
	if slot := h.Register(1, &countEndpoint{}); slot != 1 {
		t.Fatalf("ID 1 after Reset got slot %d, want 1", slot)
	}
}

func TestSwitchReserve(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(1, "sw", LayerTestRack)
	sink := NewLink(eng, "out", Gbps, sim.Microsecond, NewDropTail(1), NewHost(eng, 2, "h"))
	sw.Reserve(1000)
	for a := Addr(0); a <= 1000; a++ {
		sw.AddRoute(a, sink)
	}
	for a := Addr(0); a <= 1000; a++ {
		if sw.Route(a) != sink {
			t.Fatalf("route for %d lost after Reserve", a)
		}
	}
	// Reserve smaller than current size is a no-op; AddRoute past the
	// reservation still grows.
	sw.Reserve(10)
	sw.AddRoute(5000, sink)
	if sw.Route(5000) != sink || sw.Route(1000) != sink {
		t.Fatal("growth after Reserve corrupted the table")
	}
}
