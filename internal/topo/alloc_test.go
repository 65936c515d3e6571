package topo

import (
	"testing"

	"xmp/internal/netem"
	"xmp/internal/sim"
)

// nullEndpoint models an endpoint that consumes deliveries; the host
// releases the packet after Deliver returns.
type nullEndpoint struct{ delivered int }

func (e *nullEndpoint) Deliver(*netem.Packet) { e.delivered++ }

// TestFatTreeHopForwardZeroAlloc pins the per-hop contract on the fabric
// every campaign runs: a packet crossing an inter-pod path of a k=4
// fat-tree — NIC enqueue, two typed link events on each of six links, host
// demux, pool release — allocates nothing in steady state. This is the
// per-hop path every Fat-Tree campaign multiplies by millions.
func TestFatTreeHopForwardZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultFatTreeConfig(ECNMaker(100, 10))
	cfg.K = 4
	ft := NewFatTree(eng, cfg)
	src, dst := ft.Host(0), ft.Host(ft.NumHosts()-1)
	path := src.PathTo(dst.PrimaryAddr())
	if path == nil || path.Len() != 6 {
		t.Fatalf("no six-link inter-pod path: %v", path)
	}
	ep := &nullEndpoint{}
	conn := ft.NextConnID()
	slot := dst.Register(conn, ep)

	send := func() {
		p := ft.Pool.Data(conn, src.PrimaryAddr(), dst.PrimaryAddr(), 0, netem.MSS, true)
		p.Slot = slot
		p.SetPath(path)
		src.Send(p)
		eng.Run(sim.MaxTime)
	}
	// Warm the pool, queue rings, and event free-list.
	for i := 0; i < 32; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Fatalf("fat-tree hop forwarding allocates %v/op, want 0", allocs)
	}
	if ep.delivered == 0 {
		t.Fatal("no packets delivered")
	}
}

// TestResolvedPathForwardZeroAlloc pins the PR 6 per-packet contract: the
// lookup-free path — resolved next-hop array on the packet plus the slotted
// host demux — allocates nothing in steady state. The path and slot are
// resolved once (as transport.NewConn does) and every send after that is
// array indexing end to end.
func TestResolvedPathForwardZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	sw := n.NewSwitch("tor", LayerRack)
	src := n.NewHost("src")
	dst := n.NewHost("dst")
	n.AttachHost(src, sw, netem.Gbps, 20*sim.Microsecond, ECNMaker(100, 10), LayerRack)
	n.AttachHost(dst, sw, netem.Gbps, 20*sim.Microsecond, ECNMaker(100, 10), LayerRack)
	ep := &nullEndpoint{}
	conn := n.NextConnID()
	slot := dst.Register(conn, ep)

	path := src.PathTo(dst.PrimaryAddr())
	back := dst.PathTo(src.PrimaryAddr())
	if path == nil || path.Len() != 2 || back == nil {
		t.Fatalf("path resolution failed: %v, %v", path, back)
	}
	backSlot := src.Register(conn, ep)
	// A segment out and its ACK back: the full-segment and bare-header
	// serialization lanes and the propagation lane, as every flow uses them.
	send := func() {
		p := n.Pool.Data(conn, src.PrimaryAddr(), dst.PrimaryAddr(), 0, netem.MSS, true)
		p.Slot = slot
		p.SetPath(path)
		src.Send(p)
		a := n.Pool.Ack(conn, dst.PrimaryAddr(), src.PrimaryAddr(), 1)
		a.Slot = backSlot
		a.SetPath(back)
		dst.Send(a)
		eng.Run(sim.MaxTime)
	}
	for i := 0; i < 32; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Fatalf("resolved-path forwarding allocates %v/op, want 0", allocs)
	}
	if ep.delivered == 0 {
		t.Fatal("no packets delivered")
	}
}
