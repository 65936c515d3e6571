package topo_test

import (
	"fmt"
	"strings"
	"testing"

	"xmp/internal/cc"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

func fatTree(eng *sim.Engine, k, aliases int) *topo.FatTree {
	cfg := topo.DefaultFatTreeConfig(topo.ECNMaker(100, 10))
	cfg.K = k
	cfg.AliasesPerHost = aliases
	return topo.NewFatTree(eng, cfg)
}

func TestFatTreeDimensions(t *testing.T) {
	for _, k := range []int{4, 8} {
		eng := sim.NewEngine()
		ft := fatTree(eng, k, 4)
		wantHosts := k * k * k / 4
		wantSwitches := k*k + k*k/4 // k pods x k switches + (k/2)^2 cores
		if ft.NumHosts() != wantHosts {
			t.Fatalf("k=%d: %d hosts, want %d", k, ft.NumHosts(), wantHosts)
		}
		if got := len(ft.Switches); got != wantSwitches {
			t.Fatalf("k=%d: %d switches, want %d", k, got, wantSwitches)
		}
		// The paper's k=8 network: 80 switches, 128 hosts.
		if k == 8 && (ft.NumHosts() != 128 || len(ft.Switches) != 80) {
			t.Fatalf("k=8 dims wrong: %d hosts %d switches", ft.NumHosts(), len(ft.Switches))
		}
	}
}

// probe sends one data segment from src to address addr of dst, stamped
// with the resolved path and with the demux slot of a new registration of
// id at dst that calls delivered, and returns the path.
func probe(t *testing.T, src, dst *netem.Host, srcAddr, addr netem.Addr, id netem.ConnID, delivered func()) *netem.Path {
	t.Helper()
	pa := src.PathTo(addr)
	if pa == nil || pa.Hop(pa.Len()-1).Dst() != netem.Receiver(dst) {
		t.Fatalf("no path from %s to %s's address %d", src.Name, dst.Name, addr)
	}
	p := netem.NewDataPacket(id, srcAddr, addr, 0, netem.MSS, false)
	p.Slot = dst.Register(id, deliverFunc(func(*netem.Packet) { delivered() }))
	p.SetPath(pa)
	src.Send(p)
	return pa
}

// TestFatTreeAllPairsAllAliasesRoute: every (host, alias) pair has a path
// of the length its locality sets, an inter-pod one crosses the core
// switch the alias selects, and a packet stamped with it arrives once.
func TestFatTreeAllPairsAllAliasesRoute(t *testing.T) {
	eng := sim.NewEngine()
	const k, aliases, half = 4, 4, 2
	ft := fatTree(eng, k, aliases)
	n := ft.NumHosts()
	wantLen := map[topo.Category]int{topo.InnerRack: 2, topo.InterRack: 4, topo.InterPod: 6}

	delivered := map[netem.ConnID]int{}
	var id netem.ConnID = 10000
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			for a := 0; a < aliases; a++ {
				id++
				id := id
				src, dst := ft.HostList[s], ft.HostList[d]
				pa := probe(t, src, dst, src.PrimaryAddr(), ft.Alias(dst, a), id, func() { delivered[id]++ })
				cat := ft.Categorize(s, d)
				if pa.Len() != wantLen[cat] {
					t.Fatalf("%s to %s alias %d (%v): %d links, want %d", src.Name, dst.Name, a, cat, pa.Len(), wantLen[cat])
				}
				// Alias a of the host at position d mod half² in its pod climbs
				// to core row sfx mod half, column sfx/half mod half
				// (NewFatTree's two-level lookup).
				sfx := d%(half*half) + a
				if core := ft.Core[sfx%half][(sfx/half)%half]; cat == topo.InterPod && pa.Hop(2).Dst() != netem.Receiver(core) {
					t.Fatalf("%s to %s alias %d climbs over %s, want %s", src.Name, dst.Name, a, pa.Hop(2).Name, core.Name)
				}
			}
		}
	}
	eng.Run(sim.MaxTime)
	for id, got := range delivered {
		if got != 1 {
			t.Fatalf("probe %d delivered %d times", id, got)
		}
	}
	if len(delivered) != n*(n-1)*aliases {
		t.Fatalf("%d of %d (pair, alias) probes delivered", len(delivered), n*(n-1)*aliases)
	}
}

type deliverFunc func(*netem.Packet)

func (f deliverFunc) Deliver(p *netem.Packet) { f(p) }

func TestFatTreeAliasesSpreadAcrossCores(t *testing.T) {
	eng := sim.NewEngine()
	const k = 4
	ft := fatTree(eng, k, 4) // (k/2)^2 = 4 distinct inter-pod paths
	src := ft.HostList[0]    // pod 0
	dstIdx := ft.NumHosts() - 1
	dst := ft.HostList[dstIdx] // last pod
	if ft.Categorize(0, dstIdx) != topo.InterPod {
		t.Fatal("chosen pair is not inter-pod")
	}
	// One packet per alias: the four paths climb to four distinct cores.
	cores := map[netem.Receiver]bool{}
	for a := 0; a < 4; a++ {
		cores[probe(t, src, dst, src.PrimaryAddr(), ft.Alias(dst, a), netem.ConnID(a+1), func() {}).Hop(2).Dst()] = true
	}
	if len(cores) != 4 {
		t.Fatalf("4 aliases climb to %d distinct cores, want 4", len(cores))
	}
	eng.Run(sim.MaxTime)
	seen := map[string]bool{}
	for _, li := range ft.Links() {
		if li.Layer == topo.LayerCore && li.TxPackets() > 0 {
			seen[li.Name] = true
		}
	}
	// Each alias crosses one agg->core and one core->agg link; 4 aliases
	// over 4 disjoint paths -> 8 distinct busy core-layer links.
	if len(seen) != 8 {
		t.Fatalf("4 aliases used %d core-layer links, want 8 (disjoint paths): %v", len(seen), seen)
	}
}

func TestFatTreeCategorize(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree(eng, 4, 1)
	// Host layout for k=4: 2 hosts/rack, 2 racks/pod, 4 pods.
	if ft.Categorize(0, 1) != topo.InnerRack {
		t.Fatal("hosts 0,1 should be inner-rack")
	}
	if ft.Categorize(0, 2) != topo.InterRack {
		t.Fatal("hosts 0,2 should be inter-rack")
	}
	if ft.Categorize(0, 4) != topo.InterPod {
		t.Fatal("hosts 0,4 should be inter-pod")
	}
	if !ft.SameRack(0, 1) || ft.SameRack(0, 2) {
		t.Fatal("SameRack wrong")
	}
	if ft.HostIndexOf(ft.HostList[3]) != 3 {
		t.Fatal("HostIndexOf wrong")
	}
	if ft.HostIndexOf(nil) != -1 {
		t.Fatal("HostIndexOf(nil) should be -1")
	}
}

func TestFatTreeRTTBands(t *testing.T) {
	// The paper: zero-queue RTT between ~105 us (inner-rack) and ~435 us
	// (inter-pod). Measure via real connections on an idle k=8 tree.
	eng := sim.NewEngine()
	ft := fatTree(eng, 8, 1)
	measure := func(src, dst int) sim.Duration {
		// Use the largest sample: the data-packet RTT, which includes the
		// full-size serialization the paper's 105-435 us band covers (the
		// first sample comes from the 40-byte SYN exchange).
		var rtt maxRTT
		cfg := transport.DefaultConfig()
		cfg.DelAckCount = 1 // a one-segment probe must not sit on the delack timer
		conn := transport.NewConn(eng, transport.Options{
			ID:         ft.NextConnID(),
			Src:        ft.HostList[src],
			Dst:        ft.HostList[dst],
			Controller: cc.NewReno(2, false),
			Config:     cfg,
			Supply:     transport.NewFixedSupply(netem.MSS),
			Owner:      &rtt,
		})
		conn.Start()
		eng.Run(sim.MaxTime)
		if conn.State() != transport.StateDone {
			panic(fmt.Sprintf("probe %d->%d stuck", src, dst))
		}
		return sim.Duration(rtt)
	}
	inner := measure(0, 1)    // same rack
	interR := measure(2, 4+2) // hmm: indexes within pod
	interP := measure(8, 70)
	if inner < 80*sim.Microsecond || inner > 150*sim.Microsecond {
		t.Fatalf("inner-rack RTT %v, want ~105 us", inner)
	}
	if interP < 380*sim.Microsecond || interP > 500*sim.Microsecond {
		t.Fatalf("inter-pod RTT %v, want ~435 us", interP)
	}
	if !(inner < interR && interR < interP) {
		t.Fatalf("RTT ordering violated: %v %v %v", inner, interR, interP)
	}
}

func TestTorusConstruction(t *testing.T) {
	eng := sim.NewEngine()
	caps := []netem.Bps{800 * netem.Mbps, 1200 * netem.Mbps, 2 * netem.Gbps, 1500 * netem.Mbps, 500 * netem.Mbps}
	tr := topo.NewTorus(eng, topo.TorusConfig{
		Capacities:      caps,
		HopDelay:        35 * sim.Microsecond,
		BottleneckQueue: topo.ECNMaker(100, 20),
		Background:      4,
	})
	if len(tr.S) != 5 || len(tr.D) != 5 || len(tr.Bottlenecks) != 5 || len(tr.BG) != 4 {
		t.Fatalf("torus sizes wrong: %d %d %d %d", len(tr.S), len(tr.D), len(tr.Bottlenecks), len(tr.BG))
	}
	for i, b := range tr.Bottlenecks {
		if b.Capacity != caps[i] {
			t.Fatalf("bottleneck %d capacity %v", i, b.Capacity)
		}
	}

	// Flow i's alias p must cross bottleneck (i+p) mod 5 and no other.
	for i := 0; i < 5; i++ {
		for p := 0; p < 2; p++ {
			eng2 := sim.NewEngine()
			tr2 := topo.NewTorus(eng2, topo.TorusConfig{
				Capacities:      caps,
				HopDelay:        35 * sim.Microsecond,
				BottleneckQueue: topo.ECNMaker(100, 20),
			})
			probe(t, tr2.S[i], tr2.D[i], tr2.S[i].Addrs()[p], tr2.PathAddr(tr2.D[i], p), 1, func() {})
			eng2.Run(sim.MaxTime)
			want := (i + p) % 5
			for b, bn := range tr2.Bottlenecks {
				got := bn.Fwd.TxPackets()
				if b == want && got != 1 {
					t.Fatalf("flow %d path %d: bottleneck %d carried %d packets, want 1", i, p, b, got)
				}
				if b != want && got != 0 {
					t.Fatalf("flow %d path %d leaked onto bottleneck %d", i, p, b)
				}
			}
		}
	}
}

func TestTorusBottleneckShutdown(t *testing.T) {
	eng := sim.NewEngine()
	caps := []netem.Bps{netem.Gbps, netem.Gbps}
	tr := topo.NewTorus(eng, topo.TorusConfig{
		Capacities:      caps,
		HopDelay:        35 * sim.Microsecond,
		BottleneckQueue: topo.ECNMaker(100, 20),
	})
	tr.Bottlenecks[0].SetDown(true)
	if !tr.Bottlenecks[0].Fwd.Down() || !tr.Bottlenecks[0].Rev.Down() {
		t.Fatal("shutdown did not close both directions")
	}
	tr.Bottlenecks[0].SetDown(false)
	if tr.Bottlenecks[0].Fwd.Down() {
		t.Fatal("reopen failed")
	}
}

func TestNetworkHelpers(t *testing.T) {
	eng := sim.NewEngine()
	n := topo.NewNetwork(eng)
	h := n.NewHost("h")
	if n.HostByAddr(h.PrimaryAddr()) != h {
		t.Fatal("HostByAddr broken")
	}
	a := n.AddAddr(h)
	if n.HostByAddr(a) != h || len(h.Addrs()) != 2 {
		t.Fatal("AddAddr broken")
	}
	id1, id2 := n.NextConnID(), n.NextConnID()
	if id1 == id2 {
		t.Fatal("conn ids collide")
	}
	sw := n.NewSwitch("sw", topo.LayerCore)
	l := n.AddLink("l", netem.Gbps, 0, netem.NewDropTail(10), sw, topo.LayerCore)
	if got := n.LinksByLayer(topo.LayerCore); len(got) != 1 || got[0] != l {
		t.Fatal("LinksByLayer broken")
	}
	if len(n.LinksByLayer("nope")) != 0 {
		t.Fatal("layer filter broken")
	}
}

func TestTestbedARouting(t *testing.T) {
	eng := sim.NewEngine()
	tb := topo.NewTestbedA(eng, topo.TestbedAConfig{
		BottleneckCapacity: 300 * netem.Mbps,
		HopDelay:           225 * sim.Microsecond,
		BottleneckQueue:    topo.ECNMaker(100, 15),
		Background:         2,
	})
	if len(tb.BG[0]) != 2 || len(tb.BG[1]) != 2 {
		t.Fatalf("background pairs wrong: %d/%d", len(tb.BG[0]), len(tb.BG[1]))
	}
	// Alias p of any receiver crosses DN p only.
	for p := 0; p < 2; p++ {
		got := 0
		probe(t, tb.S[0], tb.D[0], tb.PathAddr(tb.S[0], p), tb.PathAddr(tb.D[0], p), netem.ConnID(100+p), func() { got++ })
		eng.Run(sim.MaxTime)
		if got != 1 {
			t.Fatalf("path %d probe undelivered", p)
		}
	}
	if tb.DNFwd[0].TxPackets() != 1 || tb.DNFwd[1].TxPackets() != 1 {
		t.Fatalf("probes did not split across DNs: %d/%d", tb.DNFwd[0].TxPackets(), tb.DNFwd[1].TxPackets())
	}
}

// TestCheckDrained: the audit a finished cell passes names what a fabric
// that is not empty still holds — a pending event, a queued packet, a
// pooled packet nobody released — a packet a host had no connection for,
// and a registered endpoint whose own audit fails.
func TestCheckDrained(t *testing.T) {
	wantPanic := func(want string, dirty func(ft *topo.FatTree)) {
		t.Helper()
		ft := fatTree(sim.NewEngine(), 4, 1)
		ft.CheckDrained() // a new fabric is empty
		dirty(ft)
		defer func() {
			t.Helper()
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
				t.Errorf("CheckDrained panicked with %q, want a message naming %q", msg, want)
			}
		}()
		ft.CheckDrained()
	}
	wantPanic("1 events pending", func(ft *topo.FatTree) { ft.Eng.Schedule(sim.Second, func() {}) })
	wantPanic("1 of 1 pooled packets never released", func(ft *topo.FatTree) { ft.Pool.Ack(1, 1, 2, 0) })
	wantPanic("1 packets left queued on h0.0.0->edge0.0", func(ft *topo.FatTree) {
		h := ft.Host(0)
		h.Send(ft.Pool.Ack(1, h.PrimaryAddr(), ft.Host(5).PrimaryAddr(), 0))
		h.Send(ft.Pool.Ack(1, h.PrimaryAddr(), ft.Host(5).PrimaryAddr(), 0))
		ft.Eng.Reset() // the first packet's serialization event is gone; the second stays queued
	})
	wantPanic("host h0.1.1 misdelivered 1 packets", func(ft *topo.FatTree) {
		h := ft.Host(3)
		h.Receive(ft.Pool.Ack(1, ft.Host(0).PrimaryAddr(), h.PrimaryAddr(), 0)) // no connection 1 here
	})
	wantPanic("endpoint audit failed", func(ft *topo.FatTree) { ft.Host(6).Register(1, failingAuditor{}) })
	wantPanic("h0.0.0->edge0.0 enqueued 1 packets but serialized 0 and flushed 0", func(ft *topo.FatTree) {
		h := ft.Host(0)
		p := ft.Pool.Ack(1, h.PrimaryAddr(), ft.Host(5).PrimaryAddr(), 0)
		h.Send(p)
		ft.Eng.Reset() // the packet vanishes mid-serialization
		p.Release()
	})
	wantPanic("links were offered 0 packets, but hosts sent 1 and links forwarded 0", func(ft *topo.FatTree) {
		ft.Pool.Ack(1, 1, 2, 0).Release() // taken from the pool, never sent
	})

	// Auditors handed in (a cell's flow arena) run too.
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "endpoint audit failed") {
			t.Errorf("CheckDrained(failingAuditor) panicked with %q, want the auditor's message", msg)
		}
	}()
	fatTree(sim.NewEngine(), 4, 1).CheckDrained(failingAuditor{})
}

// maxRTT is a transport.Owner keeping the largest RTT sample.
type maxRTT sim.Duration

func (m *maxRTT) Progress(sim.Time, int) {}
func (m *maxRTT) RTTSample(rtt sim.Duration) {
	if rtt > sim.Duration(*m) {
		*m = maxRTT(rtt)
	}
}
func (m *maxRTT) Complete(*transport.Conn) {}

// doneAt is a transport.Owner noting when its connection completed.
type doneAt struct {
	eng *sim.Engine
	at  sim.Time
}

func (d *doneAt) Progress(sim.Time, int)   {}
func (d *doneAt) RTTSample(sim.Duration)   {}
func (d *doneAt) Complete(*transport.Conn) { d.at = d.eng.Now() }

// failingAuditor is an endpoint whose audit always fails.
type failingAuditor struct{}

func (failingAuditor) Deliver(*netem.Packet) {}
func (failingAuditor) Audit()                { panic("endpoint audit failed") }

// TestNetworkResetReplaysTheSameRun: a flow over a Reset fabric — after a
// run that left a link down, delay added and connection ids used — takes
// the same time to the nanosecond and leaves the same counters as on a new
// fabric.
func TestNetworkResetReplaysTheSameRun(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree(eng, 4, 2)
	run := func() (sim.Time, uint64, netem.ConnID, int64) {
		id := ft.NextConnID()
		src, dst := ft.Host(0), ft.Host(13)
		done := doneAt{eng: eng, at: -1}
		c := transport.NewConn(eng, transport.Options{
			ID: id, Src: src, Dst: dst, DstAddr: ft.AliasOf(13, 1),
			Controller: cc.NewReno(2, false),
			Config:     transport.DefaultConfig(),
			Supply:     transport.NewFixedSupply(400_000),
			Owner:      &done,
		})
		c.Start()
		events := eng.RunAll(1 << 30)
		return done.at, events, id, src.NIC().TxBytes()
	}
	done1, ev1, id1, tx1 := run()
	ft.CheckDrained()
	ft.Links()[7].SetDown(true)
	ft.Links()[9].SetExtraDelay(sim.Millisecond)
	ft.Reset()
	done2, ev2, id2, tx2 := run()
	if done1 < 0 || done1 != done2 || ev1 != ev2 || id1 != id2 || tx1 != tx2 {
		t.Fatalf("new fabric: done %v, %d events, conn %d, %d bytes; Reset fabric: done %v, %d events, conn %d, %d bytes",
			done1, ev1, id1, tx1, done2, ev2, id2, tx2)
	}
}
