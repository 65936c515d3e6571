package topo

import (
	"fmt"

	"xmp/internal/netem"
	"xmp/internal/sim"
)

// TestbedAConfig parameterizes the traffic-shifting testbed of Figure 3(a):
// three sender/receiver pairs and two DummyNet bottlenecks (DN1, DN2).
// Flow 2 runs one subflow through each DN; background flows load one DN at
// a time, forcing TraSh to shift traffic.
type TestbedAConfig struct {
	// BottleneckCapacity is 300 Mbps in the paper (BDP ~45 packets at the
	// testbed's 1.8 ms RTT).
	BottleneckCapacity netem.Bps
	// EdgeCapacity feeds the bottlenecks (1 Gbps NICs in the paper).
	EdgeCapacity netem.Bps
	// HopDelay is the per-link one-way delay; the 4-hop path gives
	// RTT = 8×HopDelay + serialization (~225 µs for the paper's 1.8 ms).
	HopDelay sim.Duration
	// BottleneckQueue builds the DN marking queues (K=15, limit 100 in
	// the paper's experiments).
	BottleneckQueue QueueMaker
	// Background is the number of background sender/receiver pairs
	// provisioned per DN.
	Background int
}

// HostPair is a source/destination host pair.
type HostPair struct {
	Src, Dst *netem.Host
}

// TestbedA is the constructed Figure 3(a) topology. Every host owns two
// addresses: alias 0 routes via DN1 and alias 1 via DN2, in both
// directions, so a subflow's forward and reverse paths agree.
type TestbedA struct {
	*Network
	S, D [3]*netem.Host
	// BG[p] are the background pairs intended to load DN p (their flows
	// should use PathAddr(..., p) addresses).
	BG [2][]HostPair
	// DNFwd[p]/DNRev[p] are bottleneck p's two directions.
	DNFwd, DNRev [2]*netem.Link
}

// PathAddr returns host h's address that routes via DN path (0 or 1).
func (tb *TestbedA) PathAddr(h *netem.Host, path int) netem.Addr {
	return h.Addrs()[path]
}

// NewTestbedA builds the topology.
func NewTestbedA(eng *sim.Engine, cfg TestbedAConfig) *TestbedA {
	if cfg.BottleneckQueue == nil {
		panic("topo: testbed A needs a bottleneck queue maker")
	}
	if cfg.EdgeCapacity == 0 {
		cfg.EdgeCapacity = netem.Gbps
	}
	n := NewNetwork(eng)
	tb := &TestbedA{Network: n}

	in := n.NewSwitch("in", LayerEdge)
	out := n.NewSwitch("out", LayerEdge)
	dn := [2]*netem.Switch{
		n.NewSwitch("dn1", LayerBottleneck),
		n.NewSwitch("dn2", LayerBottleneck),
	}

	// Feeder and bottleneck links around each DN.
	var inToDN, outToDN [2]*netem.Link
	for p := 0; p < 2; p++ {
		inToDN[p] = n.AddLink(fmt.Sprintf("in->dn%d", p+1), cfg.EdgeCapacity, cfg.HopDelay,
			netem.NewDropTail(DefaultHostQueue), dn[p], LayerEdge)
		outToDN[p] = n.AddLink(fmt.Sprintf("out->dn%d", p+1), cfg.EdgeCapacity, cfg.HopDelay,
			netem.NewDropTail(DefaultHostQueue), dn[p], LayerEdge)
		tb.DNFwd[p] = n.AddLink(fmt.Sprintf("dn%d->out", p+1), cfg.BottleneckCapacity, cfg.HopDelay,
			cfg.BottleneckQueue(n.Build), out, LayerBottleneck)
		tb.DNRev[p] = n.AddLink(fmt.Sprintf("dn%d->in", p+1), cfg.BottleneckCapacity, cfg.HopDelay,
			cfg.BottleneckQueue(n.Build), in, LayerBottleneck)
	}

	var senders, receivers []*netem.Host
	senderSide := func(name string) *netem.Host {
		h := n.NewHost(name)
		n.AddAddr(h) // second alias
		n.AttachHost(h, in, cfg.EdgeCapacity, cfg.HopDelay, DropTailMaker(DefaultHostQueue), LayerEdge)
		senders = append(senders, h)
		return h
	}
	receiverSide := func(name string) *netem.Host {
		h := n.NewHost(name)
		n.AddAddr(h)
		n.AttachHost(h, out, cfg.EdgeCapacity, cfg.HopDelay, DropTailMaker(DefaultHostQueue), LayerEdge)
		receivers = append(receivers, h)
		return h
	}
	for i := 0; i < 3; i++ {
		tb.S[i] = senderSide(fmt.Sprintf("s%d", i+1))
		tb.D[i] = receiverSide(fmt.Sprintf("d%d", i+1))
	}
	for p := 0; p < 2; p++ {
		for b := 0; b < cfg.Background; b++ {
			tb.BG[p] = append(tb.BG[p], HostPair{
				Src: senderSide(fmt.Sprintf("b%d-%d", p+1, b+1)),
				Dst: receiverSide(fmt.Sprintf("c%d-%d", p+1, b+1)),
			})
		}
	}

	// Alias-based routing: alias index selects the DN, in both directions.
	for _, h := range receivers {
		addrs := h.Addrs()
		in.AddRoute(addrs[0], inToDN[0])
		in.AddRoute(addrs[1], inToDN[1])
		for p := 0; p < 2; p++ {
			RouteHostAddrs(dn[p], h, tb.DNFwd[p])
		}
	}
	for _, h := range senders {
		addrs := h.Addrs()
		out.AddRoute(addrs[0], outToDN[0])
		out.AddRoute(addrs[1], outToDN[1])
		for p := 0; p < 2; p++ {
			RouteHostAddrs(dn[p], h, tb.DNRev[p])
		}
	}
	return tb
}
