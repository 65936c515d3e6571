package topo

import (
	"fmt"

	"xmp/internal/netem"
	"xmp/internal/sim"
)

// TorusConfig parameterizes the Figure 5 topology: a ring of N bottleneck
// links; flow i runs one subflow over link i and one over link i+1 (mod
// N), so a congestion change anywhere propagates around the ring — the
// "attenuated Dominos" rate-compensation effect of Section 5.1.
type TorusConfig struct {
	// Capacities of the bottleneck links, left to right. The paper uses
	// {0.8, 1.2, 2, 1.5, 0.5} Gbps.
	Capacities []netem.Bps
	// EdgeCapacity of host and feeder links; must exceed the fastest
	// bottleneck (the paper's flows are bottleneck-limited).
	EdgeCapacity netem.Bps
	// HopDelay per link; the 5-hop path gives RTT = 10×HopDelay +
	// serialization (35 µs for the paper's 350 µs).
	HopDelay sim.Duration
	// BottleneckQueue builds each bottleneck's marking queue.
	BottleneckQueue QueueMaker
	// Background is the number of background pairs provisioned on the
	// middle link (L3 in the paper: index 2).
	Background int
}

// Bottleneck is one ring link with both directions.
type Bottleneck struct {
	Fwd, Rev *netem.Link
	Capacity netem.Bps
}

// Torus is the constructed Figure 5 topology.
type Torus struct {
	*Network
	// S[i]/D[i] are flow i's endpoints; each owns 2 aliases: alias 0
	// routes via bottleneck i, alias 1 via bottleneck i+1 (mod N).
	S, D []*netem.Host
	// BG are the background pairs on L3, bottleneck 2 (single alias
	// each).
	BG          []HostPair
	Bottlenecks []Bottleneck
}

// PathAddr returns host h's address whose route crosses h's subflow path
// (0 or 1).
func (tr *Torus) PathAddr(h *netem.Host, path int) netem.Addr {
	return h.Addrs()[path]
}

// SetDown opens or closes both directions of the bottleneck (Figure 7
// closes L3 at t=60 s).
func (b *Bottleneck) SetDown(down bool) {
	b.Fwd.SetDown(down)
	b.Rev.SetDown(down)
}

// NewTorus builds the topology.
func NewTorus(eng *sim.Engine, cfg TorusConfig) *Torus {
	nb := len(cfg.Capacities)
	if nb < 2 {
		panic("topo: torus needs at least two bottlenecks")
	}
	if cfg.BottleneckQueue == nil {
		panic("topo: torus needs a bottleneck queue maker")
	}
	if cfg.EdgeCapacity == 0 {
		cfg.EdgeCapacity = 10 * netem.Gbps
	}
	n := NewNetwork(eng)
	tr := &Torus{Network: n}

	// Ring plumbing: bottleneck i runs U[i] -> W[i] (and back).
	up := make([]*netem.Switch, nb)
	down := make([]*netem.Switch, nb)
	for i := 0; i < nb; i++ {
		up[i] = n.NewSwitch(fmt.Sprintf("u%d", i+1), LayerBottleneck)
		down[i] = n.NewSwitch(fmt.Sprintf("w%d", i+1), LayerBottleneck)
		fwd := n.AddLink(fmt.Sprintf("L%d", i+1), cfg.Capacities[i], cfg.HopDelay,
			cfg.BottleneckQueue(n.Build), down[i], LayerBottleneck)
		rev := n.AddLink(fmt.Sprintf("L%d-rev", i+1), cfg.Capacities[i], cfg.HopDelay,
			cfg.BottleneckQueue(n.Build), up[i], LayerBottleneck)
		tr.Bottlenecks = append(tr.Bottlenecks, Bottleneck{Fwd: fwd, Rev: rev, Capacity: cfg.Capacities[i]})
	}

	edgeQ := DropTailMaker(DefaultHostQueue)

	// Each flow i gets a source-side switch feeding bottlenecks i and
	// i+1, and a sink-side switch fed by them.
	for i := 0; i < nb; i++ {
		j := (i + 1) % nb
		s := n.NewHost(fmt.Sprintf("s%d", i+1))
		d := n.NewHost(fmt.Sprintf("d%d", i+1))
		n.AddAddr(s)
		n.AddAddr(d)
		ssw := n.NewSwitch(fmt.Sprintf("ssw%d", i+1), LayerEdge)
		dsw := n.NewSwitch(fmt.Sprintf("dsw%d", i+1), LayerEdge)
		n.AttachHost(s, ssw, cfg.EdgeCapacity, cfg.HopDelay, edgeQ, LayerEdge)
		n.AttachHost(d, dsw, cfg.EdgeCapacity, cfg.HopDelay, edgeQ, LayerEdge)

		// Forward feeders and reverse feeders per path.
		for p, b := range []int{i, j} {
			sToU := n.AddLink(fmt.Sprintf("ssw%d->u%d", i+1, b+1), cfg.EdgeCapacity, cfg.HopDelay, edgeQ(n.Build), up[b], LayerEdge)
			wToD := n.AddLink(fmt.Sprintf("w%d->dsw%d", b+1, i+1), cfg.EdgeCapacity, cfg.HopDelay, edgeQ(n.Build), dsw, LayerEdge)
			dToW := n.AddLink(fmt.Sprintf("dsw%d->w%d", i+1, b+1), cfg.EdgeCapacity, cfg.HopDelay, edgeQ(n.Build), down[b], LayerEdge)
			uToS := n.AddLink(fmt.Sprintf("u%d->ssw%d", b+1, i+1), cfg.EdgeCapacity, cfg.HopDelay, edgeQ(n.Build), ssw, LayerEdge)

			// Forward: ssw routes d's alias p into bottleneck b; W[b]
			// routes it out toward dsw.
			ssw.AddRoute(d.Addrs()[p], sToU)
			up[b].AddRoute(d.Addrs()[p], tr.Bottlenecks[b].Fwd)
			down[b].AddRoute(d.Addrs()[p], wToD)
			// Reverse: ACKs to s's alias p cross bottleneck b backwards.
			dsw.AddRoute(s.Addrs()[p], dToW)
			down[b].AddRoute(s.Addrs()[p], tr.Bottlenecks[b].Rev)
			up[b].AddRoute(s.Addrs()[p], uToS)
		}
		tr.S = append(tr.S, s)
		tr.D = append(tr.D, d)
	}

	// Background pairs crossing L3.
	const b = 2
	if cfg.Background > 0 {
		bin := n.NewSwitch("bg-in", LayerEdge)
		bout := n.NewSwitch("bg-out", LayerEdge)
		binToU := n.AddLink("bg-in->u", cfg.EdgeCapacity, cfg.HopDelay, edgeQ(n.Build), up[b], LayerEdge)
		wToBout := n.AddLink("w->bg-out", cfg.EdgeCapacity, cfg.HopDelay, edgeQ(n.Build), bout, LayerEdge)
		boutToW := n.AddLink("bg-out->w", cfg.EdgeCapacity, cfg.HopDelay, edgeQ(n.Build), down[b], LayerEdge)
		uToBin := n.AddLink("u->bg-in", cfg.EdgeCapacity, cfg.HopDelay, edgeQ(n.Build), bin, LayerEdge)
		for k := 0; k < cfg.Background; k++ {
			src := n.NewHost(fmt.Sprintf("bg-s%d", k+1))
			dst := n.NewHost(fmt.Sprintf("bg-d%d", k+1))
			n.AttachHost(src, bin, cfg.EdgeCapacity, cfg.HopDelay, edgeQ, LayerEdge)
			n.AttachHost(dst, bout, cfg.EdgeCapacity, cfg.HopDelay, edgeQ, LayerEdge)
			bin.AddRoute(dst.PrimaryAddr(), binToU)
			up[b].AddRoute(dst.PrimaryAddr(), tr.Bottlenecks[b].Fwd)
			down[b].AddRoute(dst.PrimaryAddr(), wToBout)
			bout.AddRoute(src.PrimaryAddr(), boutToW)
			down[b].AddRoute(src.PrimaryAddr(), tr.Bottlenecks[b].Rev)
			up[b].AddRoute(src.PrimaryAddr(), uToBin)
			tr.BG = append(tr.BG, HostPair{Src: src, Dst: dst})
		}
	}
	return tr
}
