// Package topo builds the simulated networks of the paper's evaluation:
// the single-bottleneck dumbbell of Figure 1 (with four host pairs, also
// the Figure 3(b) fairness testbed), the two-bottleneck DummyNet testbed of
// Figure 3(a), the five-bottleneck torus of Figure 5, and the k-ary Fat-Tree
// with two-level routing and multi-address hosts of Section 5.2.
package topo

import (
	"fmt"

	"xmp/internal/netem"
	"xmp/internal/sim"
)

// Link layer labels used for utilization reporting (Figure 11).
const (
	LayerRack        = "rack"
	LayerAggregation = "aggregation"
	LayerCore        = "core"
	LayerEdge        = "edge"       // host-side plumbing in small topologies
	LayerBottleneck  = "bottleneck" // the constrained links in small topologies
)

// QueueMaker builds a fresh queue discipline for each link egress. The
// build arena (nil-safe; see netem.BuildArena) lets the standard makers
// batch queue allocations with the rest of topology construction; makers
// that don't care may ignore it.
type QueueMaker func(ba *netem.BuildArena) netem.Queue

// DropTailMaker returns a QueueMaker producing drop-tail queues of the
// given limit.
func DropTailMaker(limit int) QueueMaker {
	return func(ba *netem.BuildArena) netem.Queue { return ba.NewDropTail(limit) }
}

// ECNMaker returns a QueueMaker producing instantaneous-threshold marking
// queues (limit packets, marking threshold k). Non-ECT packets use the
// whole buffer (tail drop only).
func ECNMaker(limit, k int) QueueMaker {
	return func(ba *netem.BuildArena) netem.Queue { return ba.NewThresholdECN(limit, k) }
}

// DefaultHostQueue is the drop-tail depth of host NICs; deep enough that
// the constrained switch queues, not the hosts, shape the experiments.
const DefaultHostQueue = 4096

// LinkInfo records a constructed link with its layer label.
type LinkInfo struct {
	*netem.Link
	Layer string
}

// Network owns the nodes, links and identifier spaces of one simulated
// topology.
type Network struct {
	Eng      *sim.Engine
	Hosts    []*netem.Host
	Switches []*netem.Switch
	links    []LinkInfo

	// Pool recycles packets across all hosts of this network. It is as
	// single-threaded as the engine: pooled packets never leave this
	// topology, so parallel experiment runs (one network each) need no
	// locking.
	Pool *netem.PacketPool
	// Paths arena-allocates resolved forwarding paths for all hosts of
	// this network (see netem.PathStore).
	Paths *netem.PathStore
	// Build batches the construction-time allocations — device structs and
	// queue rings — of everything created through this network (see
	// netem.BuildArena).
	Build *netem.BuildArena

	// gotAtReset is the pool's packet count (fresh + recycled) when the
	// network was last Reset: the drain audit's baseline.
	gotAtReset int64

	addrHost map[netem.Addr]*netem.Host
	nextAddr netem.Addr
	nextConn netem.ConnID
	nextNode netem.NodeID
}

// NewNetwork returns an empty network bound to eng.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{
		Eng:      eng,
		Pool:     netem.NewPacketPool(),
		Paths:    &netem.PathStore{},
		Build:    &netem.BuildArena{},
		addrHost: make(map[netem.Addr]*netem.Host),
		nextAddr: 1, // 0 is reserved as "unset"
		nextConn: 1,
	}
}

// Reset returns the network to its state when built: empty calendar at
// time zero, idle empty links, no connections, counters zero. Switch tables
// and resolved paths (routing is static) and the warm pools carry over.
func (n *Network) Reset() {
	n.gotAtReset = n.Pool.Allocs() + n.Pool.Recycles()
	n.Eng.Reset()
	for _, li := range n.links {
		li.Reset()
	}
	for _, h := range n.Hosts {
		h.Reset()
	}
	n.nextConn = 1
}

// NewHost creates and registers a host with one primary address. The host
// shares the network-wide packet pool.
func (n *Network) NewHost(name string) *netem.Host {
	n.nextNode++
	h := n.Build.NewHost(n.Eng, n.nextNode, name)
	h.SetPacketPool(n.Pool)
	h.SetPathStore(n.Paths)
	n.Hosts = append(n.Hosts, h)
	n.AddAddr(h)
	return h
}

// NewSwitch creates and registers a switch tagged with a layer.
func (n *Network) NewSwitch(name, layer string) *netem.Switch {
	n.nextNode++
	s := n.Build.NewSwitch(n.nextNode, name, layer)
	n.Switches = append(n.Switches, s)
	return s
}

// AddAddr allocates a fresh address and attaches it to h.
func (n *Network) AddAddr(h *netem.Host) netem.Addr {
	a := n.nextAddr
	n.nextAddr++
	h.AddAddr(a)
	n.addrHost[a] = h
	n.Paths.GrowAddrSpace(a)
	return a
}

// HostByAddr resolves an address to its owner.
func (n *Network) HostByAddr(a netem.Addr) *netem.Host { return n.addrHost[a] }

// ReserveRoutes pre-sizes every switch's forwarding table for the addresses
// allocated so far. Builders call it after creating all hosts and before
// the bulk route-install loops, so installs never regrow tables.
func (n *Network) ReserveRoutes() {
	for _, s := range n.Switches {
		s.Reserve(n.nextAddr - 1)
	}
}

// NextConnID allocates a connection identifier.
func (n *Network) NextConnID() netem.ConnID {
	id := n.nextConn
	n.nextConn++
	return id
}

// AddLink builds a link, registers it under the given layer label and
// returns it.
func (n *Network) AddLink(name string, capacity netem.Bps, delay sim.Duration, q netem.Queue, dst netem.Receiver, layer string) *netem.Link {
	l := n.Build.NewLink(n.Eng, name, capacity, delay, q, dst)
	n.links = append(n.links, LinkInfo{Link: l, Layer: layer})
	return l
}

// AttachHost wires h to sw with a bidirectional pair of links: the host
// NIC (host->switch) and the switch port (switch->host). Both use the
// given capacity, one-way delay, and queue discipline — matching NS-3,
// where the queue (the paper's marking queue) is installed on every
// point-to-point device, host NICs included. Without marking at the NIC a
// sender on an end-to-end equal-speed path would never see congestion
// feedback until its self-inflicted NIC backlog overflows.
func (n *Network) AttachHost(h *netem.Host, sw *netem.Switch, capacity netem.Bps, delay sim.Duration, qm QueueMaker, layer string) {
	nic := n.AddLink(h.Name+"->"+sw.Name, capacity, delay, qm(n.Build), sw, layer)
	h.AttachNIC(nic)
	down := n.AddLink(sw.Name+"->"+h.Name, capacity, delay, qm(n.Build), h, layer)
	for _, a := range h.Addrs() {
		sw.AddRoute(a, down)
	}
}

// RouteHostAddrs adds routes on sw for every address of h via out. Used
// when a host hangs off a different switch.
func RouteHostAddrs(sw *netem.Switch, h *netem.Host, out *netem.Link) {
	for _, a := range h.Addrs() {
		sw.AddRoute(a, out)
	}
}

// Links returns every link with its layer label.
func (n *Network) Links() []LinkInfo { return n.links }

// LinksByLayer returns the links labelled with layer.
func (n *Network) LinksByLayer(layer string) []*netem.Link {
	var out []*netem.Link
	for _, li := range n.links {
		if li.Layer == layer {
			out = append(out, li.Link)
		}
	}
	return out
}

// CheckDrained panics unless the network is empty, as a finished cell must
// leave it: no pending event, every Event the engine carved back for
// reuse and every lane empty, no queued packet, every pooled packet freed,
// no packet arrived for a connection its host did not know — and every
// connection still registered passes its own audit (netem.Auditor), and
// then so does each of also (a cell passes its flow arena).
//
// Packets are conserved: every packet a link's queue took was serialized
// or flushed by SetDown, and summed over the fabric, the packets offered
// to links (enqueued, dropped by a queue, refused while down) are those
// hosts took from the pool since Reset plus those links forwarded to
// another link. No per-hop counter pays for this.
func (n *Network) CheckDrained(also ...netem.Auditor) {
	if p := n.Eng.Pending(); p != 0 {
		panic(fmt.Sprintf("topo: %d events pending after the run", p))
	}
	if carved, retired, inLanes := n.Eng.Balance(); retired != carved || inLanes != 0 {
		panic(fmt.Sprintf("topo: engine retired %d of %d carved events and holds %d in lanes after the run", retired, carved, inLanes))
	}
	for _, li := range n.links {
		if q := li.Queue().Len(); q != 0 {
			panic(fmt.Sprintf("topo: %d packets left queued on %s", q, li.Name))
		}
	}
	if free, allocs := n.Pool.FreeLen(), n.Pool.Allocs(); int64(free) != allocs {
		panic(fmt.Sprintf("topo: %d of %d pooled packets never released", allocs-int64(free), allocs))
	}
	for _, h := range n.Hosts {
		if h.Misdelivered != 0 {
			panic(fmt.Sprintf("topo: host %s misdelivered %d packets", h.Name, h.Misdelivered))
		}
		h.Audit()
	}
	for _, a := range also {
		a.Audit()
	}
	var offered, forwarded int64
	for _, li := range n.links {
		st := li.Queue().Stats()
		downOffered, flushed, serializedDown := li.DownLosses()
		if st.EnqueuedPackets != li.TxPackets()+flushed {
			panic(fmt.Sprintf("topo: %s enqueued %d packets but serialized %d and flushed %d",
				li.Name, st.EnqueuedPackets, li.TxPackets(), flushed))
		}
		offered += st.EnqueuedPackets + st.DroppedPackets + downOffered
		if _, toHost := li.Dst().(*netem.Host); !toHost {
			forwarded += li.TxPackets() - serializedDown
		}
	}
	if sent := n.Pool.Allocs() + n.Pool.Recycles() - n.gotAtReset; offered != sent+forwarded {
		panic(fmt.Sprintf("topo: links were offered %d packets, but hosts sent %d and links forwarded %d",
			offered, sent, forwarded))
	}
}
