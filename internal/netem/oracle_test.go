package netem

import (
	"fmt"
	"slices"
	"testing"

	"xmp/internal/sim"
)

// This file is the test oracle for resolved forwarding: the hop-by-hop walk
// through the switches' routing tables that packets took before each one
// carried its path. Product code keeps no such walk — Switch.Receive panics
// — so a test builds its graph twice, once as the simulator does and once
// with a walker wherever a link feeds a switch, and compares a stamped
// packet on the first with an unstamped one on the second.

// hopByHop is the oracle's state: the links each packet has been forwarded
// onto past its first. A nil *hopByHop builds the product graph.
type hopByHop struct{ trail map[*Packet][]*Link }

func newHopByHop() *hopByHop { return &hopByHop{trail: map[*Packet][]*Link{}} }

// into returns what a link into sw feeds: sw in the product graph, a walker
// forwarding by sw's table in the oracle's.
func (o *hopByHop) into(sw *Switch) Receiver {
	if o == nil {
		return sw
	}
	return &walker{sw: sw, o: o}
}

// hops returns the names of the links p crossed after leaving on nic.
func (o *hopByHop) hops(nic *Link, p *Packet) []string {
	return linkNames(append([]*Link{nic}, o.trail[p]...))
}

// walker forwards as a switch did before paths: it looks the packet's
// destination up in the table and sends it on, or drops it when there is no
// route or this would be the initialTTL-th switch to forward it.
type walker struct {
	sw *Switch
	o  *hopByHop
}

func (w *walker) Receive(p *Packet) {
	next := w.sw.Route(p.Dst)
	if next == nil || len(w.o.trail[p]) >= initialTTL-1 {
		p.Release()
		return
	}
	w.o.trail[p] = append(w.o.trail[p], next)
	next.Send(p)
}

func linkNames(links []*Link) []string {
	out := make([]string, len(links))
	for i, l := range links {
		out[i] = l.Name
	}
	return out
}

// landed is where and when the last probe of a graph ended.
type landed struct {
	eng   *sim.Engine
	name  string // "" while the probe has not arrived (or was dropped)
	owner bool   // the receiving host owns the probe's destination
	at    sim.Time
}

// landing records arrivals into a landed: as host h's endpoint, or as a
// sink that is no host when h is nil.
type landing struct {
	l *landed
	h *Host
}

func (e landing) Deliver(p *Packet) {
	e.l.at, e.l.name, e.l.owner = e.l.eng.Now(), "sink", false
	if e.h != nil {
		e.l.name, e.l.owner = e.h.Name, slices.Contains(e.h.Addrs(), p.Dst)
	}
}

func (e landing) Receive(p *Packet) { e.Deliver(p) }

// fuzzGraph is a small forwarding graph read from fuzz bytes: one to four
// switches, one to four hosts with one or two addresses each, and a sink
// that is neither. Every host registers connection 1 at slot 1, so a probe
// stamped with both demuxes wherever it lands.
type fuzzGraph struct {
	eng   *sim.Engine
	hosts []*Host
	nAddr int
	land  *landed
}

// buildFuzzGraph builds the graph data describes — bytes past its end read
// as zero — as the product (o nil) or the oracle builds it; both builds of
// one input name every link alike. The bytes are: switch count, host
// count, each host's address count, each host's NIC (target node, delay),
// then for every switch and every address from 0 to one past the last a
// route byte (0: none, else the target node plus one) followed by a delay
// byte whenever the route opens a new link. Nodes are numbered switches
// first, then hosts, then the sink.
func buildFuzzGraph(data []byte, o *hopByHop) *fuzzGraph {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	eng := sim.NewEngine()
	g := &fuzzGraph{eng: eng, land: &landed{eng: eng}}
	nSw, nHost := 1+next()%4, 1+next()%4
	var nodes []Receiver
	switches := make([]*Switch, nSw)
	for i := range switches {
		switches[i] = NewSwitch(NodeID(i), fmt.Sprintf("s%d", i), LayerTestRack)
		nodes = append(nodes, o.into(switches[i]))
	}
	for i := 0; i < nHost; i++ {
		h := NewHost(eng, NodeID(nSw+i), fmt.Sprintf("h%d", i))
		for n := 1 + next()%2; n > 0; n-- {
			g.nAddr++
			h.AddAddr(Addr(g.nAddr))
		}
		h.Register(1, landing{g.land, h})
		g.hosts = append(g.hosts, h)
		nodes = append(nodes, h)
	}
	nodes = append(nodes, landing{l: g.land})
	link := func(from string, to int) *Link {
		delay := sim.Duration(1+next()%50) * sim.Microsecond
		return NewLink(eng, fmt.Sprintf("%s->n%d", from, to), Gbps, delay, NewDropTail(4), nodes[to])
	}
	for _, h := range g.hosts {
		h.AttachNIC(link(h.Name, next()%len(nodes)))
	}
	for _, sw := range switches {
		out := make([]*Link, len(nodes))
		for a := 0; a <= g.nAddr+1; a++ {
			b := next() % (len(nodes) + 1)
			if b == 0 {
				continue
			}
			if out[b-1] == nil {
				out[b-1] = link(sw.Name, b-1)
			}
			sw.AddRoute(Addr(a), out[b-1])
		}
	}
	return g
}

// send sends one probe from host i to a, stamped with pa (nil: unstamped),
// runs the graph dry and returns the probe and how long it took to land.
func (g *fuzzGraph) send(i int, a Addr, pa *Path) (*Packet, sim.Duration) {
	h := g.hosts[i]
	p := NewDataPacket(1, h.PrimaryAddr(), a, 0, MSS, false)
	p.Slot = 1
	p.SetPath(pa)
	*g.land = landed{eng: g.eng}
	start := g.eng.Now()
	h.Send(p)
	g.eng.Run(sim.MaxTime)
	return p, g.land.at.Sub(start)
}

// FuzzResolvePath: on any small graph — missing routes, routing loops,
// routes into a sink or into a host that does not own the address — PathTo
// from every host to every address is exactly what the oracle's walk does:
// the same links, landing at the same time on the same host, or nil when
// the walked packet is dropped or lands anywhere but at an owner.
func FuzzResolvePath(f *testing.F) {
	// Two switches routing address 1 to each other: a loop.
	f.Add([]byte{1, 0, 0, 0, 3, 0, 2, 5, 0, 0, 1, 7, 0})
	// One switch, two hosts, no route to the second host's address.
	f.Add([]byte{0, 1, 0, 0, 0, 4, 0, 9, 0, 2, 2, 0, 0})
	// The same switch routing address 0 to a host that does not own it,
	// both host addresses home, and the address past the last into the sink.
	f.Add([]byte{0, 1, 0, 0, 0, 4, 0, 9, 3, 6, 2, 2, 3, 4, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		walked := newHopByHop()
		product, oracle := buildFuzzGraph(data, nil), buildFuzzGraph(data, walked)
		for i, h := range product.hosts {
			for a := Addr(0); a <= Addr(product.nAddr+1); a++ {
				pa := h.PathTo(a)
				p, took := oracle.send(i, a, nil)
				walk, end := walked.hops(oracle.hosts[i].NIC(), p), oracle.land.name
				if !oracle.land.owner {
					if pa != nil {
						t.Fatalf("%s to %d: PathTo = %v, but the walk %v ends at %q, no owner", h.Name, a, linkNames(pa.hops), walk, end)
					}
					continue
				}
				if pa == nil {
					t.Fatalf("%s to %d: PathTo = nil, but the walk %v lands at owner %s", h.Name, a, walk, end)
				}
				if got := linkNames(pa.hops); !slices.Equal(got, walk) {
					t.Fatalf("%s to %d: PathTo = %v, the walk crosses %v", h.Name, a, got, walk)
				}
				if _, tookPath := product.send(i, a, pa); product.land.name != end || tookPath != took {
					t.Fatalf("%s to %d: the stamped packet lands at %q after %v, the walked one at %q after %v",
						h.Name, a, product.land.name, tookPath, end, took)
				}
			}
		}
	})
}
