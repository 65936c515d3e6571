package netem

import (
	"fmt"

	"xmp/internal/sim"
)

// NodeID identifies a node (host or switch) within a topology.
type NodeID int32

// Endpoint is the transport-layer object a host delivers packets to; the
// TCP connection type in internal/transport implements it.
type Endpoint interface {
	Deliver(p *Packet)
}

// Auditor checks its own state and panics on an inconsistency. Host.Audit
// runs every registered Endpoint that is one; a drained network runs the
// ones it is handed (a cell's flow arena).
type Auditor interface {
	Audit()
}

// Switch is an output-queued switch: a static forwarding table maps every
// destination address to an egress link. Topology builders compute the
// tables (two-level lookup for the Fat-Tree); PathTo reads them once per
// (host, destination), and packets then cross the switch along that path.
// Addresses are small, dense integers assigned contiguously from 1, so the
// table is a flat slice indexed by Addr.
type Switch struct {
	ID    NodeID
	Name  string
	table []*Link // indexed by Addr; nil = no route
	// Layer tags the switch for per-layer utilization reporting
	// ("core", "aggregation", "rack").
	Layer string
}

// NewSwitch returns an empty switch.
func NewSwitch(id NodeID, name, layer string) *Switch {
	return &Switch{ID: id, Name: name, Layer: layer}
}

// AddRoute installs dst -> out. Installing a second route for the same
// destination panics: topology construction bugs should fail loudly.
func (s *Switch) AddRoute(dst Addr, out *Link) {
	if dst < 0 {
		panic(fmt.Sprintf("netem: negative addr %d on %s", dst, s.Name))
	}
	if int(dst) >= len(s.table) {
		// Builders install addresses in ascending order, so grow with
		// headroom — exact-size growth would copy the table once per
		// install, O(n²) over topology construction.
		grown := make([]*Link, 1+int(dst)+int(dst)/2)
		copy(grown, s.table)
		s.table = grown
	}
	if s.table[dst] != nil {
		panic(fmt.Sprintf("netem: duplicate route for addr %d on %s", dst, s.Name))
	}
	s.table[dst] = out
}

// Reserve pre-sizes the forwarding table for addresses up to and including
// maxAddr. Topology builders call it once after allocating the address
// space, so the install loops never regrow the table (AddRoute's amortized
// doubling remains as the safety net for out-of-order installs).
func (s *Switch) Reserve(maxAddr Addr) {
	if n := 1 + int(maxAddr); n > len(s.table) {
		grown := make([]*Link, n)
		copy(grown, s.table)
		s.table = grown
	}
}

// Route returns the egress link for dst, or nil.
func (s *Switch) Route(dst Addr) *Link {
	if dst < 0 || int(dst) >= len(s.table) {
		return nil
	}
	return s.table[dst]
}

// EgressLinks returns the distinct egress links installed in the
// forwarding table, in first-install order. The chaos layer uses it to
// fail a whole switch by downing every attached link. Allocates; not for
// per-packet paths.
func (s *Switch) EgressLinks() []*Link {
	var out []*Link
	seen := make(map[*Link]bool, 8)
	for _, l := range s.table {
		if l != nil && !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// Receive implements Receiver so links can feed a switch. Every packet
// crosses a switch on its resolved path (Link.OnEvent), so one that reaches
// Receive was sent without a path: a bug, and a panic.
func (s *Switch) Receive(p *Packet) {
	panic(fmt.Sprintf("netem: packet without a resolved path reached switch %s: %s", s.Name, p))
}

// Host models an end system: it owns one or more addresses, one NIC (an
// egress Link toward its switch), and a demultiplexer from demux slot to the
// transport endpoints terminating here.
type Host struct {
	ID    NodeID
	Name  string
	addrs []Addr
	nic   *Link
	eng   *sim.Engine
	pool  *PacketPool

	// Slot-indexed demux: Register hands each endpoint a dense slot, the
	// sender stamps it on every packet (Packet.Slot), and delivery is two
	// array loads. Slot 0 is reserved as "no slot".
	conns   []Endpoint // indexed by slot; nil after Unregister
	connIDs []ConnID   // indexed by slot; guards stale slot stamps
	// lastID is the highest ConnID registered since the host was built or
	// Reset: IDs ascend (see Register), so one at or below it is a duplicate.
	lastID ConnID
	// freeSlots recycles retired demux slots so a run that churns through
	// short flows keeps its slot tables at the concurrent-connection high
	// water mark instead of growing per connection ever created.
	freeSlots []int32

	// paths caches resolved forwarding paths indexed by destination
	// address (see PathTo in path.go); nil = none yet. pathStore
	// arena-allocates the Path structs and hop arrays; the topology
	// builder wires one per network.
	paths     []*Path
	pathStore *PathStore

	// Misdelivered counts packets that arrived for a connection this host
	// doesn't know (e.g. packets in flight when a connection closed).
	Misdelivered int64
}

// NewHost returns a host with no NIC attached yet.
func NewHost(eng *sim.Engine, id NodeID, name string) *Host {
	h := &Host{}
	initHost(h, eng, id, name)
	return h
}

// demuxHint pre-sizes each host's slot tables for the typical
// concurrent-connection population: active conns plus arena-quarantined
// ones. Growing these lazily from empty costs several allocations per host
// per run across the append-doubling chains; a host exceeding the hint just
// grows past it.
const demuxHint = 32

// initHost is the shared constructor body behind NewHost and the
// BuildArena variant.
func initHost(h *Host, eng *sim.Engine, id NodeID, name string) {
	conns := make([]Endpoint, 1, demuxHint)
	connIDs := make([]ConnID, 1, demuxHint)
	connIDs[0] = -1
	*h = Host{
		ID: id, Name: name, eng: eng,
		// Room for the primary address plus the subflow aliases of the
		// multi-address fat-tree hosts without append growth.
		addrs:   make([]Addr, 0, 4),
		conns:   conns, // slot 0 reserved
		connIDs: connIDs,
	}
}

// Reset forgets every connection and the misdelivery count, and accepts
// connection IDs from 1 again. The resolved paths stay: routing is static,
// so a cached Path remains exact.
func (h *Host) Reset() {
	clear(h.conns)
	h.conns, h.connIDs, h.freeSlots = h.conns[:1], h.connIDs[:1], h.freeSlots[:0]
	h.lastID = 0
	h.Misdelivered = 0
}

// AttachNIC sets the host's egress link.
func (h *Host) AttachNIC(nic *Link) { h.nic = nic }

// NIC returns the host's egress link.
func (h *Host) NIC() *Link { return h.nic }

// AddAddr registers an address owned by this host. The first address added
// is the primary address.
func (h *Host) AddAddr(a Addr) { h.addrs = append(h.addrs, a) }

// Addrs returns all addresses owned by the host; index 0 is primary. The
// returned slice must not be modified.
func (h *Host) Addrs() []Addr { return h.addrs }

// PrimaryAddr returns the host's first address.
func (h *Host) PrimaryAddr() Addr {
	if len(h.addrs) == 0 {
		panic("netem: host has no addresses")
	}
	return h.addrs[0]
}

// Register binds a connection ID to a local endpoint and returns the demux
// slot senders stamp on its packets (Packet.Slot). IDs ascend per host
// between Resets, as one network's NextConnID hands them out; an ID at or
// below the last is a duplicate and panics.
func (h *Host) Register(id ConnID, ep Endpoint) int32 {
	if id <= h.lastID {
		panic(fmt.Sprintf("netem: conn %d registered on host %s after conn %d: duplicate or out-of-order ID", id, h.Name, h.lastID))
	}
	h.lastID = id
	var slot int32
	if n := len(h.freeSlots); n > 0 {
		slot = h.freeSlots[n-1]
		h.freeSlots = h.freeSlots[:n-1]
		h.conns[slot] = ep
		h.connIDs[slot] = id
	} else {
		slot = int32(len(h.conns))
		h.conns = append(h.conns, ep)
		h.connIDs = append(h.connIDs, id)
	}
	return slot
}

// Unregister removes the binding Register made of id at slot and recycles
// the slot; it does nothing unless slot still holds id. Reuse is safe
// against stale stamps: a packet carrying a reused slot number fails the
// ConnID check (the slot now holds a different connection) and counts as
// misdelivered, so it can never reach a different connection.
func (h *Host) Unregister(id ConnID, slot int32) {
	if slot > 0 && int(slot) < len(h.connIDs) && h.connIDs[slot] == id {
		h.conns[slot] = nil
		h.connIDs[slot] = -1
		h.freeSlots = append(h.freeSlots, slot)
	}
}

// Audit calls Audit on every registered endpoint that is an Auditor.
func (h *Host) Audit() {
	for _, ep := range h.conns {
		if a, ok := ep.(Auditor); ok {
			a.Audit()
		}
	}
}

// Send transmits a packet out of the host NIC.
func (h *Host) Send(p *Packet) {
	if h.nic == nil {
		panic("netem: host has no NIC")
	}
	h.nic.Send(p)
}

// Receive implements Receiver: demultiplex to the owning endpoint. The
// host is every packet's terminal sink: once Deliver returns the transport
// has copied what it needs, so the packet is released to its pool here.
// Endpoints must not retain pooled packets past Deliver.
func (h *Host) Receive(p *Packet) {
	// The packet is leaving the network: settle its sender's in-flight
	// count before delivery, so a flow completed by the ACK this packet
	// carries observes zero in-flight and is immediately recyclable.
	p.dropOwner()
	// The sender stamped the demux slot at connection setup; the ConnID
	// check rejects a stamp the slot no longer answers to (the connection
	// unregistered, or the slot was recycled).
	if s := p.Slot; s > 0 && int(s) < len(h.conns) && h.connIDs[s] == p.Conn {
		h.conns[s].Deliver(p)
	} else {
		h.Misdelivered++
	}
	p.Release()
}

// SetPacketPool wires the pool packets sent by this host's transports are
// allocated from. Topology builders install one pool per network.
func (h *Host) SetPacketPool(pl *PacketPool) { h.pool = pl }

// PacketPool returns the host's pool; nil (plain allocation) when none was
// installed. Safe to call methods on the nil result.
func (h *Host) PacketPool() *PacketPool { return h.pool }

// Engine returns the event engine the host is bound to.
func (h *Host) Engine() *sim.Engine { return h.eng }
