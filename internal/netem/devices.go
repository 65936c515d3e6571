package netem

import (
	"xmp/internal/arena"

	"xmp/internal/sim"
)

// BuildArena batches the long-lived allocations of topology construction.
// A k=8 fat-tree builds ~770 links, each carrying a queue struct and a
// fixed-capacity packet ring, plus ~200 nodes; allocated one by one they
// dominate the setup cost of a campaign that constructs a fresh network per
// run. The arena slabs the device structs (see arena.Slab) and carves the
// queue rings out of shared backing arrays, collapsing thousands of small
// allocations into a few dozen chunk allocations.
//
// Devices live exactly as long as their topology and are never freed, which
// is the regime slabs are built for. Like the packet pool, a BuildArena is
// strictly single-threaded and owned by one network; parallel experiment
// runs each own their own.
//
// All methods are nil-safe: a nil *BuildArena falls back to the plain
// constructors, so code paths without a network-owned arena need no
// branches.
type BuildArena struct {
	links     arena.Slab[Link]
	hosts     arena.Slab[Host]
	switches  arena.Slab[Switch]
	dropTails arena.Slab[DropTail]
	ecns      arena.Slab[ThresholdECN]
	rings     []*Packet
	ports     []*Link
}

// ringChunk is the growth quantum of the shared ring backing: 8192 pointers
// (64 KB), 64 switch queues at the default limit of 100 packets.
const ringChunk = 8192

// ring carves the ring newFIFO would allocate for limit from the shared
// backing. Only the fixed-limit disciplines use it: DropTail and
// ThresholdECN reject arrivals once count reaches their limit, so the ring
// never grows and fifo.push never reallocates it (growth would be harmless
// — the fifo would simply stop sharing the backing — but wasteful).
func (ba *BuildArena) ring(limit int) []*Packet {
	return carve(&ba.rings, ringLen(limit), ringChunk)
}

// portHint is the egress list every arena-built switch starts with: no
// switch of a k ≤ 8 fat-tree has more ports. portChunk is the size of the
// shared backing those lists are carved from: 1024 pointers (8 KB), a k=8
// fat-tree's 80 switches with room to spare. A larger switch outgrows its
// list by append.
const (
	portHint  = 8
	portChunk = 1024
)

// carve returns a run of n zero T, capped at its length so an append
// through it can never write into the next run, from the unused tail of
// a shared chunk. It starts a new chunk of max(chunk, n) when the tail is
// too short; a run never straddles two chunks, and the short tail is left
// unused.
func carve[T any](tail *[]T, n, chunk int) []T {
	if len(*tail) < n {
		*tail = make([]T, max(chunk, n))
	}
	r := (*tail)[:n:n]
	*tail = (*tail)[n:]
	return r
}

// NewLink is the arena-backed NewLink.
func (ba *BuildArena) NewLink(eng *sim.Engine, name string, capacity Bps, delay sim.Duration, q Queue, dst Receiver) *Link {
	if ba == nil {
		return NewLink(eng, name, capacity, delay, q, dst)
	}
	l := ba.links.Get()
	initLink(l, eng, name, capacity, delay, q, dst)
	return l
}

// NewHost is the arena-backed NewHost.
func (ba *BuildArena) NewHost(eng *sim.Engine, id NodeID, name string) *Host {
	if ba == nil {
		return NewHost(eng, id, name)
	}
	h := ba.hosts.Get()
	initHost(h, eng, id, name)
	return h
}

// NewSwitch is the arena-backed NewSwitch.
func (ba *BuildArena) NewSwitch(id NodeID, name, layer string) *Switch {
	if ba == nil {
		return NewSwitch(id, name, layer)
	}
	s := ba.switches.Get()
	*s = Switch{ID: id, Name: name, Layer: layer, ports: carve(&ba.ports, portHint, portChunk)[:0]}
	return s
}

// NewDropTail is the arena-backed NewDropTail: the struct comes from a slab
// and the ring from the shared backing.
func (ba *BuildArena) NewDropTail(limit int) *DropTail {
	if ba == nil {
		return NewDropTail(limit)
	}
	q := ba.dropTails.Get()
	*q = DropTail{limit: limit, fifo: fifo{buf: ba.ring(limit)}}
	return q
}

// NewThresholdECN is the arena-backed NewThresholdECN.
func (ba *BuildArena) NewThresholdECN(limit, k int) *ThresholdECN {
	if ba == nil {
		return NewThresholdECN(limit, k)
	}
	if k >= limit {
		panic("netem: marking threshold must be below the buffer limit")
	}
	q := ba.ecns.Get()
	*q = ThresholdECN{limit: limit, k: k, fifo: fifo{buf: ba.ring(limit)}}
	return q
}
