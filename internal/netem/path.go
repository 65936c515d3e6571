package netem

import "xmp/internal/arena"

// Path is a fully resolved forwarding path: the ordered sequence of links a
// packet traverses from the source NIC to the destination host. Transports
// resolve the path once at connection setup and stamp it on every packet
// they send; it is the only way a packet crosses a switch, so per-hop
// forwarding is an array index, never a routing-table lookup.
//
// Routing in this simulator is destination-based and static: a switch's
// table never changes once a path through it is resolved, so the path stays
// exact for the lifetime of the run. Link failures need no special handling
// — a resolved hop still goes through Link.Send, which drops on a down link
// (the routing table keeps pointing at the downed link either way).
type Path struct {
	hops []*Link // hops[0] is the source host's NIC
}

// Len returns the number of links on the path.
func (pa *Path) Len() int { return len(pa.hops) }

// Hop returns the i-th link of the path.
func (pa *Path) Hop(i int) *Link { return pa.hops[i] }

// PathStore arena-allocates resolved paths for one network: Path structs
// come from a slab and every path's hop array is a sub-slice of one shared
// backing, so resolving a path is at most one amortized allocation instead
// of a struct plus append-doubling per connection. Single-threaded, like
// the network that owns it.
type PathStore struct {
	slab arena.Slab[Path]
	hops []*Link
	// addrSpace tracks the highest address the topology has allocated, so
	// per-host cache tables are sized once instead of grown per miss.
	addrSpace int
}

// GrowAddrSpace records that addresses up to and including a now exist.
func (ps *PathStore) GrowAddrSpace(a Addr) {
	if n := int(a) + 1; n > ps.addrSpace {
		ps.addrSpace = n
	}
}

// SetPathStore wires the arena that this host's resolved paths and its
// path-cache table are allocated from. Topology builders install one store
// per network; a host without one (hand-built in tests) gets a private
// store on its first resolution.
func (h *Host) SetPathStore(ps *PathStore) { h.pathStore = ps }

// PathTo resolves and caches the forwarding path from this host to dst.
// Returns nil when no complete path exists (no NIC, missing route, routing
// loop, or the walk ends somewhere other than a host owning dst); a
// connection refuses to be set up without one. A path, once found, is
// cached: AddRoute never replaces a route, so no later install changes it.
// A miss is not cached, since the missing route may be installed yet.
func (h *Host) PathTo(dst Addr) *Path {
	if dst < 0 {
		return nil
	}
	if h.pathStore == nil {
		h.pathStore = new(PathStore)
	}
	if int(dst) < len(h.paths) {
		if pa := h.paths[dst]; pa != nil {
			return pa
		}
	} else {
		want := int(dst) + 1
		if h.pathStore.addrSpace > want {
			want = h.pathStore.addrSpace
		}
		grown := make([]*Path, want)
		copy(grown, h.paths)
		h.paths = grown
	}
	pa := resolvePath(h.pathStore, h.nic, dst)
	h.paths[dst] = pa
	return pa
}

// resolvePath walks the static routing tables from nic toward dst. The walk
// visits at most initialTTL nodes, so a routing loop resolves to nil rather
// than hanging. Hops accumulate in the store's shared backing and are carved
// off on success.
func resolvePath(ps *PathStore, nic *Link, dst Addr) *Path {
	if nic == nil || dst < 0 {
		return nil
	}
	start := len(ps.hops)
	ps.hops = append(ps.hops, nic)
	cur := nic.Dst()
	for i := 0; i < initialTTL; i++ {
		switch n := cur.(type) {
		case *Switch:
			next := n.Route(dst)
			if next == nil {
				ps.hops = ps.hops[:start]
				return nil
			}
			ps.hops = append(ps.hops, next)
			cur = next.Dst()
		case *Host:
			for _, a := range n.addrs {
				if a == dst {
					pa := ps.slab.Get()
					// Cap the capacity at the path's own end so an append
					// through pa could never overwrite a later path's hops.
					pa.hops = ps.hops[start:len(ps.hops):len(ps.hops)]
					return pa
				}
			}
			ps.hops = ps.hops[:start]
			return nil
		default:
			// A test sink or hand-rolled receiver: no host owns dst here.
			ps.hops = ps.hops[:start]
			return nil
		}
	}
	ps.hops = ps.hops[:start]
	return nil
}
