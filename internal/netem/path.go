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

// PathStore resolves and caches the forwarding paths of one network. Its
// cache is keyed by (source NIC, destination address) and holds the pairs
// the run has resolved, nothing for the rest of the address space: a k=8
// fat-tree's 128 hosts × 2,048 addresses would be 2 MB of mostly-nil
// per-host tables, 8·k⁶ bytes in general. Path structs come from a slab
// and hop arrays are carved from fixed-size chunks, so resolving a path is
// at most one amortized allocation, and no outgrown backing is kept alive.
// Single-threaded, like the network that owns it.
type PathStore struct {
	slab arena.Slab[Path]
	// hops is the unused tail of the chunk hop arrays are carved from.
	hops  []*Link
	cache map[pathKey]*Path
}

// pathKey identifies a resolved path: where it starts and where it goes.
type pathKey struct {
	nic *Link
	dst Addr
}

// hopChunk is the size of a hop-array chunk (see carve): 8192 pointers
// (64 KB, as ringChunk), about 1,360 six-link fat-tree paths.
const hopChunk = 8192

// pathHint sizes the cache on its first path: growing a map from empty
// allocates at every doubling, and a k=8 fabric resolves thousands of
// pairs (about 15,000 in one pass of the shortflow-k8 benchmark).
const pathHint = 256

// SetPathStore wires the store that resolves and caches this host's paths.
// Topology builders install one store per network; a host without one
// (hand-built in tests) gets a private store on its first resolution.
func (h *Host) SetPathStore(ps *PathStore) { h.pathStore = ps }

// PathTo resolves and caches the forwarding path from this host's NIC to
// dst. Returns nil when no complete path exists (no NIC, missing route,
// routing loop, or the walk ends somewhere other than a host owning dst);
// a connection refuses to be set up without one. A path, once found, is
// cached in the network's PathStore, so every later lookup of the pair —
// also after Network.Reset — returns the same *Path: AddRoute never
// replaces a route, so no later install changes it. A miss is not cached,
// since the missing route may be installed yet.
func (h *Host) PathTo(dst Addr) *Path {
	if dst < 0 || h.nic == nil {
		return nil
	}
	if h.pathStore == nil {
		h.pathStore = new(PathStore)
	}
	ps, key := h.pathStore, pathKey{h.nic, dst}
	if pa, ok := ps.cache[key]; ok {
		return pa
	}
	pa := ps.resolve(h.nic, dst)
	if pa != nil {
		if ps.cache == nil {
			ps.cache = make(map[pathKey]*Path, pathHint)
		}
		ps.cache[key] = pa
	}
	return pa
}

// resolve walks the static routing tables from nic toward dst. The walk
// visits at most initialTTL nodes, so a routing loop resolves to nil rather
// than hanging. Hops accumulate on the stack and are copied into the
// current chunk on success.
func (ps *PathStore) resolve(nic *Link, dst Addr) *Path {
	var buf [initialTTL + 1]*Link
	hops := append(buf[:0], nic)
	cur := nic.Dst()
	for i := 0; i < initialTTL; i++ {
		switch n := cur.(type) {
		case *Switch:
			next := n.Route(dst)
			if next == nil {
				return nil
			}
			hops = append(hops, next)
			cur = next.Dst()
		case *Host:
			for _, a := range n.addrs {
				if a == dst {
					return ps.newPath(hops)
				}
			}
			return nil
		default:
			// A test sink or hand-rolled receiver: no host owns dst here.
			return nil
		}
	}
	return nil
}

// newPath copies hops into the current chunk and returns a Path over the
// copy.
func (ps *PathStore) newPath(hops []*Link) *Path {
	pa := ps.slab.Get()
	pa.hops = carve(&ps.hops, len(hops), hopChunk)
	copy(pa.hops, hops)
	return pa
}
