package topo_test

import (
	"slices"
	"testing"

	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
)

// walk is the oracle FuzzResolvePath uses, over the exported tables: the
// hop-by-hop Switch.Route walk from h's NIC toward dst, nil unless it ends
// at a host owning dst within 64 nodes (netem's initial TTL).
func walk(h *netem.Host, dst netem.Addr) []*netem.Link {
	hops := []*netem.Link{h.NIC()}
	cur := h.NIC().Dst()
	for range 64 {
		switch n := cur.(type) {
		case *netem.Switch:
			next := n.Route(dst)
			if next == nil {
				return nil
			}
			hops = append(hops, next)
			cur = next.Dst()
		case *netem.Host:
			if slices.Contains(n.Addrs(), dst) {
				return hops
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

// shippedTopologies builds every topology a campaign runs on.
func shippedTopologies() map[string]*topo.Network {
	ecn := topo.ECNMaker(100, 10)
	k4 := topo.DefaultFatTreeConfig(ecn)
	k4.K = 4
	return map[string]*topo.Network{
		"fat-tree k=4": topo.NewFatTree(sim.NewEngine(), k4).Network,
		"fat-tree k=8": topo.NewFatTree(sim.NewEngine(), topo.DefaultFatTreeConfig(ecn)).Network,
		"VL2":          topo.NewVL2(sim.NewEngine(), topo.DefaultVL2Config(ecn)).Network,
		"dumbbell": topo.NewDumbbell(sim.NewEngine(), topo.DumbbellConfig{
			Pairs: 4, BottleneckCapacity: netem.Gbps, EdgeCapacity: netem.Gbps,
			HopDelay: 37500 * sim.Nanosecond, BottleneckQueue: ecn,
			EdgeQueue: topo.DropTailMaker(topo.DefaultHostQueue),
		}).Network,
		"Testbed A": topo.NewTestbedA(sim.NewEngine(), topo.TestbedAConfig{
			BottleneckCapacity: 300 * netem.Mbps, HopDelay: 225 * sim.Microsecond,
			BottleneckQueue: ecn, Background: 2,
		}).Network,
		"torus": topo.NewTorus(sim.NewEngine(), topo.TorusConfig{
			Capacities:   []netem.Bps{800 * netem.Mbps, 1200 * netem.Mbps, 2 * netem.Gbps, 1500 * netem.Mbps, 500 * netem.Mbps},
			EdgeCapacity: 10 * netem.Gbps, HopDelay: 35 * sim.Microsecond,
			BottleneckQueue: ecn, Background: 4,
		}).Network,
	}
}

// TestPathToMatchesWalkOnShippedTopologies: on every shipped topology,
// PathTo from every host to every address — and to the unassigned
// addresses 0 and one past the last — is the hop-by-hop walk, a second
// lookup returns the same *Path, and so does one after Network.Reset.
func TestPathToMatchesWalkOnShippedTopologies(t *testing.T) {
	for name, n := range shippedTopologies() {
		t.Run(name, func(t *testing.T) {
			dsts := []netem.Addr{0}
			for _, h := range n.Hosts {
				dsts = append(dsts, h.Addrs()...)
			}
			dsts = append(dsts, slices.Max(dsts)+1)
			resolved := make(map[[2]int]*netem.Path)
			for i, h := range n.Hosts {
				for _, a := range dsts {
					pa, want := h.PathTo(a), walk(h, a)
					if (pa == nil) != (want == nil) {
						t.Fatalf("%s to %d: PathTo = %v, walk = %v", h.Name, a, pa, want)
					}
					if pa == nil {
						continue
					}
					got := make([]*netem.Link, pa.Len())
					for j := range got {
						got[j] = pa.Hop(j)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s to %d: PathTo crosses %v, the walk %v", h.Name, a, names(got), names(want))
					}
					if h.PathTo(a) != pa {
						t.Fatalf("%s to %d: a second lookup resolved a new path", h.Name, a)
					}
					resolved[[2]int{i, int(a)}] = pa
				}
			}
			n.Reset()
			for key, pa := range resolved {
				if h := n.Hosts[key[0]]; h.PathTo(netem.Addr(key[1])) != pa {
					t.Fatalf("%s to %d: Network.Reset dropped the resolved path", h.Name, key[1])
				}
			}
		})
	}
}

func names(links []*netem.Link) []string {
	out := make([]string, len(links))
	for i, l := range links {
		out[i] = l.Name
	}
	return out
}

// TestEgressLinksOrderK4: on the k=4 fat-tree every switch's EgressLinks
// are its distinct table entries in ascending address order of their first
// use — the order the map-deduplicating scan returned before tables held
// port indices, and the order a chaos switch-down downs them in.
func TestEgressLinksOrderK4(t *testing.T) {
	cfg := topo.DefaultFatTreeConfig(topo.ECNMaker(100, 10))
	cfg.K = 4
	ft := topo.NewFatTree(sim.NewEngine(), cfg)
	maxAddr := netem.Addr(0)
	for _, h := range ft.HostList {
		maxAddr = max(maxAddr, slices.Max(h.Addrs()))
	}
	for _, sw := range ft.Switches {
		var want []*netem.Link
		for a := netem.Addr(0); a <= maxAddr; a++ {
			if l := sw.Route(a); l != nil && !slices.Contains(want, l) {
				want = append(want, l)
			}
		}
		if got := sw.EgressLinks(); !slices.Equal(got, want) {
			t.Errorf("%s: EgressLinks = %v, want %v", sw.Name, names(got), names(want))
		}
	}
}
