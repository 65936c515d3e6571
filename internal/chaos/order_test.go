package chaos

import (
	"slices"
	"testing"

	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
)

// TestSwitchDownOrderK4: on the k=4 fat-tree a switch-down downs each
// switch's egress links first, in ascending address order of their first
// table entry — the order Switch.EgressLinks returned when it deduplicated
// table entries through a map — and then the links into the switch.
func TestSwitchDownOrderK4(t *testing.T) {
	cfg := topo.DefaultFatTreeConfig(topo.ECNMaker(100, 10))
	cfg.K = 4
	ft := topo.NewFatTree(sim.NewEngine(), cfg)
	maxAddr := netem.Addr(0)
	for _, h := range ft.HostList {
		maxAddr = max(maxAddr, slices.Max(h.Addrs()))
	}
	for _, sw := range ft.Switches {
		inj, err := New(ft.Network, Schedule{Events: []Event{
			{At: sim.Millisecond, Kind: SwitchDown, Target: sw.Name, Dur: sim.Millisecond}}})
		if err != nil {
			t.Fatal(err)
		}
		var want []*netem.Link
		for a := netem.Addr(0); a <= maxAddr; a++ {
			if l := sw.Route(a); l != nil && !slices.Contains(want, l) {
				want = append(want, l)
			}
		}
		for _, li := range ft.Links() {
			if li.Dst() == netem.Receiver(sw) {
				want = append(want, li.Link)
			}
		}
		if got := inj.actions[0].links; !slices.Equal(got, want) {
			t.Errorf("%s: switch-down downs %d links out of order", sw.Name, len(got))
		}
	}
}
