package topo_test

import (
	"testing"

	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

func buildVL2(eng *sim.Engine) *topo.VL2 {
	return topo.NewVL2(eng, topo.DefaultVL2Config(topo.ECNMaker(100, 10)))
}

func TestVL2Dimensions(t *testing.T) {
	eng := sim.NewEngine()
	v := buildVL2(eng)
	if v.NumServers() != 32 {
		t.Fatalf("servers %d, want 32", v.NumServers())
	}
	if len(v.ToR) != 8 || len(v.Agg) != 4 || len(v.Intermediate) != 4 {
		t.Fatalf("switch counts %d/%d/%d", len(v.ToR), len(v.Agg), len(v.Intermediate))
	}
}

// TestVL2AllPairsAllAliasesRoute: every (server, alias) pair has a path, one
// that climbs to the intermediate layer crosses the intermediate the alias
// selects, and a packet stamped with it arrives once.
func TestVL2AllPairsAllAliasesRoute(t *testing.T) {
	eng := sim.NewEngine()
	// Deep queues: all ~8k probes are injected at t=0 and must not
	// tail-drop; this test checks reachability, not congestion.
	cfg := topo.DefaultVL2Config(topo.DropTailMaker(1 << 20))
	v := topo.NewVL2(eng, cfg)
	var id netem.ConnID = 50000
	delivered := map[netem.ConnID]int{}
	for s := 0; s < v.NumServers(); s++ {
		for d := 0; d < v.NumServers(); d++ {
			if s == d {
				continue
			}
			for a := 0; a < 8; a++ {
				id++
				id := id
				src, dst := v.Servers[s], v.Servers[d]
				pa := probe(t, src, dst, src.PrimaryAddr(), v.Alias(dst, a), id, func() { delivered[id]++ })
				// Alias a of server d climbs through intermediate d+a mod NumIntermediate.
				if im := v.Intermediate[(d+a)%cfg.NumIntermediate]; pa.Len() == 6 && pa.Hop(2).Dst() != netem.Receiver(im) {
					t.Fatalf("%s to %s alias %d climbs over %s, want %s", src.Name, dst.Name, a, pa.Hop(2).Name, im.Name)
				}
			}
		}
	}
	eng.Run(sim.MaxTime)
	for id, n := range delivered {
		if n != 1 {
			t.Fatalf("probe %d delivered %d times", id, n)
		}
	}
	if len(delivered) != 32*31*8 {
		t.Fatalf("probes delivered %d, want %d", len(delivered), 32*31*8)
	}
}

func TestVL2AliasesUseDistinctFabricPaths(t *testing.T) {
	eng := sim.NewEngine()
	v := buildVL2(eng)
	src, dst := v.Servers[0], v.Servers[v.NumServers()-1]
	for a := 0; a < 8; a++ {
		probe(t, src, dst, src.PrimaryAddr(), v.Alias(dst, a), netem.ConnID(a+1), func() {})
	}
	eng.Run(sim.MaxTime)
	busy := 0
	for _, li := range v.Links() {
		if li.Layer == topo.LayerCore && li.TxPackets() > 0 {
			busy++
		}
	}
	// 8 aliases over a 2 (sides) x 4 (intermediates) fabric: every alias
	// crosses one agg->int and one int->agg link; expect a wide spread.
	if busy < 8 {
		t.Fatalf("8 aliases used only %d core-layer links", busy)
	}
}

func TestVL2CarriesXMPFlow(t *testing.T) {
	eng := sim.NewEngine()
	v := buildVL2(eng)
	src, dst := v.Servers[0], v.Servers[17] // different racks
	f := mptcp.New(eng, mptcp.Options{
		Src: src, Dst: dst,
		Subflows: []mptcp.SubflowSpec{
			{SrcAddr: v.Alias(src, 0), DstAddr: v.Alias(dst, 0)},
			{SrcAddr: v.Alias(src, 1), DstAddr: v.Alias(dst, 1)},
		},
		TotalBytes: 8 << 20,
		Algorithm:  mptcp.AlgXMP,
		Transport:  transport.DefaultConfig(),
		NextConnID: v.NextConnID,
	})
	f.Start()
	eng.Run(sim.Time(5 * sim.Second))
	if !f.Done() {
		t.Fatal("XMP flow over VL2 did not complete")
	}
	if f.AckedBytes() != 8<<20 {
		t.Fatalf("acked %d", f.AckedBytes())
	}
	// Server links are 1 Gbps: an uncontended 8 MB transfer is fast.
	if g := f.GoodputBps(f.CompletionTime()); g < 500e6 {
		t.Fatalf("goodput %.0f too low", g)
	}
}

func TestVL2SameRack(t *testing.T) {
	eng := sim.NewEngine()
	v := buildVL2(eng)
	if !v.SameRack(0, 1) || v.SameRack(0, 4) {
		t.Fatal("rack classification wrong")
	}
}

func TestVL2Validation(t *testing.T) {
	eng := sim.NewEngine()
	bad := map[string]topo.VL2Config{
		"nil queue": {NumIntermediate: 2, NumAggregation: 2, NumToR: 2, ServersPerToR: 1},
		"odd aggs": {NumIntermediate: 2, NumAggregation: 3, NumToR: 2, ServersPerToR: 1,
			SwitchQueue: topo.ECNMaker(100, 10)},
		"zero tors": {NumIntermediate: 2, NumAggregation: 2, NumToR: 0, ServersPerToR: 1,
			SwitchQueue: topo.ECNMaker(100, 10)},
	}
	for name, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			topo.NewVL2(eng, cfg)
		}()
	}
}
