package workload

import (
	"testing"

	"xmp/internal/mptcp"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

// arenaConfig builds the warm launch rig the allocation tests share: a
// k=4 fat-tree with an arena and no collector (metrics.Dist's amortized
// sample-append would show up as fractional allocations).
func arenaConfig(eng *sim.Engine) Config {
	ftCfg := topo.DefaultFatTreeConfig(topo.ECNMaker(100, 10))
	ftCfg.K = 4
	return Config{
		Net:       topo.NewFatTree(eng, ftCfg),
		RNG:       sim.NewRNG(1),
		Scheme:    Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2},
		Transport: transport.DefaultConfig(),
		Stop:      sim.MaxTime,
		Arena:     mptcp.NewArena(),
	}
}

// TestLaunchFlowRecycledZeroAlloc pins the tentpole claim of the flow
// arena: once the arena is warm, a complete flow lifetime — launch,
// transfer, completion, release, recycle — allocates nothing.
func TestLaunchFlowRecycledZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	cfg := arenaConfig(eng)
	// Warm every pool: the arena's flow graph, the launch records, the
	// packet pool and the engine's event free lists.
	for i := 0; i < 8; i++ {
		LaunchFlow(&cfg, 0, 12, 64<<10, nil)
		eng.RunAll(1 << 62)
	}
	allocs := testing.AllocsPerRun(50, func() {
		LaunchFlow(&cfg, 0, 12, 64<<10, nil)
		eng.RunAll(1 << 62)
	})
	if allocs != 0 {
		t.Fatalf("recycled LaunchFlow lifetime allocated %.2f objects/op, want 0", allocs)
	}
}

// TestSmallTCPRecycledZeroAlloc extends the zero-alloc pin to the
// plain-TCP small-flow path the incast and short-flow generators use.
func TestSmallTCPRecycledZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	cfg := arenaConfig(eng)
	for i := 0; i < 8; i++ {
		launchSmallTCP(&cfg, 3, 9, 8<<10, nil)
		eng.RunAll(1 << 62)
	}
	allocs := testing.AllocsPerRun(50, func() {
		launchSmallTCP(&cfg, 3, 9, 8<<10, nil)
		eng.RunAll(1 << 62)
	})
	if allocs != 0 {
		t.Fatalf("recycled small-TCP lifetime allocated %.2f objects/op, want 0", allocs)
	}
}

// TestLaunchFlowColdAllocs pins what a cold flow lifetime allocates — the
// launch of an incast burst, whose flows are all alive at once: a fresh
// arena each run, so nothing recycles. Beyond the controllers a flow
// allocates its subflow block and, when multipath, its coupling group's
// member list; everything else is the fresh arena's fixed cost, the same
// for every scheme.
func TestLaunchFlowColdAllocs(t *testing.T) {
	// arena: the Arena and its quarantine map; the first Flow and Conn slab
	// chunks, each with its chunk list; the quarantine's first entry at
	// Release.
	const arena = 8
	for _, c := range []struct {
		scheme      Scheme
		controllers int // controller objects the scheme's row builds
		block       int // subflow block, plus the member list if multipath
	}{
		{Scheme{Algorithm: mptcp.AlgReno}, 1, 1},
		{Scheme{Algorithm: mptcp.AlgDCTCP}, 1, 1},
		// XMP-n: one TraSh coupler, and per subflow a BOS and its δ closure.
		{Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2}, 1 + 2*2, 2},
		{Scheme{Algorithm: mptcp.AlgXMP, Subflows: 4}, 1 + 2*4, 2},
	} {
		eng := sim.NewEngine()
		cfg := arenaConfig(eng)
		cfg.Scheme = c.scheme
		// Warm everything but the arena: launch records, the packet pool,
		// the engine's free lists and the hosts' demux tables.
		for i := 0; i < 8; i++ {
			LaunchFlow(&cfg, 0, 12, 64<<10, nil)
			eng.RunAll(1 << 62)
		}
		allocs := testing.AllocsPerRun(50, func() {
			cfg.Arena = mptcp.NewArena()
			LaunchFlow(&cfg, 0, 12, 64<<10, nil)
			eng.RunAll(1 << 62)
		})
		if want := arena + c.controllers + c.block; allocs != float64(want) {
			t.Errorf("%s: cold flow lifetime allocated %.2f objects/op, want %d (%d arena + %d controllers + %d block)",
				c.scheme.Label(), allocs, want, arena, c.controllers, c.block)
		}
	}
}

// TestShortFlowsPattern exercises the bounded-Pareto generator end to end:
// closed loops relaunch until Stop, completions land in the FCT
// distribution, and MaxLaunches caps the total.
func TestShortFlowsPattern(t *testing.T) {
	eng := sim.NewEngine()
	cfg := arenaConfig(eng)
	cfg.Collector = NewCollector(1)
	cfg.Stop = sim.Time(5 * sim.Millisecond)
	sf := StartShortFlows(ShortFlowsConfig{
		Config:    cfg,
		MeanBytes: 16 << 10,
		MaxBytes:  256 << 10,
		PerHost:   2,
	})
	eng.RunAll(1 << 62)
	if sf.Launched <= cfg.Net.NumHosts()*2 {
		t.Errorf("short-flow loops never relaunched: %d launches for %d loops",
			sf.Launched, cfg.Net.NumHosts()*2)
	}
	if sf.Completed != sf.Launched {
		t.Errorf("%d launches but %d completions after drain", sf.Launched, sf.Completed)
	}
	if got := cfg.Collector.FCT.N(); got != sf.Completed {
		t.Errorf("FCT recorded %d samples, want one per completion (%d)", got, sf.Completed)
	}

	eng2 := sim.NewEngine()
	cfg2 := arenaConfig(eng2)
	cfg2.Stop = sim.Time(5 * sim.Millisecond)
	capped := StartShortFlows(ShortFlowsConfig{
		Config:      cfg2,
		MeanBytes:   16 << 10,
		MaxBytes:    256 << 10,
		MaxLaunches: 10,
	})
	eng2.RunAll(1 << 62)
	if capped.Launched > 10 {
		t.Errorf("MaxLaunches=10 but %d flows launched", capped.Launched)
	}
}

// TestIncastBurstPattern exercises the scaled fan-in generator: more
// senders than hosts (worker processes per machine), one synchronized
// round, one JCT sample, every flow's FCT recorded.
func TestIncastBurstPattern(t *testing.T) {
	eng := sim.NewEngine()
	cfg := arenaConfig(eng)
	cfg.Collector = NewCollector(1)
	cfg.Stop = sim.MaxTime
	const senders = 64 // 4x the k=4 fabric's 16 hosts
	b := StartIncastBurst(IncastBurstConfig{
		Config:        cfg,
		Senders:       senders,
		ResponseBytes: 4 << 10,
		Client:        5,
		Rounds:        2,
	})
	eng.RunAll(1 << 62)
	if b.Launched != 2*senders {
		t.Errorf("2 rounds x %d senders: launched %d", senders, b.Launched)
	}
	if b.RoundsRun != 2 {
		t.Errorf("rounds run = %d, want 2", b.RoundsRun)
	}
	if got := cfg.Collector.JCT.N(); got != 2 {
		t.Errorf("JCT samples = %d, want one per round (2)", got)
	}
	if got := cfg.Collector.FCT.N(); got != 2*senders {
		t.Errorf("FCT samples = %d, want one per flow (%d)", got, 2*senders)
	}
}
