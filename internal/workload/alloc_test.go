package workload

import (
	"runtime"
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

// TestIncastJobsRecycledAllocs extends the recycled pins to incast jobs:
// once warm, a job — its client and servers drawn from the host
// permutation, its job and request records, its request and response
// flows — allocates nothing of its own. What remains is amortized growth
// of shared tables (a host's free-slot list) when a rare draw sets a new
// peak: well under one object per hundred jobs.
func TestIncastJobsRecycledAllocs(t *testing.T) {
	eng := sim.NewEngine()
	cfg := arenaConfig(eng)
	inc := StartIncast(IncastConfig{Config: cfg, Jobs: 2, Servers: 4, RequestBytes: 2 << 10, ResponseBytes: 8 << 10})
	eng.Run(sim.Time(sim.Second))
	warm := inc.JobsRun
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng.Run(sim.Time(2 * sim.Second))
	runtime.ReadMemStats(&after)
	jobs := inc.JobsRun - warm
	if jobs < 100 {
		t.Fatalf("only %d jobs ran in the measured second", jobs)
	}
	if perJob := float64(after.Mallocs-before.Mallocs) / float64(jobs); perJob >= 0.01 {
		t.Fatalf("%d warm incast jobs allocated %.3f objects each, want < 0.01", jobs, perJob)
	}
}

// TestLaunchFlowColdAllocs pins what cold launches allocate — an incast
// burst, whose flows are all alive at once, so none recycles. One burst
// warms every pool (launch records, the packet pool, the engine's free
// lists, the hosts' demux tables); then each measured round launches a
// burst into a fresh arena before the engine runs, and the engine drains
// it outside the measurement (a lossy scheme's receivers grow their SACK
// ranges there). The fabric is reset between rounds, as a recycled cell
// resets it. A flow's Flow, subflow block, member list, connections
// and controllers all come from the arena's chunks, which grow with the
// burst: the launches cost a few chunks per kind of object and the arena's
// fixed cost.
func TestLaunchFlowColdAllocs(t *testing.T) {
	const burst, rounds = 256, 5
	for _, scheme := range []Scheme{
		{Algorithm: mptcp.AlgReno},
		{Algorithm: mptcp.AlgDCTCP},
		{Algorithm: mptcp.AlgLIA, Subflows: 2},
		{Algorithm: mptcp.AlgOLIA, Subflows: 2},
		{Algorithm: mptcp.AlgAMP, Subflows: 2},
		{Algorithm: mptcp.AlgXMP, Subflows: 2},
		{Algorithm: mptcp.AlgXMP, Subflows: 4},
	} {
		eng := sim.NewEngine()
		cfg := arenaConfig(eng)
		cfg.Scheme = scheme
		ft := cfg.Net.(*topo.FatTree)
		hosts := ft.NumHosts()
		launch := func() {
			cfg.Arena = mptcp.NewArena()
			for i := 0; i < burst; i++ {
				LaunchFlow(&cfg, i%hosts, (i+5)%hosts, 64<<10, nil)
			}
		}
		launch()
		eng.RunAll(1 << 62)
		ft.Reset()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var mallocs uint64
		for r := 0; r < rounds; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			launch()
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			eng.RunAll(1 << 62)
			ft.Reset()
		}
		if perFlow := float64(mallocs) / (rounds * burst); perFlow >= 0.2 {
			t.Errorf("%s: a cold burst of %d flows allocated %.3f objects per flow, want < 0.2",
				scheme.Label(), burst, perFlow)
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
