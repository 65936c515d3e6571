package workload

import (
	"testing"

	"xmp/internal/mptcp"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

func smallFatTree(eng *sim.Engine) *topo.FatTree {
	cfg := topo.DefaultFatTreeConfig(topo.ECNMaker(100, 10))
	cfg.K = 4
	cfg.AliasesPerHost = 4
	return topo.NewFatTree(eng, cfg)
}

func baseConfig(ft *topo.FatTree, scheme Scheme, stop sim.Time) Config {
	return Config{
		Net:       ft,
		RNG:       sim.NewRNG(42),
		Scheme:    scheme,
		Transport: transport.DefaultConfig(),
		Collector: NewCollector(1),
		Stop:      stop,
	}
}

func drain(t *testing.T, eng *sim.Engine) {
	t.Helper()
	eng.RunAll(500_000_000)
}

func TestSchemeLabels(t *testing.T) {
	cases := map[string]Scheme{
		"XMP-2":  {Algorithm: mptcp.AlgXMP, Subflows: 2},
		"LIA-4":  {Algorithm: mptcp.AlgLIA, Subflows: 4},
		"DCTCP":  {Algorithm: mptcp.AlgDCTCP, Subflows: 1},
		"TCP":    {Algorithm: mptcp.AlgReno, Subflows: 1},
		"OLIA-2": {Algorithm: mptcp.AlgOLIA, Subflows: 2},
	}
	for want, s := range cases {
		if got := s.Label(); got != want {
			t.Errorf("label %q, want %q", got, want)
		}
	}
}

func TestPermutationRunsRounds(t *testing.T) {
	eng := sim.NewEngine()
	ft := smallFatTree(eng)
	cfg := PermutationConfig{
		Config:   baseConfig(ft, Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2}, sim.Time(300*sim.Millisecond)),
		MinBytes: 64 << 10,
		MaxBytes: 512 << 10,
	}
	p := StartPermutation(cfg)
	drain(t, eng)

	col := cfg.Collector
	if p.Rounds < 2 {
		t.Fatalf("only %d rounds ran", p.Rounds)
	}
	// Every launched flow completed: rounds x 16 hosts.
	want := p.Rounds * ft.NumHosts()
	if col.FlowsCompleted != want {
		t.Fatalf("completed %d flows, want %d", col.FlowsCompleted, want)
	}
	if col.Goodput.N() != want {
		t.Fatalf("goodput samples %d", col.Goodput.N())
	}
	if col.Goodput.Mean() <= 0 {
		t.Fatal("zero mean goodput")
	}
}

func TestPermutationDerangement(t *testing.T) {
	rng := sim.NewRNG(7)
	buf := make([]int, 16)
	for trial := 0; trial < 50; trial++ {
		perm := derangement(rng, buf)
		seen := make([]bool, 16)
		for i, v := range perm {
			if i == v {
				t.Fatal("fixed point in derangement")
			}
			if seen[v] {
				t.Fatal("not a permutation")
			}
			seen[v] = true
		}
	}
}

func TestRandomPatternRespectsDstCap(t *testing.T) {
	eng := sim.NewEngine()
	ft := smallFatTree(eng)
	cfg := RandomConfig{
		Config:          baseConfig(ft, Scheme{Algorithm: mptcp.AlgDCTCP, Subflows: 1}, sim.Time(200*sim.Millisecond)),
		ParetoMeanBytes: 192 << 10,
		ParetoMaxBytes:  768 << 10,
		MaxFlowsPerDst:  4,
	}
	r := StartRandom(cfg)
	// Destination load must never exceed the cap while running.
	var maxLoad int
	var probe func()
	probe = func() {
		for _, l := range r.dstLoad {
			if l > maxLoad {
				maxLoad = l
			}
		}
		if eng.Now() < cfg.Stop {
			eng.Schedule(sim.Millisecond, probe)
		}
	}
	eng.Schedule(sim.Millisecond, probe)
	drain(t, eng)

	if maxLoad > 4 {
		t.Fatalf("destination load reached %d, cap is 4", maxLoad)
	}
	if r.Launched <= ft.NumHosts() {
		t.Fatalf("random pattern stalled after the initial wave: %d", r.Launched)
	}
	if cfg.Collector.FlowsCompleted == 0 {
		t.Fatal("no flows completed")
	}
	for _, l := range r.dstLoad {
		if l != 0 {
			t.Fatal("destination load leaked after drain")
		}
	}
}

func TestRandomExcludeSameRack(t *testing.T) {
	eng := sim.NewEngine()
	ft := smallFatTree(eng)
	cfg := RandomConfig{
		Config:          baseConfig(ft, Scheme{Algorithm: mptcp.AlgDCTCP, Subflows: 1}, sim.Time(50*sim.Millisecond)),
		ParetoMeanBytes: 64 << 10,
		ParetoMaxBytes:  256 << 10,
		ExcludeSameRack: true,
	}
	StartRandom(cfg)
	drain(t, eng)
	if n := cfg.Collector.GoodputByCat[topo.InnerRack].N(); n != 0 {
		t.Fatalf("%d inner-rack flows despite exclusion", n)
	}
	if cfg.Collector.FlowsCompleted == 0 {
		t.Fatal("nothing ran")
	}
}

func TestIncastJobsComplete(t *testing.T) {
	eng := sim.NewEngine()
	ft := smallFatTree(eng)
	base := baseConfig(ft, Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2}, sim.Time(250*sim.Millisecond))
	cfg := IncastConfig{
		Config:     base,
		Jobs:       4,
		Servers:    8,
		Background: true,
		BackgroundConfig: RandomConfig{
			Config:          base,
			ParetoMeanBytes: 192 << 10,
			ParetoMaxBytes:  768 << 10,
		},
	}
	inc := StartIncast(cfg)
	drain(t, eng)

	col := cfg.Collector
	if col.JCT.N() < 4 {
		t.Fatalf("only %d job completion times recorded", col.JCT.N())
	}
	if inc.JobsRun < col.JCT.N() {
		t.Fatal("bookkeeping: more JCTs than jobs")
	}
	// Jobs move 8x(2KB+64KB) over a 1 Gbps fabric: a job takes at least
	// ~4.5 ms of serialization on the client link plus RTTs; under
	// contention some hit the 200 ms RTO.
	if col.JCT.Min() < 1 {
		t.Fatalf("implausibly fast job: %.3f ms", col.JCT.Min())
	}
	if col.FlowsCompleted == 0 {
		t.Fatal("background flows idle")
	}
}

func TestIncastShapeDefaults(t *testing.T) {
	var c IncastConfig
	c.DefaultIncastShape()
	if c.Jobs != 8 || c.Servers != 8 || c.RequestBytes != 2048 || c.ResponseBytes != 65536 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestCollectorRTTStride(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 16; i++ {
		c.recordRTT(topo.InterPod, sim.Millisecond)
	}
	if n := c.RTT[topo.InterPod].N(); n != 4 {
		t.Fatalf("stride 4 kept %d of 16 samples", n)
	}
	if NewCollector(0).RTTStride != 1 {
		t.Fatal("stride floor wrong")
	}
}

func TestLaunchFlowRecordsCategory(t *testing.T) {
	eng := sim.NewEngine()
	ft := smallFatTree(eng)
	cfg := baseConfig(ft, Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2}, sim.MaxTime)
	// Host 0 -> host 15 is inter-pod on k=4.
	LaunchFlow(&cfg, 0, 15, 256<<10, nil)
	drain(t, eng)
	if cfg.Collector.GoodputByCat[topo.InterPod].N() != 1 {
		t.Fatal("inter-pod flow not recorded under its category")
	}
	if cfg.Collector.RTT[topo.InterPod].N() == 0 {
		t.Fatal("no RTT samples recorded")
	}
	if cfg.Collector.BytesMoved != 256<<10 {
		t.Fatalf("bytes moved %d", cfg.Collector.BytesMoved)
	}
}

// TestLaunchKinds states what separates the two kinds of launch on one
// config: a small flow is one-subflow plain TCP whatever cfg.Scheme says,
// and lands in FCT and RTT but never in the goodput tables; a large flow
// runs the scheme and lands in all three.
func TestLaunchKinds(t *testing.T) {
	eng := sim.NewEngine()
	ft := smallFatTree(eng)
	cfg := baseConfig(ft, Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2}, sim.MaxTime)
	col := cfg.Collector

	small := launchSmallTCP(&cfg, 0, 15, 8<<10, nil)
	if small.Algorithm() != mptcp.AlgReno || small.NumSubflows() != 1 {
		t.Fatalf("small flow under XMP-2 is %s with %d subflows, want TCP with 1",
			small.Algorithm(), small.NumSubflows())
	}
	drain(t, eng)
	if !small.Done() || col.FCT.N() != 1 || col.FCTBySize[FCTSizeBin(8<<10)].N() != 1 {
		t.Fatalf("small flow: done %v, %d FCT samples", small.Done(), col.FCT.N())
	}
	if col.RTT[topo.InterPod].N() == 0 {
		t.Fatal("small flow recorded no RTT samples")
	}
	if col.Goodput.N() != 0 || col.GoodputByCat[topo.InterPod].N() != 0 || col.FlowsCompleted != 0 || col.BytesMoved != 0 {
		t.Fatalf("small flow touched the goodput record: %d samples, %d flows, %d bytes",
			col.Goodput.N(), col.FlowsCompleted, col.BytesMoved)
	}

	rtts := col.RTT[topo.InterPod].N()
	large := LaunchFlow(&cfg, 0, 15, 64<<10, nil)
	if large.Algorithm() != mptcp.AlgXMP || large.NumSubflows() != 2 {
		t.Fatalf("large flow is %s with %d subflows, want XMP with 2", large.Algorithm(), large.NumSubflows())
	}
	drain(t, eng)
	if col.FCT.N() != 2 || col.RTT[topo.InterPod].N() <= rtts {
		t.Fatalf("large flow: %d FCT samples, RTT samples %d -> %d", col.FCT.N(), rtts, col.RTT[topo.InterPod].N())
	}
	if col.Goodput.N() != 1 || col.GoodputByCat[topo.InterPod].N() != 1 || col.FlowsCompleted != 1 || col.BytesMoved != 64<<10 {
		t.Fatalf("large flow: %d goodput samples, %d flows, %d bytes",
			col.Goodput.N(), col.FlowsCompleted, col.BytesMoved)
	}
}

func TestFlowNamesLazyAndGated(t *testing.T) {
	// Names are formatted only when TraceNames asks for them, and then
	// lazily: the launch path itself never pays for Sprintf.
	eng := sim.NewEngine()
	ft := smallFatTree(eng)
	cfg := baseConfig(ft, Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2}, sim.MaxTime)

	unnamed := LaunchFlow(&cfg, 0, 15, 64<<10, nil)
	if unnamed.Name() != "" {
		t.Fatalf("TraceNames off: flow named %q", unnamed.Name())
	}

	cfg.TraceNames = true
	named := LaunchFlow(&cfg, 1, 14, 64<<10, nil)
	small := launchSmallTCP(&cfg, 2, 13, 2048, nil)
	if got := named.Name(); got != "XMP-2:1->14" {
		t.Fatalf("large flow name %q", got)
	}
	if got := small.Name(); got != "tcp:2->13" {
		t.Fatalf("small flow name %q", got)
	}
	// Cached: the second call returns the same string.
	if named.Name() != "XMP-2:1->14" {
		t.Fatal("name not cached")
	}
	drain(t, eng)
}
