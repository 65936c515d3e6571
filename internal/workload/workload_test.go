package workload

import (
	"fmt"
	"strings"
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

// An arena audit panic names the flow it caught by the flow's own fields:
// algorithm, subflow count, endpoints and first connection ID.
func TestAuditPanicNamesWorkloadFlow(t *testing.T) {
	eng := sim.NewEngine()
	cfg := arenaConfig(eng)
	f := LaunchFlow(&cfg, 1, 14, 64<<10, nil)
	// The SYNs are on the wire: the audit must refuse the run.
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		cfg.Arena.Audit()
		return ""
	}()
	src, dst := f.Subflow(0).Hosts()
	for _, want := range []string{"XMP-2 ", src.Name + "->" + dst.Name, fmt.Sprintf("conn %d", f.Subflow(0).ID()), "packets in flight"} {
		if !strings.Contains(msg, want) {
			t.Errorf("audit panic %q does not name %q", msg, want)
		}
	}
	drain(t, eng)
	cfg.Arena.Audit()
}

// TestCollectorResetIsNew: a collector with samples, counters, a
// subsampling phase and switched-off series, once Reset, records as a new
// collector of the given stride: every series on, nothing left over.
func TestCollectorResetIsNew(t *testing.T) {
	eng := sim.NewEngine()
	cfg := baseConfig(smallFatTree(eng), Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2}, 0)
	run := func() {
		LaunchFlow(&cfg, 0, 15, 64<<10, nil)
		eng.RunAll(500_000_000)
	}
	col := cfg.Collector
	for i := 0; i < 3; i++ {
		col.recordRTT(topo.InterPod, sim.Millisecond)
	}
	col.Skip(SeriesRTT) // the RTT phase stays at 3
	run()
	col.UtilByLayer[topo.LayerCore].Add(0.5)
	col.JCT.Add(1)
	if col.Goodput.N() != 1 || col.FCT.N() != 1 || col.RTT[topo.InterPod].N() != 3 {
		t.Fatalf("before Reset: goodput %d, fct %d, rtt %d samples, want 1, 1, 3", col.Goodput.N(), col.FCT.N(), col.RTT[topo.InterPod].N())
	}
	col.Skip(SeriesGoodput | SeriesRTT | SeriesFCT)
	col.Reset(4)

	n := col.FlowsCompleted + int(col.BytesMoved) + col.Goodput.N() + col.JCT.N() + col.FCT.N()
	for _, d := range col.FCTBySize {
		n += d.N()
	}
	for _, cat := range []topo.Category{topo.InnerRack, topo.InterRack, topo.InterPod} {
		n += col.GoodputByCat[cat].N() + col.RTT[cat].N()
	}
	for _, d := range col.UtilByLayer {
		n += d.N()
	}
	if n != 0 || col.RTTStride != 4 {
		t.Errorf("after Reset the collector holds %d samples and counts, stride %d", n, col.RTTStride)
	}
	for i := 0; i < 6; i++ {
		col.recordRTT(topo.InterPod, sim.Millisecond)
	}
	if got := col.RTT[topo.InterPod].N(); got != 1 {
		t.Errorf("after Reset(4), 6 RTT samples kept %d, want 1: the subsampling did not restart", got)
	}
	col.RTT[topo.InterPod].Reset()
	run()
	if col.FlowsCompleted != 1 || col.Goodput.N() != 1 || col.GoodputByCat[topo.InterPod].N() != 1 ||
		col.FCT.N() != 1 || col.RTT[topo.InterPod].N() == 0 {
		t.Errorf("after Reset one flow recorded flows=%d goodput=%d inter-pod=%d fct=%d rtt=%d, want every series",
			col.FlowsCompleted, col.Goodput.N(), col.GoodputByCat[topo.InterPod].N(), col.FCT.N(), col.RTT[topo.InterPod].N())
	}
}

// TestCollectorSkip: a skipped series stays empty while the others and
// the counters record.
func TestCollectorSkip(t *testing.T) {
	eng := sim.NewEngine()
	cfg := baseConfig(smallFatTree(eng), Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2}, 0)
	cfg.Collector.Skip(SeriesGoodput | SeriesRTT)
	LaunchFlow(&cfg, 0, 15, 64<<10, nil)
	eng.RunAll(500_000_000)
	col := cfg.Collector
	if col.Goodput.N() != 0 || col.GoodputByCat[topo.InterPod].N() != 0 || col.RTT[topo.InterPod].N() != 0 {
		t.Errorf("skipped series recorded: goodput %d, inter-pod %d, rtt %d", col.Goodput.N(), col.GoodputByCat[topo.InterPod].N(), col.RTT[topo.InterPod].N())
	}
	if col.FCT.N() != 1 || col.FlowsCompleted != 1 || col.BytesMoved != 64<<10 {
		t.Errorf("fct %d flows %d bytes %d, want 1, 1, %d", col.FCT.N(), col.FlowsCompleted, col.BytesMoved, 64<<10)
	}
}
