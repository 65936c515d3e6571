package chaos_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xmp/internal/chaos"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
	"xmp/internal/workload"
)

const ms = sim.Millisecond

func demoSchedule() chaos.Schedule {
	return chaos.Schedule{
		Seed: 7,
		Events: []chaos.Event{
			{At: 2 * ms, Kind: chaos.LinkDown, Target: "core0.0->agg0.0", Dur: 3 * ms},
			{At: 4 * ms, Kind: chaos.SwitchDown, Target: "agg1.0", Dur: 4 * ms},
			{At: 6 * ms, Kind: chaos.LossBurst, Target: "edge0.0->agg0.0", P: 0.05, Dur: 5 * ms},
			{At: 8 * ms, Kind: chaos.ExtraDelay, Target: "agg0.1->edge0.1", Extra: 200 * sim.Microsecond, Dur: 10 * ms},
			{At: 10 * ms, Kind: chaos.Jitter, Target: "edge1.1->agg1.1", Extra: 100 * sim.Microsecond, Period: 500 * sim.Microsecond, Dur: 8 * ms},
		},
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := demoSchedule()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := chaos.ParseSchedule(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the schedule:\n  in  %+v\n  out %+v", s, back)
	}
}

func TestScheduleValidation(t *testing.T) {
	cases := map[string]chaos.Event{
		"unknown kind":            {Kind: "link-wobble", Target: "l", Dur: ms},
		"removed link-up":         {Kind: "link-up", Target: "l", Dur: ms},
		"removed switch-up":       {Kind: "switch-up", Target: "s", Dur: ms},
		"negative at":             {At: -ms, Kind: chaos.LinkDown, Target: "l", Dur: ms},
		"negative dur":            {Kind: chaos.LinkDown, Target: "l", Dur: -ms},
		"link-down without dur":   {Kind: chaos.LinkDown, Target: "l"},
		"switch-down without dur": {Kind: chaos.SwitchDown, Target: "s"},
		"extra-delay without dur": {Kind: chaos.ExtraDelay, Target: "l", Extra: ms},
		"empty target":            {Kind: chaos.LinkDown, Dur: ms},
		"loss p too big":          {Kind: chaos.LossBurst, Target: "l", P: 1, Dur: ms},
		"loss without dur":        {Kind: chaos.LossBurst, Target: "l", P: 0.1},
		"negative extra":          {Kind: chaos.ExtraDelay, Target: "l", Extra: -ms, Dur: ms},
		"jitter no period":        {Kind: chaos.Jitter, Target: "l", Extra: ms, Dur: ms},
	}
	for name, e := range cases {
		if err := (chaos.Schedule{Events: []chaos.Event{e}}).Validate(); err == nil {
			t.Errorf("%s: no validation error", name)
		}
	}
	if err := demoSchedule().Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

// lossyFatTree builds a k-ary fat-tree whose switch queues are all wrapped
// in Lossy(p=0) — inert until a loss-burst event arms them.
func lossyFatTree(eng *sim.Engine, k int, lossRNG *sim.RNG) *topo.FatTree {
	qm := func(ba *netem.BuildArena) netem.Queue {
		return netem.NewLossy(ba.NewThresholdECN(100, 10), 0, lossRNG)
	}
	cfg := topo.DefaultFatTreeConfig(qm)
	cfg.K = k
	return topo.NewFatTree(eng, cfg)
}

func TestInjectorTargetResolution(t *testing.T) {
	eng := sim.NewEngine()
	ft := lossyFatTree(eng, 4, sim.NewRNG(1))
	for name, s := range map[string]chaos.Schedule{
		"unknown link": {Events: []chaos.Event{
			{Kind: chaos.LinkDown, Target: "edge9.9->agg9.9", Dur: ms}}},
		"unknown switch": {Events: []chaos.Event{
			{Kind: chaos.SwitchDown, Target: "agg9.9", Dur: ms}}},
	} {
		if _, err := chaos.New(ft.Network, s); err == nil {
			t.Errorf("%s: New did not fail", name)
		}
	}
	// A host NIC queue is plain drop-tail: loss bursts on it must be
	// rejected at construction.
	ecnFT := topo.NewFatTree(sim.NewEngine(), func() topo.FatTreeConfig {
		c := topo.DefaultFatTreeConfig(topo.ECNMaker(100, 10))
		c.K = 4
		return c
	}())
	s := chaos.Schedule{Events: []chaos.Event{
		{Kind: chaos.LossBurst, Target: "edge0.0->agg0.0", P: 0.1, Dur: ms}}}
	if _, err := chaos.New(ecnFT.Network, s); err == nil || !strings.Contains(err.Error(), "Lossy") {
		t.Errorf("loss burst on non-Lossy queue: err = %v", err)
	}
	if _, err := chaos.New(ft.Network, demoSchedule()); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestSwitchDownFailsAllAttachedLinks(t *testing.T) {
	eng := sim.NewEngine()
	ft := lossyFatTree(eng, 4, sim.NewRNG(1))
	sched := chaos.Schedule{Events: []chaos.Event{
		{At: ms, Kind: chaos.SwitchDown, Target: "agg0.0", Dur: 2 * ms},
	}}
	inj, err := chaos.New(ft.Network, sched)
	if err != nil {
		t.Fatal(err)
	}
	inj.Install()
	attached := func() (links []*netem.Link) {
		sw := ft.Agg[0][0]
		links = sw.EgressLinks()
		for _, li := range ft.Links() {
			if li.Dst() == netem.Receiver(sw) {
				links = append(links, li.Link)
			}
		}
		return
	}()
	// k=4: agg0.0 has 2 edge-down + 2 core-up egress links and 4 ingress.
	if len(attached) != 8 {
		t.Fatalf("agg0.0 has %d attached links, want 8", len(attached))
	}
	eng.Run(sim.Time(2 * ms)) // mid-failure
	for _, l := range attached {
		if !l.Down() {
			t.Fatalf("link %s not down during switch failure", l.Name)
		}
	}
	eng.Run(sim.Time(4 * ms)) // healed
	for _, l := range attached {
		if l.Down() {
			t.Fatalf("link %s still down after heal", l.Name)
		}
	}
	if inj.Applied() != 1 {
		t.Fatalf("applied %d events, want 1", inj.Applied())
	}
}

// chaosRunDigest runs the Random pattern on a lossy k=4 fat-tree under the
// demo schedule and digests everything observable: flow counts, bytes,
// goodput and FCT distributions, and the exact engine event count. Any
// nondeterminism in the fault path shows up as a digest mismatch.
func chaosRunDigest(t *testing.T, seed int64) string {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	ft := lossyFatTree(eng, 4, rng.Fork(99))
	col := workload.NewCollector(4)
	base := workload.Config{
		Net:       ft,
		RNG:       rng,
		Scheme:    workload.Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2},
		Transport: transport.DefaultConfig(),
		Collector: col,
		Stop:      sim.Time(30 * ms),
		Arena:     mptcp.NewArena(),
	}
	workload.StartRandom(workload.RandomConfig{
		Config:          base,
		ParetoMeanBytes: 192 << 20 / 2048,
		ParetoMaxBytes:  768 << 20 / 2048,
		MaxFlowsPerDst:  4,
	})
	inj, err := chaos.New(ft.Network, demoSchedule())
	if err != nil {
		t.Fatal(err)
	}
	inj.Install()
	eng.RunAll(2_000_000_000)
	if inj.Applied() != len(demoSchedule().Events) {
		t.Fatalf("applied %d of %d events", inj.Applied(), len(demoSchedule().Events))
	}
	return fmt.Sprintf("flows=%d bytes=%d goodput=%.6f fctN=%d fctMean=%.6f events=%d now=%d",
		col.FlowsCompleted, col.BytesMoved, col.Goodput.Mean(),
		col.FCT.N(), col.FCT.Mean(), eng.Processed(), int64(eng.Now()))
}

func TestFaultScheduleDeterminism(t *testing.T) {
	a := chaosRunDigest(t, 42)
	b := chaosRunDigest(t, 42)
	if a != b {
		t.Fatalf("same schedule + seed produced different runs:\n  a %s\n  b %s", a, b)
	}
	// The faults must actually bite: a fault-free run differs.
	if c := cleanRunDigest(t, 42); c == a {
		t.Fatalf("chaos run indistinguishable from clean run: %s", a)
	}
}

// cleanRunDigest is chaosRunDigest without installing the injector.
func cleanRunDigest(t *testing.T, seed int64) string {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	ft := lossyFatTree(eng, 4, rng.Fork(99))
	col := workload.NewCollector(4)
	base := workload.Config{
		Net:       ft,
		RNG:       rng,
		Scheme:    workload.Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2},
		Transport: transport.DefaultConfig(),
		Collector: col,
		Stop:      sim.Time(30 * ms),
		Arena:     mptcp.NewArena(),
	}
	workload.StartRandom(workload.RandomConfig{
		Config:          base,
		ParetoMeanBytes: 192 << 20 / 2048,
		ParetoMaxBytes:  768 << 20 / 2048,
		MaxFlowsPerDst:  4,
	})
	eng.RunAll(2_000_000_000)
	return fmt.Sprintf("flows=%d bytes=%d goodput=%.6f fctN=%d fctMean=%.6f events=%d now=%d",
		col.FlowsCompleted, col.BytesMoved, col.Goodput.Mean(),
		col.FCT.N(), col.FCT.Mean(), eng.Processed(), int64(eng.Now()))
}

// TestKillLinkMidTransmitFlowRecovers flaps the sender's NIC while its flow
// has packets in flight: everything queued and serializing dies, the
// transport RTOs, and after the heal the flow still completes and delivers
// every byte.
func TestKillLinkMidTransmitFlowRecovers(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(3)
	ft := lossyFatTree(eng, 4, rng.Fork(99))
	col := workload.NewCollector(1)
	cfg := workload.Config{
		Net:       ft,
		RNG:       rng,
		Scheme:    workload.Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2},
		Transport: transport.DefaultConfig(),
		Collector: col,
		Stop:      sim.Time(ms),
	}
	const bytes = 2 << 20
	done := false
	workload.LaunchFlow(&cfg, 0, 12, bytes, func(f *mptcp.Flow) {
		done = true
		if got := f.AckedBytes(); got != bytes {
			t.Fatalf("flow completed with %d acked bytes, want %d", got, bytes)
		}
	})
	// Both subflows share host 0's single NIC: downing it mid-transfer
	// kills the in-flight window of every subflow at once.
	sched := chaos.Schedule{Events: []chaos.Event{
		{At: ms, Kind: chaos.LinkDown, Target: "h0.0.0->edge0.0", Dur: 2 * ms},
	}}
	inj, err := chaos.New(ft.Network, sched)
	if err != nil {
		t.Fatal(err)
	}
	inj.Install()
	eng.RunAll(1_000_000_000)
	if !done {
		t.Fatal("flow never completed after mid-transmit link kill")
	}
	// Recovery is via retransmission timeout, so completion is well after
	// the heal at 3 ms.
	if eng.Now() < sim.Time(3*ms) {
		t.Fatalf("run ended at %v, before the link healed", sim.Duration(eng.Now()))
	}
	if col.FlowsCompleted != 1 {
		t.Fatalf("collector saw %d completed flows, want 1", col.FlowsCompleted)
	}
}
