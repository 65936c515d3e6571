package exp

import (
	"fmt"
	"io"

	"xmp/internal/chaos"
	"xmp/internal/mptcp"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
	"xmp/internal/workload"
)

// This file is the robustness cell: one congestion-control scheme on a
// fabric under a deterministic fault schedule. A cell runs the Random
// large-flow pattern (goodput, under the cell's scheme) alongside a
// plain-TCP short-flow loop (FCT probes) while the chaos injector replays
// its script. Faults are calendar events like everything else, so cells
// shard, dispatch and merge byte-identically to a serial run.
//
// The robustness campaign itself — scheme axis, lossy k=8 fabric,
// generator sizes and the canonical fault script — is
// scenarios/robustness.json (with robustness.chaos.json) and nothing
// else. Every fault in that script heals before the 40 ms generator stop,
// so completions drain and goodput compares steady recovery, not
// truncated flows; event times do not scale with -timescale (the schedule
// is part of the hashed config).

// RobustnessPoint is one scheme's outcome under the fault schedule.
type RobustnessPoint struct {
	Scheme string
	// GoodputMbps averages the Random pattern's per-flow goodput — the
	// large-flow throughput cost of the faults.
	GoodputMbps float64
	// Flows counts all completed flows (large + probe).
	Flows int
	// Faults counts chaos events applied (sanity: always the full script).
	Faults int
	// FCT percentiles over every completion, in milliseconds. Fault-hit
	// flows recover via RTO, so the tail stretches toward the 200 ms RTOMin.
	P50Ms, P95Ms, P99Ms, P999Ms float64
	Drops                       int64
	// BySize slices the completion times by flow size, indexed by
	// workload.FCTSizeBin — the "small flows pay the RTO tail" cut.
	BySize [workload.FCTBins]FCTBinPoint
}

// ChaosCellConfig parameterizes one fault-campaign cell: a fabric, the
// workload generators to start on it, a scheme, and an optional fault
// schedule.
type ChaosCellConfig struct {
	Scheme   workload.Scheme
	Duration sim.Duration // simulated horizon; 0 means 40 ms
	Seed     int64        // cell RNG seed; 0 means 1
	// Lossy forks a loss RNG off the cell RNG — before anything else
	// consumes it, preserving the canonical robustness stream order — and
	// hands it to Fabric. Loss-burst events require a Lossy fabric.
	Lossy bool
	// Fabric builds the cell's network on eng and returns both the
	// workload-facing fabric and the netem graph (for fault-target
	// resolution and drop accounting). lossRNG is non-nil iff Lossy is
	// set. Required.
	Fabric func(eng *sim.Engine, lossRNG *sim.RNG) (topo.Fabric, *topo.Network)
	// Random and Short start the corresponding generators when non-nil;
	// their embedded workload.Config is overwritten with the cell's.
	Random *workload.RandomConfig
	Short  *workload.ShortFlowsConfig
	// Schedule, when non-nil, is installed before the run. Targets must
	// resolve against the fabric; callers that accept untrusted specs
	// (internal/scenario) pre-resolve targets before reaching this point,
	// so a failure here is a logic bug and panics.
	Schedule *chaos.Schedule
}

// RunChaosCell runs one parameterized fault-campaign cell: the scenario
// compiler's robustness family lowers onto it.
func RunChaosCell(cfg ChaosCellConfig) RobustnessPoint {
	if cfg.Duration == 0 {
		cfg.Duration = 40 * sim.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	eng := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)
	var lossRNG *sim.RNG
	if cfg.Lossy {
		lossRNG = rng.Fork(99)
	}
	fab, net := cfg.Fabric(eng, lossRNG)
	col := workload.NewCollector(16)
	base := workload.Config{
		Net:       fab,
		RNG:       rng,
		Scheme:    cfg.Scheme,
		Transport: transport.DefaultConfig(),
		Collector: col,
		Stop:      sim.Time(cfg.Duration),
		Arena:     mptcp.NewArena(),
	}
	if cfg.Random != nil {
		r := *cfg.Random
		r.Config = base
		workload.StartRandom(r)
	}
	if cfg.Short != nil {
		s := *cfg.Short
		s.Config = base
		workload.StartShortFlows(s)
	}
	var inj *chaos.Injector
	if cfg.Schedule != nil {
		var err error
		inj, err = chaos.New(net, *cfg.Schedule)
		if err != nil {
			panic(fmt.Sprintf("exp: chaos schedule does not resolve: %v", err))
		}
		inj.Install()
	}
	eng.RunAll(4_000_000_000)
	p := RobustnessPoint{
		Scheme:      cfg.Scheme.Label(),
		GoodputMbps: col.Goodput.Mean(),
		Flows:       col.FlowsCompleted,
		P50Ms:       col.FCT.Percentile(50),
		P95Ms:       col.FCT.Percentile(95),
		P99Ms:       col.FCT.Percentile(99),
		P999Ms:      col.FCT.Percentile(99.9),
	}
	if inj != nil {
		p.Faults = inj.Applied()
	}
	for i, d := range col.FCTBySize {
		p.BySize[i] = FCTBinPoint{
			Flows:  float64(d.N()),
			P50Ms:  d.Percentile(50),
			P99Ms:  d.Percentile(99),
			P999Ms: d.Percentile(99.9),
		}
	}
	for _, li := range net.Links() {
		p.Drops += li.Queue().Stats().DroppedPackets
	}
	return p
}

// RenderRobustnessSummary prints the headline per-scheme table — the
// "summary" metric of scenario robustness specs.
func RenderRobustnessSummary(w io.Writer, pts []RobustnessPoint) {
	fmt.Fprintln(w, "Robustness under faults: link flap, switch failure, loss burst, delay and jitter (k=8 fat-tree, identical schedule per scheme)")
	tb := newTable(w, 10, 16, 8, 8, 11, 11, 11, 11, 9)
	tb.row("scheme", "goodput(Mbps)", "flows", "faults", "p50 ms", "p95 ms", "p99 ms", "p999 ms", "drops")
	tb.rule()
	for _, p := range pts {
		tb.row(p.Scheme, f1(p.GoodputMbps), fmt.Sprintf("%d", p.Flows), fmt.Sprintf("%d", p.Faults),
			f3(p.P50Ms), f3(p.P95Ms), f3(p.P99Ms), f3(p.P999Ms), fmt.Sprintf("%d", p.Drops))
	}
}

// RenderRobustnessBySize prints the flow-size breakdown — the "by-size"
// metric of scenario robustness specs.
func RenderRobustnessBySize(w io.Writer, pts []RobustnessPoint) {
	fmt.Fprintln(w, "By flow size (acknowledged bytes at completion)")
	sb := newTable(w, 10, 10, 9, 11, 11, 11)
	sb.row("scheme", "size", "flows", "p50 ms", "p99 ms", "p999 ms")
	sb.rule()
	for _, p := range pts {
		for i, b := range p.BySize {
			if b.Flows == 0 {
				sb.row(p.Scheme, workload.FCTBinLabel(i), "0", "-", "-", "-")
				continue
			}
			sb.row(p.Scheme, workload.FCTBinLabel(i), fmt.Sprintf("%.0f", b.Flows),
				f3(b.P50Ms), f3(b.P99Ms), f3(b.P999Ms))
		}
	}
}
