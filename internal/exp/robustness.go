package exp

import (
	"fmt"
	"io"

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

// ChaosCellConfig parameterizes one fault-campaign cell: the cell (fabric,
// seed, horizon, fault schedule), a scheme, and the generators to start.
type ChaosCellConfig struct {
	Cell   CellConfig
	Scheme workload.Scheme
	// Random and Short start the corresponding generators when non-nil;
	// their embedded workload.Config is overwritten with the cell's.
	Random *workload.RandomConfig
	Short  *workload.ShortFlowsConfig
}

// RunChaosCell runs one parameterized fault-campaign cell: the scenario
// compiler's robustness family lowers onto it.
func RunChaosCell(w *Worker, cfg ChaosCellConfig) RobustnessPoint {
	c := NewCell(w, cfg.Cell, cfg.Scheme)
	if cfg.Random != nil {
		r := *cfg.Random
		r.Config = c.Base
		workload.StartRandom(r)
	}
	if cfg.Short != nil {
		s := *cfg.Short
		s.Config = c.Base
		workload.StartShortFlows(s)
	}
	c.Run()
	col := c.Base.Collector
	return RobustnessPoint{
		Scheme:      workload.SchemeString(cfg.Scheme),
		GoodputMbps: col.Goodput.Mean(),
		Flows:       col.FlowsCompleted,
		Faults:      c.Faults,
		P50Ms:       col.FCT.Percentile(50),
		P95Ms:       col.FCT.Percentile(95),
		P99Ms:       col.FCT.Percentile(99),
		P999Ms:      col.FCT.Percentile(99.9),
		Drops:       c.Drops(),
		BySize:      fctBySize(col),
	}
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
	renderBySize(w, "scheme", 10, pts, func(p RobustnessPoint) (string, [workload.FCTBins]FCTBinPoint) {
		return p.Scheme, p.BySize
	})
}
