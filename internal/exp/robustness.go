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

// ChaosPlan plans a cell per config, labelled by labels and described by
// desc as MatrixPlan's are. Each records goodput and completion times, no
// RTT, is reduced to the metrics of the tables desc selects and hands its
// collector back.
func ChaosPlan(desc string, labels []string, cells []ChaosCellConfig) Plan[*ListCell] {
	reads := robustnessFamily.reads(scenarioMetrics(desc))
	return Plan[*ListCell]{
		Desc:  desc,
		Cells: len(cells),
		Run: func(w *Worker, i int) *ListCell {
			cfg := cells[i]
			cfg.Cell.skip |= workload.SeriesRTT
			c := NewCell(w, cfg.Cell, cfg.Scheme)
			r := runChaos(c, cfg)
			cell := &ListCell{Label: labels[i], Metrics: reduce(r, reads), line: reduce(r, robustnessLine)}
			c.handBack()
			return cell
		},
		Progress: func(w io.Writer, c *ListCell) {
			v := c.line
			fmt.Fprintf(w, "robustness %-6s goodput=%6.1f Mbps flows=%-5d p99=%8.3fms faults=%d\n",
				c.Label, v["goodput.mean"], int(v["flows"]), v["fct.p99"], int(v["faults"]))
		},
	}
}

// robustnessLine is what a robustness cell's progress line prints.
var robustnessLine = []string{"goodput.mean", "flows", "fct.p99", "faults"}

// runChaos starts cfg's generators on c, the cell built for it, and runs
// the cell.
func runChaos(c *Cell, cfg ChaosCellConfig) *FatTreeResult {
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
	return &FatTreeResult{Scheme: c.Base.Scheme, Collector: c.Base.Collector, Drops: c.Drops(), Faults: c.Faults}
}

// RenderRobustnessSummary prints the headline per-scheme table — the
// "summary" metric of scenario robustness specs.
func RenderRobustnessSummary(w io.Writer, cells []*ListCell) {
	fmt.Fprintln(w, "Robustness under faults: link flap, switch failure, loss burst, delay and jitter (k=8 fat-tree, identical schedule per scheme)")
	tb := newTable(w, 10, 16, 8, 8, 11, 11, 11, 11, 9)
	tb.row("scheme", "goodput(Mbps)", "flows", "faults", "p50 ms", "p95 ms", "p99 ms", "p999 ms", "drops")
	tb.rule()
	for _, c := range cells {
		tb.row(c.Label, f1(c.Metric("goodput.mean")), fmt.Sprintf("%.0f", c.Metric("flows")), fmt.Sprintf("%.0f", c.Metric("faults")),
			f3(c.Metric("fct.p50")), f3(c.Metric("fct.p95")), f3(c.Metric("fct.p99")), f3(c.Metric("fct.p99.9")),
			fmt.Sprintf("%.0f", c.Metric("drops")))
	}
}
