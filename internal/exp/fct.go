package exp

import (
	"fmt"
	"io"
	"slices"

	"xmp/internal/workload"
)

// This file is the short-flow FCT cell: the million-short-flow regime the
// flow-graph arena exists for, reported as flow-completion-time
// percentiles.
//
// The fct campaign itself is scenarios/fct.json and nothing else: two
// bounded-Pareto closed loops sketching the published DCN traces at the
// simulator's reduced scale (web-search: mostly tens of kilobytes with a
// bounded heavy tail; data-mining: an order of magnitude heavier in mean
// and bound), and a 10,240-sender incast burst — 80-81 worker processes
// on each of the k=8 fabric's 127 non-client hosts — under plain TCP,
// DCTCP and XMP-2, so the campaign contrasts incast mitigations instead
// of only demonstrating the collapse. The burst cells are one
// synchronized round each: duration does not gate them (Rounds does), so
// their cost is fan-in-driven and timescale-independent, like the paper's
// fixed-size jobs.

// FCTCellConfig parameterizes one short-flow cell: a cell, a scheme, and
// exactly one generator — a bounded-Pareto closed loop (Short) or a
// synchronized incast burst (Incast). The scenario compiler's fct family
// lowers onto FCTPlan.
type FCTCellConfig struct {
	Cell CellConfig
	// Scheme is the incast senders' transfer scheme, used only when
	// Incast.UseScheme is set (unset is the plain-TCP baseline).
	// Short-flow loops are always plain TCP and ignore it.
	Scheme workload.Scheme
	// Exactly one of Short / Incast must be non-nil; its embedded
	// workload.Config is overwritten with the cell's.
	Short  *workload.ShortFlowsConfig
	Incast *workload.IncastBurstConfig
}

// FCTPlan plans a cell per config, labelled by labels and described by
// desc as MatrixPlan's are. Each records completion times only (FCT and
// JCT), is reduced to the metrics of the tables desc selects and hands its
// collector back.
func FCTPlan(desc string, labels []string, cells []FCTCellConfig) Plan[*ListCell] {
	reads := fctFamily.reads(scenarioMetrics(desc))
	return Plan[*ListCell]{
		Desc:  desc,
		Cells: len(cells),
		Run: func(w *Worker, i int) *ListCell {
			cfg := cells[i]
			cfg.Cell.skip |= workload.SeriesGoodput | workload.SeriesRTT
			c := NewCell(w, cfg.Cell, cfg.Scheme)
			r := runFCT(c, cfg)
			cell := &ListCell{Label: labels[i], Metrics: reduce(r, reads), line: reduce(r, fctLine)}
			c.handBack()
			return cell
		},
		Progress: func(w io.Writer, c *ListCell) {
			v := c.line
			fmt.Fprintf(w, "fct %-10s flows=%-6d p50=%7.3fms p99=%8.3fms p999=%8.3fms drops=%d\n",
				c.Label, int(v["fct.n"]), v["fct.p50"], v["fct.p99"], v["fct.p99.9"], int64(v["drops"]))
		},
	}
}

// fctLine is what an fct cell's progress line prints.
var fctLine = []string{"fct.n", "fct.p50", "fct.p99", "fct.p99.9", "drops"}

// runFCT starts cfg's generator on c, the cell built for it, and runs the
// cell.
func runFCT(c *Cell, cfg FCTCellConfig) *FatTreeResult {
	// launched is read only after the run, when the generator's closed
	// loops have stopped relaunching.
	var launched *int
	switch {
	case cfg.Short != nil && cfg.Incast == nil:
		s := *cfg.Short
		s.Config = c.Base
		launched = &workload.StartShortFlows(s).Launched
	case cfg.Incast != nil && cfg.Short == nil:
		b := *cfg.Incast
		b.Config = c.Base
		launched = &workload.StartIncastBurst(b).Launched
	default:
		panic("exp: FCTCellConfig wants exactly one of Short / Incast")
	}
	c.Run()
	return &FatTreeResult{Scheme: c.Base.Scheme, Collector: c.Base.Collector, Drops: c.Drops(), Launched: *launched}
}

// What the fct and robustness tables read off a cell.
var (
	fctTail                = names("fct", quantiles(50, 95, 99, 99.9)...)
	fctSummaryReads        = slices.Concat([]string{"launched", "fct.n"}, fctTail, []string{"drops"})
	robustnessSummaryReads = slices.Concat([]string{"goodput.mean", "flows", "faults"}, fctTail, []string{"drops"})
	fctByBin               = each("fct", fctBins, binStats)
	bySizeReads            = values(fctByBin)
)

// RenderFCTSummary prints the headline per-cell percentile table — the
// "summary" metric of scenario fct specs.
func RenderFCTSummary(w io.Writer, cells []*ListCell) {
	fmt.Fprintln(w, "Flow completion times: bounded-Pareto short flows and a 10k-sender incast burst under TCP/DCTCP/XMP-2 (k=8 fat-tree)")
	tb := newTable(w, 14, 9, 9, 11, 11, 11, 11, 9)
	tb.row("cell", "launched", "flows", "p50 ms", "p95 ms", "p99 ms", "p999 ms", "drops")
	tb.rule()
	for _, c := range cells {
		tb.row(c.Label, fmt.Sprintf("%.0f", c.Metric("launched")), fmt.Sprintf("%.0f", c.Metric("fct.n")),
			f3(c.Metric("fct.p50")), f3(c.Metric("fct.p95")), f3(c.Metric("fct.p99")), f3(c.Metric("fct.p99.9")),
			fmt.Sprintf("%.0f", c.Metric("drops")))
	}
}

// renderBySize is the "by-size" table of fct and robustness specs, headed
// header over a label column width wide: a row per cell and size bin (the
// paper's "small flows p99 vs large flows" cut), an empty bin as dashes so
// the table keeps its shape.
func renderBySize(header string, width int) func(io.Writer, []*ListCell) {
	return func(w io.Writer, cells []*ListCell) {
		fmt.Fprintln(w, "By flow size (acknowledged bytes at completion)")
		sb := newTable(w, width, 10, 9, 11, 11, 11)
		sb.row(header, "size", "flows", "p50 ms", "p99 ms", "p999 ms")
		sb.rule()
		for _, c := range cells {
			for i, b := range fctByBin {
				n := c.Metric(b["n"])
				if n == 0 {
					sb.row(c.Label, workload.FCTBinLabel(i), "0", "-", "-", "-")
					continue
				}
				sb.row(c.Label, workload.FCTBinLabel(i), fmt.Sprintf("%.0f", n),
					f3(c.Metric(b["p50"])), f3(c.Metric(b["p99"])), f3(c.Metric(b["p99.9"])))
			}
		}
	}
}
