package exp

import (
	"fmt"
	"io"

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

// FCTPoint is one FCT cell's outcome.
type FCTPoint struct {
	// Cell names the workload ("websearch", "datamining", "incast10k",
	// "incast-dctcp", "incast-xmp2").
	Cell string
	// Launched counts flows started; Flows counts completions measured.
	Launched int
	Flows    int
	// FCT percentiles in milliseconds.
	P50Ms, P95Ms, P99Ms, P999Ms float64
	Drops                       int64
	// BySize slices the same completion times by flow size — the paper's
	// "small flows p99 vs large flows" cut. Indexed by workload.FCTSizeBin
	// (0 ≤ 32 KB, 1 in (32 KB, 1 MB], 2 > 1 MB).
	BySize [workload.FCTBins]FCTBinPoint
}

// FCTBinPoint is one size bin's completion-time tail inside an FCTPoint.
type FCTBinPoint struct {
	Flows                float64
	P50Ms, P99Ms, P999Ms float64
}

// fctBySize folds a collector's per-size completion times into bin points.
func fctBySize(col *workload.Collector) (bins [workload.FCTBins]FCTBinPoint) {
	for i, d := range col.FCTBySize {
		bins[i] = FCTBinPoint{
			Flows:  float64(d.N()),
			P50Ms:  d.Percentile(50),
			P99Ms:  d.Percentile(99),
			P999Ms: d.Percentile(99.9),
		}
	}
	return bins
}

// FCTCellConfig parameterizes one short-flow cell: a cell, a scheme, and
// exactly one generator — a bounded-Pareto closed loop (Short) or a
// synchronized incast burst (Incast). The scenario compiler's fct family
// lowers onto RunFCTCell.
type FCTCellConfig struct {
	Name string
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

// RunFCTCell runs one parameterized short-flow cell.
func RunFCTCell(w *Worker, cfg FCTCellConfig) FCTPoint {
	return runFCT(NewCell(w, cfg.Cell, cfg.Scheme), cfg)
}

// runFCT starts cfg's generator on c, the cell built for it, runs the cell
// and reduces it.
func runFCT(c *Cell, cfg FCTCellConfig) FCTPoint {
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
	col := c.Base.Collector
	return FCTPoint{
		Cell:     cfg.Name,
		Launched: *launched,
		Flows:    col.FCT.N(),
		P50Ms:    col.FCT.Percentile(50),
		P95Ms:    col.FCT.Percentile(95),
		P99Ms:    col.FCT.Percentile(99),
		P999Ms:   col.FCT.Percentile(99.9),
		Drops:    c.Drops(),
		BySize:   fctBySize(col),
	}
}

// RenderFCTSummary prints the headline per-cell percentile table — the
// "summary" metric of scenario fct specs.
func RenderFCTSummary(w io.Writer, pts []FCTPoint) {
	fmt.Fprintln(w, "Flow completion times: bounded-Pareto short flows and a 10k-sender incast burst under TCP/DCTCP/XMP-2 (k=8 fat-tree)")
	tb := newTable(w, 14, 9, 9, 11, 11, 11, 11, 9)
	tb.row("cell", "launched", "flows", "p50 ms", "p95 ms", "p99 ms", "p999 ms", "drops")
	tb.rule()
	for _, p := range pts {
		tb.row(p.Cell, fmt.Sprintf("%d", p.Launched), fmt.Sprintf("%d", p.Flows),
			f3(p.P50Ms), f3(p.P95Ms), f3(p.P99Ms), f3(p.P999Ms), fmt.Sprintf("%d", p.Drops))
	}
}

// RenderFCTBySize prints the per-size-bin slicing of the same
// distributions (the paper's "small flows p99 vs large flows" comparison) —
// the "by-size" metric of scenario fct specs. Empty bins render as dashes so
// the table shape is stable across cells that never produce a size class.
func RenderFCTBySize(w io.Writer, pts []FCTPoint) {
	renderBySize(w, "cell", 14, pts, func(p FCTPoint) (string, [workload.FCTBins]FCTBinPoint) {
		return p.Cell, p.BySize
	})
}

// renderBySize is the one by-size table: a row per (point, size bin), the
// point named in a first column of the given header and width.
func renderBySize[P any](w io.Writer, header string, width int, pts []P,
	row func(P) (string, [workload.FCTBins]FCTBinPoint)) {
	fmt.Fprintln(w, "By flow size (acknowledged bytes at completion)")
	sb := newTable(w, width, 10, 9, 11, 11, 11)
	sb.row(header, "size", "flows", "p50 ms", "p99 ms", "p999 ms")
	sb.rule()
	for _, p := range pts {
		name, bins := row(p)
		for i, b := range bins {
			if b.Flows == 0 {
				sb.row(name, workload.FCTBinLabel(i), "0", "-", "-", "-")
				continue
			}
			sb.row(name, workload.FCTBinLabel(i), fmt.Sprintf("%.0f", b.Flows),
				f3(b.P50Ms), f3(b.P99Ms), f3(b.P999Ms))
		}
	}
}
