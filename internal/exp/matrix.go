package exp

import (
	"fmt"
	"io"
	"slices"

	"xmp/internal/topo"
	"xmp/internal/workload"
)

// Matrix holds the row x scheme fabric results that Tables 1 and 3 and
// Figures 8-11 are all derived from, so the full evaluation reuses 15 runs
// instead of re-simulating per table. A row is a pattern and what it
// changes of the cell (Row); the sweeps beyond the paper are matrices too,
// read through the views at the bottom of this file.
type Matrix struct {
	Rows    []Row
	Schemes []workload.Scheme
	// Results[row][workload.SchemeString(scheme)].
	Results map[Row]map[string]*FatTreeResult
}

// MatrixPlan plans the (row, scheme) grid on the base cell. Cell i is
// (rows[i/len(schemes)], schemes[i%len(schemes)]): the row-major indexing
// the campaign has always used. desc is the canonical description of every
// knob that shapes the cells; the caller owns it (internal/scenario passes
// the resolved spec), so the grid has one definition and one description.
func MatrixPlan(desc string, base CellConfig, rows []Row, schemes []workload.Scheme) Plan[*FatTreeResult] {
	return Plan[*FatTreeResult]{
		Desc:  desc,
		Cells: len(rows) * len(schemes),
		Run: func(w *Worker, i int) *FatTreeResult {
			ri, si := gridRC(i, len(schemes))
			return RunFatTree(w, base, rows[ri], schemes[si])
		},
		Progress: RenderFatTreeRun,
	}
}

// assembleMatrix rebuilds the Matrix from a shard set's cells, its axes
// read off the cells themselves. Coming from JSON, each cell's
// distributions are restored sample-for-sample (with the exact
// insertion-order sum), so every rendered table is byte-identical to the
// unsharded run's.
func assembleMatrix(results []*FatTreeResult) (*Matrix, error) {
	if i := slices.Index(results, nil); i >= 0 {
		return nil, fmt.Errorf("matrix: cell %d is null", i)
	}
	rows, labels, err := gridAxes(len(results), func(i int) (Row, string) {
		return results[i].Row, workload.SchemeString(results[i].Scheme)
	})
	if err != nil {
		return nil, fmt.Errorf("matrix: %v", err)
	}
	m := &Matrix{Rows: rows, Results: make(map[Row]map[string]*FatTreeResult)}
	for _, r := range results[:len(labels)] {
		m.Schemes = append(m.Schemes, r.Scheme)
	}
	for _, row := range rows {
		m.Results[row] = make(map[string]*FatTreeResult)
	}
	for _, r := range results {
		m.Results[r.Row][workload.SchemeString(r.Scheme)] = r
	}
	return m, nil
}

// Get returns the result for (row, scheme), nil if the matrix has none.
func (m *Matrix) Get(row Row, s workload.Scheme) *FatTreeResult {
	return m.Results[row][workload.SchemeString(s)]
}

// has reports whether the matrix has the plain row of pattern p.
func (m *Matrix) has(p Pattern) bool { return m.Results[Row{Pattern: p}] != nil }

// RenderTable1 prints average goodput (Mbps) per scheme per pattern —
// the paper's Table 1.
func (m *Matrix) RenderTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Average Goodput (Mbps)")
	widths := []int{10}
	header := []string{"scheme"}
	for _, row := range m.Rows {
		widths = append(widths, 14)
		header = append(header, row.String())
	}
	tb := newTable(w, widths...)
	tb.row(header...)
	tb.rule()
	for _, s := range m.Schemes {
		cells := []string{workload.SchemeString(s)}
		for _, row := range m.Rows {
			cells = append(cells, f1(m.Get(row, s).Collector.Goodput.Mean()))
		}
		tb.row(cells...)
	}
}

// RenderTable3 prints average Incast job completion time and the fraction
// of jobs above 300 ms — the paper's Table 3.
func (m *Matrix) RenderTable3(w io.Writer) {
	fmt.Fprintln(w, "Table 3: Average Job Completion Time (ms)")
	tb := newTable(w, 10, 12, 12, 10)
	tb.row("scheme", "time(ms)", ">300ms", "jobs")
	tb.rule()
	for _, s := range m.Schemes {
		r := m.Get(Row{Pattern: Incast}, s)
		if r == nil {
			continue
		}
		jct := r.Collector.JCT
		tb.row(workload.SchemeString(s), f1(jct.Mean()), pct(jct.FractionAbove(300)), fmt.Sprintf("%d", jct.N()))
	}
}

// fig8Quantiles are the CDF points printed for the goodput distributions.
var fig8Quantiles = []float64{5, 10, 25, 50, 75, 90, 95}

// RenderFig8 prints the goodput distributions: CDF quantiles per scheme
// for the Permutation and Incast patterns (panels a, b) and the
// 10th/50th/90th percentile goodput by locality (panels c, d).
func (m *Matrix) RenderFig8(w io.Writer) {
	for _, p := range []Pattern{Permutation, Incast} {
		if !m.has(p) {
			continue
		}
		fmt.Fprintf(w, "Figure 8(%s): goodput CDF quantiles (Mbps), %s pattern\n", map[Pattern]string{Permutation: "a", Incast: "b"}[p], p)
		widths := []int{10}
		header := []string{"scheme"}
		for _, q := range fig8Quantiles {
			widths = append(widths, 9)
			header = append(header, fmt.Sprintf("p%.0f", q))
		}
		tb := newTable(w, widths...)
		tb.row(header...)
		tb.rule()
		for _, s := range m.Schemes {
			cells := []string{workload.SchemeString(s)}
			for _, q := range fig8Quantiles {
				cells = append(cells, f1(m.Get(Row{Pattern: p}, s).Collector.Goodput.Percentile(q)))
			}
			tb.row(cells...)
		}
		fmt.Fprintln(w)
	}
	for _, p := range []Pattern{Permutation, Incast} {
		if !m.has(p) {
			continue
		}
		fmt.Fprintf(w, "Figure 8(%s): goodput by locality (Mbps, p10/p50/p90 [min,max]), %s pattern\n",
			map[Pattern]string{Permutation: "c", Incast: "d"}[p], p)
		cats := []topo.Category{topo.InterPod, topo.InterRack, topo.InnerRack}
		widths := []int{10, 28, 28, 28}
		tb := newTable(w, widths...)
		tb.row("scheme", "Inter-Pod", "Inter-Rack", "Inner-Rack")
		tb.rule()
		for _, s := range m.Schemes {
			cells := []string{workload.SchemeString(s)}
			for _, cat := range cats {
				d := m.Get(Row{Pattern: p}, s).Collector.GoodputByCat[cat]
				if d.N() == 0 {
					cells = append(cells, "-")
					continue
				}
				cells = append(cells, fmt.Sprintf("%s/%s/%s [%s,%s]",
					f1(d.Percentile(10)), f1(d.Percentile(50)), f1(d.Percentile(90)), f1(d.Min()), f1(d.Max())))
			}
			tb.row(cells...)
		}
		fmt.Fprintln(w)
	}
}

// fig9Points are the times (ms) at which the JCT CDF is printed; spaced
// to expose the 200 ms RTO jumps.
var fig9Points = []float64{10, 15, 25, 50, 100, 150, 200, 250, 300, 400, 500}

// RenderFig9 prints the Incast job-completion-time CDFs.
func (m *Matrix) RenderFig9(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: Job Completion Time CDF (fraction of jobs done by t)")
	widths := []int{10}
	header := []string{"scheme"}
	for _, t := range fig9Points {
		widths = append(widths, 8)
		header = append(header, fmt.Sprintf("%gms", t))
	}
	tb := newTable(w, widths...)
	tb.row(header...)
	tb.rule()
	for _, s := range m.Schemes {
		r := m.Get(Row{Pattern: Incast}, s)
		if r == nil {
			continue
		}
		cells := []string{workload.SchemeString(s)}
		for _, t := range fig9Points {
			cells = append(cells, f2(r.Collector.JCT.CDFAt(t)))
		}
		tb.row(cells...)
	}
}

// RenderFig10 prints RTT distributions (ms) by locality per pattern.
func (m *Matrix) RenderFig10(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: RTT distributions (ms, mean/p50/p95)")
	for _, row := range m.Rows {
		fmt.Fprintf(w, "  %s pattern\n", row.String())
		tb := newTable(w, 10, 22, 22, 22)
		tb.row("scheme", "Inter-Pod", "Inter-Rack", "Inner-Rack")
		tb.rule()
		for _, s := range m.Schemes {
			r := m.Get(row, s)
			cells := []string{workload.SchemeString(s)}
			for _, cat := range []topo.Category{topo.InterPod, topo.InterRack, topo.InnerRack} {
				d := r.Collector.RTT[cat]
				if d.N() == 0 {
					cells = append(cells, "-")
					continue
				}
				cells = append(cells, fmt.Sprintf("%s/%s/%s", f2(d.Mean()), f2(d.Percentile(50)), f2(d.Percentile(95))))
			}
			tb.row(cells...)
		}
		fmt.Fprintln(w)
	}
}

// RenderFig11 prints link utilization per layer per pattern: median with
// the min-max spread (the length of the paper's vertical lines measures
// imbalance).
func (m *Matrix) RenderFig11(w io.Writer) {
	fmt.Fprintln(w, "Figure 11: Link Utilization (median [min,max] per layer)")
	for _, row := range m.Rows {
		fmt.Fprintf(w, "  %s pattern\n", row.String())
		tb := newTable(w, 10, 24, 24, 24)
		tb.row("scheme", "Core", "Aggregation", "Rack")
		tb.rule()
		for _, s := range m.Schemes {
			r := m.Get(row, s)
			cells := []string{workload.SchemeString(s)}
			for _, layer := range []string{topo.LayerCore, topo.LayerAggregation, topo.LayerRack} {
				d := r.UtilByLayer[layer]
				cells = append(cells, fmt.Sprintf("%s [%s,%s]", f2(d.Percentile(50)), f2(d.Min()), f2(d.Max())))
			}
			tb.row(cells...)
		}
		fmt.Fprintln(w)
	}
}

// The views below are the sweeps beyond the paper's tables, each a
// matrix spec that selects its view through "metrics" (scenarios/): they
// read the matrix laid out as that spec lays it out, and print nothing
// where a row or scheme they pair up is missing.

// RenderSweep prints goodput and completed flows by subflow count, one
// table per row: the "sweep" view.
func (m *Matrix) RenderSweep(w io.Writer) {
	for i, row := range m.Rows {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "Subflow sweep: %s on %s\n", m.Schemes[0].Algorithm, row)
		tb := newTable(w, 10, 16, 10)
		tb.row("subflows", "goodput(Mbps)", "flows")
		tb.rule()
		for _, s := range m.Schemes {
			col := m.Get(row, s).Collector
			tb.row(fmt.Sprintf("%d", s.Subflows), f1(col.Goodput.Mean()), fmt.Sprintf("%d", col.FlowsCompleted))
		}
	}
}

// RenderParams prints the (β, K) grid, a line per scheme labelled by its β
// and a column per row headed by its marking threshold, each cell goodput
// (Mbps) / mean inter-pod RTT (ms): the "params" view.
func (m *Matrix) RenderParams(w io.Writer) {
	fmt.Fprintf(w, "Parameter sensitivity: %s, %s pattern (goodput Mbps / inter-pod RTT ms)\n", m.Schemes[0].Label(), m.Rows[0].Pattern)
	widths := []int{8}
	header := []string{"beta\\K"}
	for _, row := range m.Rows {
		widths = append(widths, 16)
		header = append(header, fmt.Sprintf("K=%d", row.MarkThreshold))
	}
	tb := newTable(w, widths...)
	tb.row(header...)
	tb.rule()
	for _, s := range m.Schemes {
		cells := []string{fmt.Sprintf("%d", s.Beta)}
		for _, row := range m.Rows {
			col := m.Get(row, s).Collector
			cells = append(cells, fmt.Sprintf("%.0f / %.2f", col.Goodput.Mean(), col.RTT[topo.InterPod].Mean()))
		}
		tb.row(cells...)
	}
}

// RenderIncastSweep prints job completion and background goodput by
// fan-in, one table per scheme and a line per row: the "incastsweep" view.
func (m *Matrix) RenderIncastSweep(w io.Writer) {
	for i, s := range m.Schemes {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "Incast fan-in sweep: %s background, 2KB requests / 64KB responses\n", workload.SchemeString(s))
		tb := newTable(w, 10, 8, 12, 12, 10, 14)
		tb.row("servers", "jobs", "jct p50", "jct p99", ">300ms", "bg Mbps")
		tb.rule()
		for _, row := range m.Rows {
			r := m.Get(row, s)
			jct := r.Collector.JCT
			tb.row(fmt.Sprintf("%d", r.IncastServers), fmt.Sprintf("%d", jct.N()),
				f1(jct.Percentile(50)), f1(jct.Percentile(99)), pct(jct.FractionAbove(300)), f1(r.Collector.Goodput.Mean()))
		}
	}
}

// RenderSACK contrasts each scheme's goodput on a row without SACK and on
// the same row with it, one table per such pair: the "sack" view.
func (m *Matrix) RenderSACK(w io.Writer) {
	tables := 0
	for _, plain := range m.Rows {
		with := plain
		with.SACK = true
		if plain.SACK || m.Results[with] == nil {
			continue
		}
		if tables++; tables > 1 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "SACK ablation: %s pattern goodput (Mbps), loss-based schemes\n", plain)
		tb := newTable(w, 10, 14, 14, 10)
		tb.row("scheme", "NewReno", "with SACK", "gain")
		tb.rule()
		for _, s := range m.Schemes {
			p, g := m.Get(plain, s).Collector.Goodput.Mean(), m.Get(with, s).Collector.Goodput.Mean()
			gain := "-"
			if p > 0 {
				gain = fmt.Sprintf("%+.0f%%", 100*(g-p)/p)
			}
			tb.row(workload.SchemeString(s), f1(p), f1(g), gain)
		}
	}
}

// RenderVL2 prints goodput, inter-pod RTT, completed flows and drops by
// scheme, one table per row: the "vl2" view.
func (m *Matrix) RenderVL2(w io.Writer) {
	for i, row := range m.Rows {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "VL2 Clos (32 servers): %s-pattern goodput by scheme\n", row)
		tb := newTable(w, 10, 16, 12, 8, 10)
		tb.row("scheme", "goodput(Mbps)", "rtt(ms)", "flows", "drops")
		tb.rule()
		for _, s := range m.Schemes {
			r := m.Get(row, s)
			col := r.Collector
			tb.row(workload.SchemeString(s), f1(col.Goodput.Mean()), f2(col.RTT[topo.InterPod].Mean()),
				fmt.Sprintf("%d", col.FlowsCompleted), fmt.Sprintf("%d", r.Drops))
		}
	}
}
