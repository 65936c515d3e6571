package exp

import (
	"fmt"
	"io"
	"slices"

	"xmp/internal/workload"
)

// Matrix holds the row x scheme fabric cells that Tables 1 and 3 and
// Figures 8-11 are all derived from, so the full evaluation reuses 15 runs
// instead of re-simulating per table. A row is a pattern and what it
// changes of the cell (Row); the sweeps beyond the paper are matrices too,
// read through the views at the bottom of this file. Every table and view
// reads its cells' metrics by name (metric.go).
type Matrix struct {
	Rows    []Row
	Schemes []workload.Scheme
	// Results[row][workload.SchemeString(scheme)].
	Results map[Row]map[string]*MatrixCell
}

// MatrixPlan plans the (row, scheme) grid on the base cell. Cell i is
// (rows[i/len(schemes)], schemes[i%len(schemes)]): the row-major indexing
// the campaign has always used. desc is the canonical description of every
// knob that shapes the cells; the caller owns it (internal/scenario passes
// the resolved spec), so the grid has one definition and one description.
// Each cell is reduced to the metrics of the tables and views desc
// selects, read as merge reads them off the manifest, and then hands its
// collector back to the worker.
func MatrixPlan(desc string, base CellConfig, rows []Row, schemes []workload.Scheme) Plan[*MatrixCell] {
	reads := matrixFamily.reads(scenarioMetrics(desc))
	return Plan[*MatrixCell]{
		Desc:  desc,
		Cells: len(rows) * len(schemes),
		Run: func(w *Worker, i int) *MatrixCell {
			ri, si := gridRC(i, len(schemes))
			c := NewCell(w, patternCell(base, rows[ri]), schemes[si])
			cell := reduceCell(runPattern(c, rows[ri]), reads)
			c.handBack()
			return cell
		},
		Progress: func(w io.Writer, c *MatrixCell) { c.writeLine(w) },
	}
}

// assembleMatrix rebuilds the Matrix from a shard set's cells, its axes
// read off the cells themselves, refusing a cell that does not carry
// exactly the metrics reads names.
func assembleMatrix(cells []*MatrixCell, reads []string) (*Matrix, error) {
	for i, c := range cells {
		if c == nil {
			return nil, fmt.Errorf("cell %d is null", i)
		}
		if err := c.Metrics.carries(reads); err != nil {
			return nil, fmt.Errorf("cell %d (%v %v)", i, c, err)
		}
	}
	rows, labels, err := gridAxes(len(cells), func(i int) (Row, string) {
		return cells[i].Row, workload.SchemeString(cells[i].Scheme)
	})
	if err != nil {
		return nil, err
	}
	m := &Matrix{Rows: rows, Results: make(map[Row]map[string]*MatrixCell)}
	for _, c := range cells[:len(labels)] {
		m.Schemes = append(m.Schemes, c.Scheme)
	}
	for _, row := range rows {
		m.Results[row] = make(map[string]*MatrixCell)
	}
	for _, c := range cells {
		m.Results[c.Row][workload.SchemeString(c.Scheme)] = c
	}
	return m, nil
}

// Get returns the cell (row, scheme), nil if the matrix has none.
func (m *Matrix) Get(row Row, s workload.Scheme) *MatrixCell {
	return m.Results[row][workload.SchemeString(s)]
}

// has reports whether the matrix has the plain row of pattern p.
func (m *Matrix) has(p Pattern) bool { return m.Results[Row{Pattern: p}] != nil }

// The names the tables read per locality or layer, and per column.
var (
	goodputByCat = each("goodput", catNames, localStats)
	rttByCat     = each("rtt", catNames, rttStats)
	utilByLayer  = each("util", layers, utilStats)
	fig8Quantile = names("goodput", quantiles(fig8Quantiles...)...)
)

// What each table and view reads off a cell; matrixFamily declares them.
var (
	table1Reads      = []string{"goodput.mean"}
	table3Reads      = names("jct", statMean, statAbove300, statN)
	fig8Reads        = slices.Concat(fig8Quantile, values(goodputByCat))
	fig9Reads        = names("jct", cdfPoints(fig9Points...)...)
	fig10Reads       = values(rttByCat)
	fig11Reads       = values(utilByLayer)
	sweepReads       = []string{"goodput.mean", "flows"}
	paramsReads      = []string{"goodput.mean", "rtt.inter-pod.mean"}
	incastSweepReads = []string{"servers", "jct.n", "jct.p50", "jct.p99", "jct.above300", "goodput.mean"}
	sackReads        = []string{"goodput.mean"}
	vl2Reads         = []string{"goodput.mean", "rtt.inter-pod.mean", "flows", "drops"}
	table2Reads      = []string{"coexist.goodput.mean", "goodput.mean"}
)

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
			cells = append(cells, f1(m.Get(row, s).Metric("goodput.mean")))
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
		c := m.Get(Row{Pattern: Incast}, s)
		if c == nil {
			continue
		}
		tb.row(workload.SchemeString(s), f1(c.Metric("jct.mean")), pct(c.Metric("jct.above300")), fmt.Sprintf("%.0f", c.Metric("jct.n")))
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
			for _, name := range fig8Quantile {
				cells = append(cells, f1(m.Get(Row{Pattern: p}, s).Metric(name)))
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
		tb := newTable(w, 10, 28, 28, 28)
		tb.row("scheme", "Inter-Pod", "Inter-Rack", "Inner-Rack")
		tb.rule()
		for _, s := range m.Schemes {
			c := m.Get(Row{Pattern: p}, s)
			cells := []string{workload.SchemeString(s)}
			for _, d := range goodputByCat {
				if c.Metric(d["n"]) == 0 {
					cells = append(cells, "-")
					continue
				}
				cells = append(cells, fmt.Sprintf("%s/%s/%s [%s,%s]",
					f1(c.Metric(d["p10"])), f1(c.Metric(d["p50"])), f1(c.Metric(d["p90"])), f1(c.Metric(d["min"])), f1(c.Metric(d["max"]))))
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
		c := m.Get(Row{Pattern: Incast}, s)
		if c == nil {
			continue
		}
		cells := []string{workload.SchemeString(s)}
		for _, name := range fig9Reads {
			cells = append(cells, f2(c.Metric(name)))
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
			c := m.Get(row, s)
			cells := []string{workload.SchemeString(s)}
			for _, d := range rttByCat {
				if c.Metric(d["n"]) == 0 {
					cells = append(cells, "-")
					continue
				}
				cells = append(cells, fmt.Sprintf("%s/%s/%s", f2(c.Metric(d["mean"])), f2(c.Metric(d["p50"])), f2(c.Metric(d["p95"]))))
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
			c := m.Get(row, s)
			cells := []string{workload.SchemeString(s)}
			for _, d := range utilByLayer {
				cells = append(cells, fmt.Sprintf("%s [%s,%s]", f2(c.Metric(d["p50"])), f2(c.Metric(d["min"])), f2(c.Metric(d["max"]))))
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
			c := m.Get(row, s)
			tb.row(fmt.Sprintf("%d", s.Subflows), f1(c.Metric("goodput.mean")), fmt.Sprintf("%.0f", c.Metric("flows")))
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
			c := m.Get(row, s)
			cells = append(cells, fmt.Sprintf("%.0f / %.2f", c.Metric("goodput.mean"), c.Metric("rtt.inter-pod.mean")))
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
			c := m.Get(row, s)
			tb.row(fmt.Sprintf("%.0f", c.Metric("servers")), fmt.Sprintf("%.0f", c.Metric("jct.n")),
				f1(c.Metric("jct.p50")), f1(c.Metric("jct.p99")), pct(c.Metric("jct.above300")), f1(c.Metric("goodput.mean")))
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
			p, g := m.Get(plain, s).Metric("goodput.mean"), m.Get(with, s).Metric("goodput.mean")
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
			c := m.Get(row, s)
			tb.row(workload.SchemeString(s), f1(c.Metric("goodput.mean")), f2(c.Metric("rtt.inter-pod.mean")),
				fmt.Sprintf("%.0f", c.Metric("flows")), fmt.Sprintf("%.0f", c.Metric("drops")))
		}
	}
}

// RenderTable2 prints the paper's Table 2: one table per group of Coexist
// rows that differ in their queue limit alone — the two switch variants of
// scenarios/table2.json — a blank line between them, with a column per queue
// and a line per scheme, each cell the coexisting half's average goodput
// against the scheme's half's (Mbps): the "table2" view.
func (m *Matrix) RenderTable2(w io.Writer) {
	group := func(row Row) Row { row.QueueLimit = 0; return row }
	var groups []Row
	for _, row := range m.Rows {
		if row.Coexist != "" && !slices.Contains(groups, group(row)) {
			groups = append(groups, group(row))
		}
	}
	for i, g := range groups {
		coexist, _ := workload.ParseScheme(g.Coexist) // a label the cell ran, so it parses
		variant := "non-ECT uses full buffer"
		if g.StrictNonECT {
			variant = "RED-strict: non-ECT dropped above K"
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "Table 2: Average Goodput (Mbps), %s pattern, %s coexisting (%s)\n", g.Pattern, g.Coexist, variant)
		var cols []Row
		widths, header := []int{16}, []string{"pairing"}
		for _, row := range m.Rows {
			if group(row) != g {
				continue
			}
			cols = append(cols, row)
			queue := "queue (topology's)"
			if row.QueueLimit != 0 {
				queue = fmt.Sprintf("queue %d pkts", row.QueueLimit)
			}
			widths, header = append(widths, 18), append(header, queue)
		}
		tb := newTable(w, widths...)
		tb.row(header...)
		tb.rule()
		for _, s := range m.Schemes {
			cells := []string{fmt.Sprintf("%s : %s", coexist.Algorithm, workload.SchemeString(s))}
			for _, row := range cols {
				c := m.Get(row, s)
				cells = append(cells, fmt.Sprintf("%s : %s", f1(c.Metric("coexist.goodput.mean")), f1(c.Metric("goodput.mean"))))
			}
			tb.row(cells...)
		}
	}
}
