package exp

import (
	"fmt"
	"io"
	"slices"

	"xmp/internal/topo"
	"xmp/internal/workload"
)

// Matrix holds the pattern x scheme Fat-Tree results that Tables 1 and 3
// and Figures 8-11 are all derived from, so the full evaluation reuses 15
// runs instead of re-simulating per table.
type Matrix struct {
	Patterns []Pattern
	Schemes  []workload.Scheme
	// Results[pattern][scheme label].
	Results map[Pattern]map[string]*FatTreeResult
}

// MatrixPlan plans the (pattern, scheme) grid on the base cell. Cell i is
// (patterns[i/len(schemes)], schemes[i%len(schemes)]): the row-major
// indexing the campaign has always used. desc is the canonical description
// of every knob that shapes the cells; the caller owns it (internal/scenario
// passes the resolved spec), so the grid has one definition and one
// description.
func MatrixPlan(desc string, base CellConfig, patterns []Pattern, schemes []workload.Scheme) Plan[*FatTreeResult] {
	return Plan[*FatTreeResult]{
		Desc:  desc,
		Cells: len(patterns) * len(schemes),
		Run: func(w *Worker, i int) *FatTreeResult {
			pi, si := gridRC(i, len(schemes))
			return RunFatTree(w, base, patterns[pi], schemes[si])
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
	patterns, labels, err := gridAxes(len(results), func(i int) (Pattern, string) {
		return results[i].Pattern, results[i].Scheme.Label()
	})
	if err != nil {
		return nil, fmt.Errorf("matrix: %v", err)
	}
	m := &Matrix{Patterns: patterns, Results: make(map[Pattern]map[string]*FatTreeResult)}
	for _, r := range results[:len(labels)] {
		m.Schemes = append(m.Schemes, r.Scheme)
	}
	for _, p := range patterns {
		m.Results[p] = make(map[string]*FatTreeResult)
	}
	for _, r := range results {
		m.Results[r.Pattern][r.Scheme.Label()] = r
	}
	return m, nil
}

// Get returns the result for (pattern, scheme).
func (m *Matrix) Get(p Pattern, s workload.Scheme) *FatTreeResult {
	return m.Results[p][s.Label()]
}

// RenderTable1 prints average goodput (Mbps) per scheme per pattern —
// the paper's Table 1.
func (m *Matrix) RenderTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Average Goodput (Mbps)")
	widths := []int{10}
	header := []string{"scheme"}
	for _, p := range m.Patterns {
		widths = append(widths, 14)
		header = append(header, string(p))
	}
	tb := newTable(w, widths...)
	tb.row(header...)
	tb.rule()
	for _, s := range m.Schemes {
		cells := []string{s.Label()}
		for _, p := range m.Patterns {
			cells = append(cells, f1(m.Get(p, s).Collector.Goodput.Mean()))
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
		r := m.Get(Incast, s)
		if r == nil {
			continue
		}
		jct := r.Collector.JCT
		tb.row(s.Label(), f1(jct.Mean()), pct(jct.FractionAbove(300)), fmt.Sprintf("%d", jct.N()))
	}
}

// fig8Quantiles are the CDF points printed for the goodput distributions.
var fig8Quantiles = []float64{5, 10, 25, 50, 75, 90, 95}

// RenderFig8 prints the goodput distributions: CDF quantiles per scheme
// for the Permutation and Incast patterns (panels a, b) and the
// 10th/50th/90th percentile goodput by locality (panels c, d).
func (m *Matrix) RenderFig8(w io.Writer) {
	for _, p := range []Pattern{Permutation, Incast} {
		if m.Results[p] == nil {
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
			cells := []string{s.Label()}
			for _, q := range fig8Quantiles {
				cells = append(cells, f1(m.Get(p, s).Collector.Goodput.Percentile(q)))
			}
			tb.row(cells...)
		}
		fmt.Fprintln(w)
	}
	for _, p := range []Pattern{Permutation, Incast} {
		if m.Results[p] == nil {
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
			cells := []string{s.Label()}
			for _, cat := range cats {
				d := m.Get(p, s).Collector.GoodputByCat[cat]
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
		r := m.Get(Incast, s)
		if r == nil {
			continue
		}
		cells := []string{s.Label()}
		for _, t := range fig9Points {
			cells = append(cells, f2(r.Collector.JCT.CDFAt(t)))
		}
		tb.row(cells...)
	}
}

// RenderFig10 prints RTT distributions (ms) by locality per pattern.
func (m *Matrix) RenderFig10(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: RTT distributions (ms, mean/p50/p95)")
	for _, p := range m.Patterns {
		fmt.Fprintf(w, "  %s pattern\n", p)
		tb := newTable(w, 10, 22, 22, 22)
		tb.row("scheme", "Inter-Pod", "Inter-Rack", "Inner-Rack")
		tb.rule()
		for _, s := range m.Schemes {
			r := m.Get(p, s)
			cells := []string{s.Label()}
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
	for _, p := range m.Patterns {
		fmt.Fprintf(w, "  %s pattern\n", p)
		tb := newTable(w, 10, 24, 24, 24)
		tb.row("scheme", "Core", "Aggregation", "Rack")
		tb.rule()
		for _, s := range m.Schemes {
			r := m.Get(p, s)
			cells := []string{s.Label()}
			for _, layer := range []string{topo.LayerCore, topo.LayerAggregation, topo.LayerRack} {
				d := r.UtilByLayer[layer]
				cells = append(cells, fmt.Sprintf("%s [%s,%s]", f2(d.Percentile(50)), f2(d.Min()), f2(d.Max())))
			}
			tb.row(cells...)
		}
		fmt.Fprintln(w)
	}
}
