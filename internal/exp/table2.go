package exp

import (
	"fmt"
	"io"

	"xmp/internal/sim"
	"xmp/internal/workload"
)

// The coexistence experiment runs the Random pattern with half the hosts
// on XMP-2 and the other half on one of table2Others, under each of
// table2Queues, on both switch variants: non-ECT packets fill the buffer,
// then RED-strict switches that drop them above K. The paper's
// DummyNet/RED deployment behaves the strict way; the XMP-vs-LIA/TCP split
// flips with it (see EXPERIMENTS.md).
var (
	table2Queues = []int{50, 100}
	table2Others = []workload.Scheme{SchemeLIA2, SchemeTCP, SchemeDCTCP}
)

// Table2Cell is one pairing's outcome.
type Table2Cell struct {
	Other      workload.Scheme
	QueueLimit int
	// XMPGoodput / OtherGoodput are the average per-flow goodputs (Mbps).
	XMPGoodput, OtherGoodput float64
	XMPFlows, OtherFlows     int
}

// Table2Result is one switch variant of the coexistence sweep. Cell i is
// (Queues[i/len(Others)], Others[i%len(Others)]).
type Table2Result struct {
	StrictNonECT bool
	Queues       []int
	Others       []workload.Scheme
	Cells        []Table2Cell
}

// Table2Plan plans the full coexistence campaign: both switch variants
// (non-ECT-fills-buffer first, then RED-strict — the order `xmpsim table2`
// renders them), each over (queue limit, other scheme), with even-indexed
// hosts sourcing XMP-2 flows and odd-indexed hosts the other scheme's.
// Cell indexing is variant-major: cell i selects variant
// i/(len(queues)*len(others)), then (queue, other) row-major within it.
func Table2Plan(p RunParams) Plan[Table2Cell] {
	cell := p.cell(200 * sim.Millisecond)
	perVariant := len(table2Queues) * len(table2Others)
	return Plan[Table2Cell]{
		Desc: describe(CampaignTable2, map[string]any{
			"cell": cell.WithDefaults(), "queues": table2Queues, "others": schemeLabels(table2Others)}),
		Cells: 2 * perVariant,
		Run: func(w *Worker, i int) Table2Cell {
			qi, oi := gridRC(i%perVariant, len(table2Others))
			c := cell
			c.StrictNonECT = i/perVariant == 1
			c.QueueLimit = table2Queues[qi]
			return runCoexist(w, c, table2Others[oi])
		},
		Progress: func(w io.Writer, c Table2Cell) {
			fmt.Fprintf(w, "coexist q=%-4d XMP:%-6s  %7.1f : %-7.1f Mbps (%d/%d flows)\n",
				c.QueueLimit, c.Other.Label(), c.XMPGoodput, c.OtherGoodput, c.XMPFlows, c.OtherFlows)
		},
	}
}

// schemeLabels is how the scheme axis appears in a config description.
func schemeLabels(schemes []workload.Scheme) []string {
	labels := make([]string, len(schemes))
	for i, s := range schemes {
		labels[i] = s.Label()
	}
	return labels
}

// assembleTable2 rebuilds the two variant results in render order —
// non-strict, then RED-strict — reading the (queue, other) grid off the
// cells and refusing a set whose variants are not that same grid twice.
func assembleTable2(cells []Table2Cell) ([]*Table2Result, error) {
	n := len(cells)
	if n == 0 || n%2 != 0 {
		return nil, fmt.Errorf("table2: %d cells do not split into two switch variants", n)
	}
	key := func(i int) (int, string) { return cells[i].QueueLimit, cells[i].Other.Label() }
	queues, others, err := gridAxes(n/2, key)
	if err != nil {
		return nil, fmt.Errorf("table2: %v", err)
	}
	for i := n / 2; i < n; i++ {
		q, o := key(i)
		if wq, wo := key(i - n/2); q != wq || o != wo {
			return nil, fmt.Errorf("table2: cell %d is %v/%v where the grid expects %v/%v", i, q, o, wq, wo)
		}
	}
	schemes := make([]workload.Scheme, len(others))
	for i := range schemes {
		schemes[i] = cells[i].Other
	}
	out := make([]*Table2Result, 2)
	for v := range out {
		out[v] = &Table2Result{StrictNonECT: v == 1, Queues: queues, Others: schemes, Cells: cells[v*n/2 : (v+1)*n/2]}
	}
	return out, nil
}

// renderTable2 prints both variants: the coexistence outcome hinges on
// whether loss-based flows may fill the buffer past K (see EXPERIMENTS.md).
func renderTable2(w io.Writer, rs []*Table2Result) {
	for _, r := range rs {
		fmt.Fprintln(w)
		r.Render(w)
	}
}

// runCoexist runs one pairing on the cell cfg describes.
func runCoexist(w *Worker, cfg CellConfig, other workload.Scheme) Table2Cell {
	c := NewCell(w, cfg, SchemeXMP2)
	// Each half of the hosts gets its own scheme, collector and RNG fork:
	// even-indexed hosts source XMP-2 flows, odd-indexed the other scheme's.
	half := func(parity int, scheme workload.Scheme) *workload.Collector {
		base := c.Base
		base.Scheme = scheme
		base.RNG = c.Base.RNG.Fork(int64(1 + parity))
		base.Collector = workload.NewCollector(16)
		r := randomCfg(base, c.cfg.SizeScale)
		for i := parity; i < base.Net.NumHosts(); i += 2 {
			r.Hosts = append(r.Hosts, i)
		}
		workload.StartRandom(r)
		return base.Collector
	}
	colX, colO := half(0, SchemeXMP2), half(1, other)
	c.Run()

	return Table2Cell{
		Other:        other,
		QueueLimit:   c.cfg.QueueLimit,
		XMPGoodput:   colX.Goodput.Mean(),
		OtherGoodput: colO.Goodput.Mean(),
		XMPFlows:     colX.FlowsCompleted,
		OtherFlows:   colO.FlowsCompleted,
	}
}

// Render prints the paper's Table 2 layout.
func (r *Table2Result) Render(w io.Writer) {
	variant := "non-ECT uses full buffer"
	if r.StrictNonECT {
		variant = "RED-strict: non-ECT dropped above K"
	}
	fmt.Fprintf(w, "Table 2: Average Goodput (Mbps), Random pattern, XMP-2 coexisting (%s)\n", variant)
	tb := newTable(w, 16, 18, 18)
	header := []string{"pairing"}
	for _, q := range r.Queues {
		header = append(header, fmt.Sprintf("queue %d pkts", q))
	}
	tb.row(header...)
	tb.rule()
	for oi, other := range r.Others {
		cells := []string{"XMP : " + other.Label()}
		for qi := range r.Queues {
			c := r.Cells[qi*len(r.Others)+oi]
			cells = append(cells, fmt.Sprintf("%s : %s", f1(c.XMPGoodput), f1(c.OtherGoodput)))
		}
		tb.row(cells...)
	}
}
