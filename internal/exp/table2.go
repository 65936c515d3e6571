package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"xmp/internal/sim"
	"xmp/internal/workload"
)

// Table2Config parameterizes the coexistence experiment: the Random
// pattern with half the hosts running XMP-2 and the other half one of
// {LIA-2, TCP, DCTCP}, under queue sizes 50 and 100.
type Table2Config struct {
	// K is the marking threshold (paper: 10).
	K int
	// QueueLimits are the switch buffer sizes swept (paper: 50, 100).
	QueueLimits []int
	// Others are the schemes sharing the fabric with XMP-2.
	Others []workload.Scheme
	// StrictNonECT selects RED-faithful switches that drop non-ECT
	// packets above K instead of letting loss-based flows fill the whole
	// buffer. The paper's DummyNet/RED deployment behaves this way; the
	// XMP-vs-LIA/TCP split flips with it (see EXPERIMENTS.md).
	StrictNonECT bool
	// Duration, SizeScale, Seed as in FatTreeConfig.
	Duration  sim.Duration
	SizeScale int64
	Seed      int64
	KAry      int
	// Jobs is unused and always 0: the config is the shard header, whose
	// bytes schema version 2 pins. RunPlan's caller sets the worker count.
	Jobs int
}

func (c *Table2Config) defaults() {
	if c.K == 0 {
		c.K = 10
	}
	if len(c.QueueLimits) == 0 {
		c.QueueLimits = []int{50, 100}
	}
	if len(c.Others) == 0 {
		c.Others = []workload.Scheme{SchemeLIA2, SchemeTCP, SchemeDCTCP}
	}
	if c.Duration == 0 {
		c.Duration = 200 * sim.Millisecond
	}
	if c.SizeScale == 0 {
		c.SizeScale = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.KAry == 0 {
		c.KAry = 8
	}
}

// Table2Cell is one pairing's outcome.
type Table2Cell struct {
	Other      workload.Scheme
	QueueLimit int
	// XMPGoodput / OtherGoodput are the average per-flow goodputs (Mbps).
	XMPGoodput, OtherGoodput float64
	XMPFlows, OtherFlows     int
}

// Table2Result is the full coexistence sweep.
type Table2Result struct {
	Config Table2Config
	Cells  []Table2Cell
}

// table2ConfigDesc canonicalizes the semantic knobs of the coexistence
// campaign (StrictNonECT excluded: it is a campaign axis, not a knob).
func table2ConfigDesc(cfg Table2Config) string {
	return fmt.Sprintf("table2 kary=%d K=%d duration=%d sizescale=%d seed=%d queues=%v others=%s",
		cfg.KAry, cfg.K, int64(cfg.Duration), cfg.SizeScale, cfg.Seed, cfg.QueueLimits,
		strings.Join(schemeLabels(cfg.Others), ","))
}

// Table2Plan plans the full coexistence campaign: both switch variants
// (non-ECT-fills-buffer first, then RED-strict — the order `xmpsim table2`
// renders them), each over (queue limit, other scheme), with even-indexed
// hosts sourcing XMP-2 flows and odd-indexed hosts the other scheme's.
// Cell indexing is variant-major: cell i selects variant
// i/(len(queues)*len(others)), then (queue, other) row-major within it.
// cfg.StrictNonECT is ignored — the campaign always spans both variants.
func Table2Plan(cfg Table2Config) Plan[Table2Cell] {
	cfg.defaults()
	cfg.StrictNonECT, cfg.Jobs = false, 0
	perVariant := len(cfg.QueueLimits) * len(cfg.Others)
	return Plan[Table2Cell]{
		Desc:   table2ConfigDesc(cfg),
		Header: cfg,
		Cells:  2 * perVariant,
		Run: func(w *Worker, i int) Table2Cell {
			c := cfg
			c.StrictNonECT = i/perVariant == 1
			qi, oi := gridRC(i%perVariant, len(cfg.Others))
			return runCoexist(w, c, cfg.Others[oi], cfg.QueueLimits[qi])
		},
		Progress: func(w io.Writer, cell Table2Cell) {
			fmt.Fprintf(w, "coexist q=%-4d XMP:%-6s  %7.1f : %-7.1f Mbps (%d/%d flows)\n",
				cell.QueueLimit, cell.Other.Label(), cell.XMPGoodput, cell.OtherGoodput, cell.XMPFlows, cell.OtherFlows)
		},
	}
}

// assembleTable2 rebuilds the two variant results in render order:
// non-strict, then RED-strict.
func assembleTable2(cells []Table2Cell, header json.RawMessage) ([]*Table2Result, error) {
	var cfg Table2Config
	if err := json.Unmarshal(header, &cfg); err != nil {
		return nil, fmt.Errorf("table2 shard header: %v", err)
	}
	perVariant := len(cfg.QueueLimits) * len(cfg.Others)
	if 2*perVariant != len(cells) {
		return nil, fmt.Errorf("table2 header declares 2x%d cells, shard set carries %d", perVariant, len(cells))
	}
	out := make([]*Table2Result, 2)
	for v := range out {
		c := cfg
		c.StrictNonECT = v == 1
		out[v] = &Table2Result{Config: c, Cells: cells[v*perVariant : (v+1)*perVariant]}
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

func runCoexist(w *Worker, cfg Table2Config, other workload.Scheme, queueLimit int) Table2Cell {
	c := NewCell(w, CellConfig{
		K:             cfg.KAry,
		QueueLimit:    queueLimit,
		MarkThreshold: cfg.K,
		StrictNonECT:  cfg.StrictNonECT,
		Seed:          cfg.Seed,
		Duration:      cfg.Duration,
	}, SchemeXMP2)
	// Each half of the hosts gets its own scheme, collector and RNG fork:
	// even-indexed hosts source XMP-2 flows, odd-indexed the other scheme's.
	half := func(parity int, scheme workload.Scheme) *workload.Collector {
		base := c.Base
		base.Scheme = scheme
		base.RNG = c.Base.RNG.Fork(int64(1 + parity))
		base.Collector = workload.NewCollector(16)
		r := randomCfg(base, cfg.SizeScale)
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
		QueueLimit:   queueLimit,
		XMPGoodput:   colX.Goodput.Mean(),
		OtherGoodput: colO.Goodput.Mean(),
		XMPFlows:     colX.FlowsCompleted,
		OtherFlows:   colO.FlowsCompleted,
	}
}

// Render prints the paper's Table 2 layout.
func (r *Table2Result) Render(w io.Writer) {
	variant := "non-ECT uses full buffer"
	if r.Config.StrictNonECT {
		variant = "RED-strict: non-ECT dropped above K"
	}
	fmt.Fprintf(w, "Table 2: Average Goodput (Mbps), Random pattern, XMP-2 coexisting (%s)\n", variant)
	tb := newTable(w, 16, 18, 18)
	header := []string{"pairing"}
	for _, q := range r.Config.QueueLimits {
		header = append(header, fmt.Sprintf("queue %d pkts", q))
	}
	tb.row(header...)
	tb.rule()
	for _, other := range r.Config.Others {
		cells := []string{"XMP : " + other.Label()}
		for _, q := range r.Config.QueueLimits {
			for _, c := range r.Cells {
				if c.Other.Label() == other.Label() && c.QueueLimit == q {
					cells = append(cells, fmt.Sprintf("%s : %s", f1(c.XMPGoodput), f1(c.OtherGoodput)))
				}
			}
		}
		tb.row(cells...)
	}
}
