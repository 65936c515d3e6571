package exp

import (
	"fmt"
	"io"
	"strings"

	"xmp/internal/metrics"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/workload"
)

// Pattern names the Section 5.2 traffic patterns.
type Pattern string

// The three patterns of Tables 1-3 and Figures 8-11.
const (
	Permutation Pattern = "Permutation"
	Random      Pattern = "Random"
	Incast      Pattern = "Incast"
)

// patternHorizon is each pattern's generator horizon in a cell that names
// none, at the reduced scale (see EXPERIMENTS.md): one permutation round of
// 4-32 MB flows, and longer horizons for the open-loop patterns so Random
// regenerates flows and Incast accumulates enough jobs for stable
// completion-time statistics.
var patternHorizon = map[Pattern]sim.Duration{
	Permutation: 50 * sim.Millisecond,
	Random:      200 * sim.Millisecond,
	Incast:      300 * sim.Millisecond,
}

// Row is one row of a matrix: a Section 5.2 pattern and what the row
// changes of the campaign's cell. Zero fields change nothing, so a row that
// sets none is its pattern alone.
type Row struct {
	Pattern Pattern
	// MarkThreshold and SACK override the cell's marking threshold and turn
	// on selective acknowledgments.
	MarkThreshold int  `json:",omitempty"`
	SACK          bool `json:",omitempty"`
	// Servers is an Incast row's fan-in: the servers each job asks, capped
	// at all hosts but the client.
	Servers int `json:",omitempty"`
}

// String names the row as tables and cell labels do: the pattern, then
// what the row sets, as in "Random(K=5,sack)".
func (r Row) String() string {
	var set []string
	if r.MarkThreshold != 0 {
		set = append(set, fmt.Sprintf("K=%d", r.MarkThreshold))
	}
	if r.SACK {
		set = append(set, "sack")
	}
	if r.Servers != 0 {
		set = append(set, fmt.Sprintf("servers=%d", r.Servers))
	}
	if len(set) == 0 {
		return string(r.Pattern)
	}
	return fmt.Sprintf("%s(%s)", r.Pattern, strings.Join(set, ","))
}

// patternCell is the cell a matrix row runs on: cfg with the row's
// overrides, a zero horizon replaced by the pattern's, every 4th RTT
// sampled (every 8th on the VL2 Clos) and defaults resolved.
func patternCell(cfg CellConfig, row Row) CellConfig {
	if row.MarkThreshold != 0 {
		cfg.MarkThreshold = row.MarkThreshold
	}
	cfg.SACK = cfg.SACK || row.SACK
	if cfg.Duration == 0 {
		cfg.Duration = patternHorizon[row.Pattern]
	}
	cfg.rttStride = 4
	if cfg.VL2 {
		cfg.rttStride = 8
	}
	return cfg.WithDefaults()
}

// FatTreeResult is the outcome of one run.
type FatTreeResult struct {
	// Row keys the cell in its matrix; its fields encode inline, and those
	// a row does not set not at all.
	Row
	Scheme    workload.Scheme
	Collector *workload.Collector
	// IncastServers is the fan-in an Incast row's jobs ran: its Servers
	// capped at all hosts but the client; 0 when the row sets none.
	IncastServers int `json:",omitempty"`
	// UtilByLayer holds one utilization sample per link direction,
	// measured over the whole run (Figure 11).
	UtilByLayer map[string]*metrics.Dist
	// Drops/Marks aggregate switch-queue statistics.
	Drops, Marks int64
	// SimDuration is the simulated time until the last flow drained;
	// Events the engine events executed.
	SimDuration sim.Duration
	Events      uint64
}

// RunFatTree runs one matrix row under one scheme on the cell cfg
// describes (patternCell) and collects everything the fat-tree tables and
// figures need.
func RunFatTree(w *Worker, cfg CellConfig, row Row, scheme workload.Scheme) *FatTreeResult {
	return runPattern(NewCell(w, patternCell(cfg, row), scheme), row)
}

// runPattern starts the row's pattern on c, a cell built on its
// patternCell, runs the cell and reduces it.
func runPattern(c *Cell, row Row) *FatTreeResult {
	cfg := c.cfg
	res := &FatTreeResult{
		Row:         row,
		Scheme:      c.Base.Scheme,
		Collector:   c.Base.Collector,
		UtilByLayer: make(map[string]*metrics.Dist),
	}
	switch row.Pattern {
	case Permutation:
		workload.StartPermutation(workload.PermutationConfig{
			Config:   c.Base,
			MinBytes: 64 << 20 / cfg.SizeScale,
			MaxBytes: 512 << 20 / cfg.SizeScale,
		})
	case Random:
		workload.StartRandom(randomCfg(c.Base, cfg.SizeScale))
	case Incast:
		if row.Servers != 0 {
			res.IncastServers = min(row.Servers, c.Base.Net.NumHosts()-1)
		}
		workload.StartIncast(workload.IncastConfig{
			Config:           c.Base,
			Servers:          res.IncastServers,
			Background:       true,
			BackgroundConfig: randomCfg(c.Base, cfg.SizeScale),
		})
	default:
		panic(fmt.Sprintf("exp: unknown pattern %q", row.Pattern))
	}
	c.Run()

	now := c.Net.Eng.Now()
	res.Drops, res.Marks = c.Drops(), c.Marks()
	res.SimDuration, res.Events = sim.Duration(now), c.Events
	for _, layer := range []string{topo.LayerCore, topo.LayerAggregation, topo.LayerRack} {
		d := &metrics.Dist{}
		for _, l := range c.Net.LinksByLayer(layer) {
			d.Add(l.Utilization(now))
		}
		res.UtilByLayer[layer] = d
	}
	return res
}

// randomCfg is the Random pattern with the paper's flow sizes divided by
// sizeScale; at the default 16, a 12 MB mean capped at 48 MB.
func randomCfg(base workload.Config, sizeScale int64) workload.RandomConfig {
	return workload.RandomConfig{
		Config:          base,
		ParetoMeanBytes: 192 << 20 / sizeScale,
		ParetoMaxBytes:  768 << 20 / sizeScale,
		MaxFlowsPerDst:  4,
	}
}

// RenderFatTreeRun prints a one-line summary of a run.
func RenderFatTreeRun(w io.Writer, r *FatTreeResult) {
	fmt.Fprintf(w, "%-12s %-12s flows=%-5d goodput=%7.1f Mbps  jct(avg)=%6.1f ms  drops=%-6d marks=%-8d sim=%.2fs\n",
		r.Row, workload.SchemeString(r.Scheme), r.Collector.FlowsCompleted,
		r.Collector.Goodput.Mean(), r.Collector.JCT.Mean(), r.Drops, r.Marks, r.SimDuration.Seconds())
}
