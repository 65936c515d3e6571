package exp

import (
	"fmt"
	"strings"

	"xmp/internal/sim"
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
	// QueueLimit and StrictNonECT override the cell's queue limit and turn
	// on RED-strict switches (CellConfig.StrictNonECT).
	QueueLimit   int  `json:",omitempty"`
	StrictNonECT bool `json:",omitempty"`
	// Coexist, on a Random row, is the scheme label the even-indexed hosts
	// run beside the cell's scheme on the odd-indexed ones (Table 2).
	Coexist string `json:",omitempty"`
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
	if r.QueueLimit != 0 {
		set = append(set, fmt.Sprintf("q=%d", r.QueueLimit))
	}
	if r.StrictNonECT {
		set = append(set, "strict")
	}
	if r.Coexist != "" {
		set = append(set, "coexist="+r.Coexist)
	}
	if len(set) == 0 {
		return string(r.Pattern)
	}
	return fmt.Sprintf("%s(%s)", r.Pattern, strings.Join(set, ","))
}

// patternCell is the cell a matrix row runs on: cfg with the row's
// overrides, a zero horizon replaced by the pattern's, every 4th RTT
// sampled (every 8th on the VL2 Clos), no FCT recorded (no matrix metric
// reads it) and defaults resolved.
func patternCell(cfg CellConfig, row Row) CellConfig {
	if row.MarkThreshold != 0 {
		cfg.MarkThreshold = row.MarkThreshold
	}
	if row.QueueLimit != 0 {
		cfg.QueueLimit = row.QueueLimit
	}
	cfg.SACK = cfg.SACK || row.SACK
	cfg.StrictNonECT = cfg.StrictNonECT || row.StrictNonECT
	if cfg.Duration == 0 {
		cfg.Duration = patternHorizon[row.Pattern]
	}
	cfg.rttStride = 4
	if cfg.VL2 {
		cfg.rttStride = 8
	}
	cfg.skip |= workload.SeriesFCT
	return cfg.WithDefaults()
}

// FatTreeResult is the outcome of one run, every recorded sample kept. It
// stays in its worker: a matrix cell travels as the metrics reduceCell
// takes of it.
type FatTreeResult struct {
	// Row keys the cell in its matrix.
	Row
	Scheme workload.Scheme
	// Collector holds the run's samples, Collector.UtilByLayer among them:
	// on a Coexist row, those of the cell's scheme's half of the hosts.
	// Coexist holds the coexisting half's; it is nil on any other row.
	Collector, Coexist *workload.Collector
	// IncastServers is the fan-in an Incast row's jobs ran: its Servers
	// capped at all hosts but the client; 0 when the row sets none.
	IncastServers int
	// Drops/Marks aggregate switch-queue statistics.
	Drops, Marks int64
	// SimDuration is the simulated time until the last flow drained;
	// Events the engine events executed.
	SimDuration sim.Duration
	Events      uint64
}

// RunFatTree runs one matrix row under one scheme on the cell cfg
// describes (patternCell) and collects everything the fat-tree tables and
// figures need. The result keeps the cell's collector.
func RunFatTree(w *Worker, cfg CellConfig, row Row, scheme workload.Scheme) *FatTreeResult {
	return runPattern(NewCell(w, patternCell(cfg, row), scheme), row)
}

// runPattern starts the row's pattern on c, a cell built on its
// patternCell, runs the cell and reduces it.
func runPattern(c *Cell, row Row) *FatTreeResult {
	cfg := c.cfg
	res := &FatTreeResult{
		Row:       row,
		Scheme:    c.Base.Scheme,
		Collector: c.Base.Collector,
	}
	switch row.Pattern {
	case Permutation:
		workload.StartPermutation(workload.PermutationConfig{
			Config:   c.Base,
			MinBytes: 64 << 20 / cfg.SizeScale,
			MaxBytes: 512 << 20 / cfg.SizeScale,
		})
	case Random:
		if row.Coexist != "" {
			res.Coexist = startCoexist(c, row.Coexist)
			break
		}
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
	// Every fat-tree and VL2 link is labelled with one of layers, each a
	// key of UtilByLayer, and one pass keeps each layer's link order.
	for _, li := range c.Net.Links() {
		res.Collector.UtilByLayer[li.Layer].Add(li.Utilization(now))
	}
	return res
}

// startCoexist starts the Random pattern on c split by host: the
// even-indexed hosts source flows of the coexist scheme into a collector of
// their own, which it returns, and the odd-indexed flows of the cell's
// scheme into the cell's. Each half draws from its own fork of the cell
// RNG, and the coexisting half starts first.
func startCoexist(c *Cell, coexist string) *workload.Collector {
	scheme, err := workload.ParseScheme(coexist)
	if err != nil {
		panic("exp: coexist " + err.Error()) // a spec's label is resolved
	}
	col := workload.NewCollector(c.cfg.rttStride)
	col.Skip(c.cfg.skip)
	half := func(parity int, base workload.Config) {
		base.RNG = c.Base.RNG.Fork(int64(1 + parity))
		r := randomCfg(base, c.cfg.SizeScale)
		for i := parity; i < base.Net.NumHosts(); i += 2 {
			r.Hosts = append(r.Hosts, i)
		}
		workload.StartRandom(r)
	}
	even := c.Base
	even.Scheme, even.Collector = scheme, col
	half(0, even)
	half(1, c.Base)
	return col
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
