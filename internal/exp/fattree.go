package exp

import (
	"fmt"
	"io"

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

// patternCell is the cell a Section 5.2 pattern runs on: cfg with a zero
// horizon replaced by the pattern's and, unless cfg names a stride, every
// 4th RTT sampled, defaults resolved.
func patternCell(cfg CellConfig, p Pattern) CellConfig {
	if cfg.Duration == 0 {
		cfg.Duration = patternHorizon[p]
	}
	if cfg.RTTStride == 0 {
		cfg.RTTStride = 4
	}
	return cfg.WithDefaults()
}

// FatTreeResult is the outcome of one run.
type FatTreeResult struct {
	Pattern   Pattern
	Scheme    workload.Scheme
	Collector *workload.Collector
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

// RunFatTree runs one pattern under one scheme on the cell cfg describes
// (patternCell) and collects everything the fat-tree tables and figures
// need.
func RunFatTree(w *Worker, cfg CellConfig, pattern Pattern, scheme workload.Scheme) *FatTreeResult {
	cfg = patternCell(cfg, pattern)
	c := NewCell(w, cfg, scheme)

	switch pattern {
	case Permutation:
		workload.StartPermutation(workload.PermutationConfig{
			Config:   c.Base,
			MinBytes: 64 << 20 / cfg.SizeScale,
			MaxBytes: 512 << 20 / cfg.SizeScale,
		})
	case Random:
		workload.StartRandom(randomCfg(c.Base, cfg.SizeScale))
	case Incast:
		workload.StartIncast(workload.IncastConfig{
			Config:           c.Base,
			Background:       true,
			BackgroundConfig: randomCfg(c.Base, cfg.SizeScale),
		})
	default:
		panic(fmt.Sprintf("exp: unknown pattern %q", pattern))
	}
	c.Run()

	now := c.Net.Eng.Now()
	res := &FatTreeResult{
		Pattern:     pattern,
		Scheme:      scheme,
		Collector:   c.Base.Collector,
		UtilByLayer: make(map[string]*metrics.Dist),
		Drops:       c.Drops(),
		Marks:       c.Marks(),
		SimDuration: sim.Duration(now),
		Events:      c.Events,
	}
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
		r.Pattern, r.Scheme.Label(), r.Collector.FlowsCompleted,
		r.Collector.Goodput.Mean(), r.Collector.JCT.Mean(), r.Drops, r.Marks, r.SimDuration.Seconds())
}
