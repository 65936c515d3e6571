package exp

import (
	"fmt"
	"io"

	"xmp/internal/chaos"
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

// FatTreeConfig configures one Fat-Tree run: one scheme under one pattern.
type FatTreeConfig struct {
	Pattern Pattern
	Scheme  workload.Scheme
	// K is the fat-tree arity (default 8, the paper's topology).
	K int
	// MarkThreshold and QueueLimit configure every switch queue
	// (defaults 10 and 100).
	MarkThreshold, QueueLimit int
	// Duration is how long generators keep starting flows; in-flight
	// flows then drain. Default 400 ms (scaled down from the paper's
	// multi-minute runs; see EXPERIMENTS.md).
	Duration sim.Duration
	// SizeScale divides the paper's flow sizes (default 64: permutation
	// flows become 1-8 MB instead of 64-512 MB).
	SizeScale int64
	Seed      int64
	// RTTStride subsamples RTT measurements (default 4).
	RTTStride int
	// Chaos is the cell's fault schedule (CellConfig.Chaos; declarative
	// scenarios route it here). omitempty keeps a nil schedule out of the
	// serialized cell config, whose bytes shard files pin. The matrix cell
	// is not lossy, so loss-burst events do not resolve.
	Chaos *chaos.Schedule `json:"Chaos,omitempty"`
}

func (c *FatTreeConfig) defaults() {
	if c.K == 0 {
		c.K = 8
	}
	if c.MarkThreshold == 0 {
		c.MarkThreshold = 10
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 100
	}
	if c.Duration == 0 {
		// Reduced-scale defaults (see EXPERIMENTS.md): one permutation
		// round of 4-32 MB flows; longer horizons for the open-loop
		// patterns so the Random pattern regenerates flows and Incast
		// accumulates enough jobs for stable completion-time statistics.
		switch c.Pattern {
		case Permutation:
			c.Duration = 50 * sim.Millisecond
		case Random:
			c.Duration = 200 * sim.Millisecond
		case Incast:
			c.Duration = 300 * sim.Millisecond
		default:
			c.Duration = 200 * sim.Millisecond
		}
	}
	if c.SizeScale == 0 {
		c.SizeScale = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RTTStride == 0 {
		c.RTTStride = 4
	}
}

// FatTreeResult is the outcome of one run.
type FatTreeResult struct {
	Config    FatTreeConfig
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

// RunFatTree executes one pattern x scheme run and collects everything
// the fat-tree tables and figures need.
func RunFatTree(w *Worker, cfg FatTreeConfig) *FatTreeResult {
	cfg.defaults()
	c := NewCell(w, CellConfig{
		K:             cfg.K,
		QueueLimit:    cfg.QueueLimit,
		MarkThreshold: cfg.MarkThreshold,
		Seed:          cfg.Seed,
		Duration:      cfg.Duration,
		RTTStride:     cfg.RTTStride,
		Chaos:         cfg.Chaos,
	}, cfg.Scheme)

	switch cfg.Pattern {
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
		panic(fmt.Sprintf("exp: unknown pattern %q", cfg.Pattern))
	}
	c.Run()

	now := c.Net.Eng.Now()
	res := &FatTreeResult{
		Config:      cfg,
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
// sizeScale; at 16, what the campaigns without a -sizescale knob run, a
// 12 MB mean capped at 48 MB.
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
		r.Config.Pattern, r.Config.Scheme.Label(), r.Collector.FlowsCompleted,
		r.Collector.Goodput.Mean(), r.Collector.JCT.Mean(), r.Drops, r.Marks, r.SimDuration.Seconds())
}
