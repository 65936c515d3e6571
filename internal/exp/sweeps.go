package exp

import (
	"fmt"
	"io"

	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/workload"
)

// This file holds the exploration harnesses beyond the paper's figures:
// the (β, K) sensitivity grid its future-work section calls for, an
// Incast fan-in stress sweep, and the SACK transport ablation.

// ParamPoint is one (β, K) cell of the sensitivity grid.
type ParamPoint struct {
	Beta, K int
	// GoodputMbps is the Random-pattern average large-flow goodput.
	GoodputMbps float64
	// RTTMs is the mean inter-pod RTT — the latency side of the tradeoff.
	RTTMs float64
	Drops int64
	Flows int
}

// The (β, K) grid of the sensitivity study.
var (
	paramBetas = []int{2, 3, 4, 5, 6}
	paramKs    = []int{5, 10, 20, 40}
)

// ParamSweepPlan plans XMP-2 on the Random pattern across the (β, K) grid;
// cell i is (paramBetas[i/len(paramKs)], paramKs[i%len(paramKs)]). The
// paper fixes (β=4, K=10) for 1 Gbps DCNs and defers the parameter-impact
// study to future work; this harness is that study.
func ParamSweepPlan(p RunParams) Plan[ParamPoint] {
	cell := patternCell(p.cell(100*sim.Millisecond), Random)
	return Plan[ParamPoint]{
		Desc:  describe(CampaignParams, map[string]any{"cell": cell, "betas": paramBetas, "ks": paramKs}),
		Cells: len(paramBetas) * len(paramKs),
		Run: func(w *Worker, i int) ParamPoint {
			bi, ki := gridRC(i, len(paramKs))
			scheme := SchemeXMP2
			scheme.Beta = paramBetas[bi]
			c := cell
			c.MarkThreshold = paramKs[ki]
			r := RunFatTree(w, c, Random, scheme)
			return ParamPoint{
				Beta:        scheme.Beta,
				K:           c.MarkThreshold,
				GoodputMbps: r.Collector.Goodput.Mean(),
				RTTMs:       r.Collector.RTT[topo.InterPod].Mean(),
				Drops:       r.Drops,
				Flows:       r.Collector.FlowsCompleted,
			}
		},
		Progress: func(w io.Writer, p ParamPoint) {
			fmt.Fprintf(w, "param beta=%d K=%-3d goodput=%6.1f Mbps rtt=%5.2f ms drops=%d\n",
				p.Beta, p.K, p.GoodputMbps, p.RTTMs, p.Drops)
		},
	}
}

// RenderParamSweep prints the grid with goodput and RTT per cell.
func RenderParamSweep(w io.Writer, pts []ParamPoint) {
	fmt.Fprintln(w, "Parameter sensitivity: XMP-2, Random pattern (goodput Mbps / inter-pod RTT ms)")
	widths := []int{8}
	header := []string{"beta\\K"}
	for _, k := range paramKs {
		widths = append(widths, 16)
		header = append(header, fmt.Sprintf("K=%d", k))
	}
	tb := newTable(w, widths...)
	tb.row(header...)
	tb.rule()
	for _, b := range paramBetas {
		cells := []string{fmt.Sprintf("%d", b)}
		for _, k := range paramKs {
			cell := "-"
			for _, p := range pts {
				if p.Beta == b && p.K == k {
					cell = fmt.Sprintf("%.0f / %.2f", p.GoodputMbps, p.RTTMs)
					break
				}
			}
			cells = append(cells, cell)
		}
		tb.row(cells...)
	}
}

// IncastSweepPoint is one fan-in setting's outcome.
type IncastSweepPoint struct {
	Servers   int
	JobsDone  int
	P50Ms     float64
	P99Ms     float64
	Above300  float64
	BGGoodput float64
}

// incastServers is the fan-in axis of the Incast sweep.
var incastServers = []int{4, 8, 16, 32}

// IncastSweepPlan plans the Incast pattern with growing fan-in (the
// response burst per job) under an XMP-2 background — the regime where the
// paper argues free buffer headroom absorbs burstiness. Cell i is
// incastServers[i], capped at all hosts but the client on a smaller
// fabric.
func IncastSweepPlan(p RunParams) Plan[IncastSweepPoint] {
	cell := p.cell(200 * sim.Millisecond)
	return Plan[IncastSweepPoint]{
		Desc:  describe(CampaignIncast, map[string]any{"cell": cell.WithDefaults(), "servers": incastServers}),
		Cells: len(incastServers),
		Run: func(w *Worker, i int) IncastSweepPoint {
			c := NewCell(w, cell, SchemeXMP2)
			servers := min(incastServers[i], c.Base.Net.NumHosts()-1)
			workload.StartIncast(workload.IncastConfig{
				Config:           c.Base,
				Servers:          servers,
				Background:       true,
				BackgroundConfig: randomCfg(c.Base, c.cfg.SizeScale),
			})
			c.Run()
			col := c.Base.Collector
			return IncastSweepPoint{
				Servers:   servers,
				JobsDone:  col.JCT.N(),
				P50Ms:     col.JCT.Percentile(50),
				P99Ms:     col.JCT.Percentile(99),
				Above300:  col.JCT.FractionAbove(300),
				BGGoodput: col.Goodput.Mean(),
			}
		},
		Progress: func(w io.Writer, p IncastSweepPoint) {
			fmt.Fprintf(w, "incast fan-in=%-3d jobs=%-4d p50=%6.1fms p99=%6.1fms >300ms=%.1f%%\n",
				p.Servers, p.JobsDone, p.P50Ms, p.P99Ms, 100*p.Above300)
		},
	}
}

// RenderIncastSweep prints the fan-in table.
func RenderIncastSweep(w io.Writer, pts []IncastSweepPoint) {
	fmt.Fprintln(w, "Incast fan-in sweep: XMP-2 background, 2KB requests / 64KB responses")
	tb := newTable(w, 10, 8, 12, 12, 10, 14)
	tb.row("servers", "jobs", "jct p50", "jct p99", ">300ms", "bg Mbps")
	tb.rule()
	for _, p := range pts {
		tb.row(fmt.Sprintf("%d", p.Servers), fmt.Sprintf("%d", p.JobsDone),
			f1(p.P50Ms), f1(p.P99Ms), pct(p.Above300), f1(p.BGGoodput))
	}
}

// SACKAblationResult contrasts a loss-based scheme with and without
// selective acknowledgments on the Random pattern.
type SACKAblationResult struct {
	Scheme       string
	PlainGoodput float64
	SACKGoodput  float64
}

// sackSchemes are the loss-based schemes the SACK ablation runs.
var sackSchemes = []workload.Scheme{SchemeTCP, SchemeLIA2, SchemeLIA4}

// SACKAblationPlan plans what RFC 2018-style SACK buys the loss-based
// baselines — part of explaining the residual gap between this simulator's
// NewReno recovery and the paper's Linux stack. Cell i is sackSchemes[i]
// (plain and SACK runs stay within one cell — they share nothing across
// schemes).
func SACKAblationPlan(p RunParams) Plan[SACKAblationResult] {
	cell := p.cell(100 * sim.Millisecond)
	goodput := func(w *Worker, scheme workload.Scheme, sack bool) float64 {
		cfg := cell
		cfg.SACK = sack
		c := NewCell(w, cfg, scheme)
		workload.StartRandom(randomCfg(c.Base, c.cfg.SizeScale))
		c.Run()
		return c.Base.Collector.Goodput.Mean()
	}
	return Plan[SACKAblationResult]{
		Desc:  describe(CampaignSACK, map[string]any{"cell": cell.WithDefaults(), "schemes": schemeLabels(sackSchemes)}),
		Cells: len(sackSchemes),
		Run: func(w *Worker, i int) SACKAblationResult {
			return SACKAblationResult{
				Scheme:       sackSchemes[i].Label(),
				PlainGoodput: goodput(w, sackSchemes[i], false),
				SACKGoodput:  goodput(w, sackSchemes[i], true),
			}
		},
		Progress: func(w io.Writer, r SACKAblationResult) {
			fmt.Fprintf(w, "sack ablation %-6s plain=%6.1f sack=%6.1f Mbps\n",
				r.Scheme, r.PlainGoodput, r.SACKGoodput)
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

// RenderSACKAblation prints the comparison.
func RenderSACKAblation(w io.Writer, rs []SACKAblationResult) {
	fmt.Fprintln(w, "SACK ablation: Random pattern goodput (Mbps), loss-based schemes")
	tb := newTable(w, 10, 14, 14, 10)
	tb.row("scheme", "NewReno", "with SACK", "gain")
	tb.rule()
	for _, r := range rs {
		gain := "-"
		if r.PlainGoodput > 0 {
			gain = fmt.Sprintf("%+.0f%%", 100*(r.SACKGoodput-r.PlainGoodput)/r.PlainGoodput)
		}
		tb.row(r.Scheme, f1(r.PlainGoodput), f1(r.SACKGoodput), gain)
	}
}
