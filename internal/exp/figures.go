package exp

import (
	"fmt"
	"io"

	"xmp/internal/metrics"
	"xmp/internal/mptcp"
	"xmp/internal/sim"
	"xmp/internal/transport"
)

// Figure is one of the paper's testbed figures: a fixed list of panels run
// one after another, outside the campaign table (no cells to shard). Doc is
// its line in the xmpsim usage text; Render runs and prints every panel as
// `xmpsim <name>` does — of the CLI-level params only Timescale applies.
type Figure struct {
	Name, Doc string
	Render    func(w io.Writer, p RunParams)
}

// Figures is the figure table, in `xmpsim all` order: the xmpsim
// subcommands, `all` and the usage text range over it.
var Figures = []Figure{
	{"fig1", "DCTCP vs fixed halving under threshold marking (4-flow bottleneck)", func(w io.Writer, p RunParams) {
		for _, c := range []Fig1Config{{Mode: Fig1DCTCP, K: 10}, {Mode: Fig1DCTCP, K: 20}, {Mode: Fig1Halving, K: 10}, {Mode: Fig1Halving, K: 20}} {
			c.Interval = p.scaleT(sim.Second)
			panel(w, RunFig1(c))
		}
	}},
	{"fig4", "TraSh traffic shifting on the two-DN testbed (beta 4 vs 6)", func(w io.Writer, p RunParams) {
		for _, beta := range []int{4, 6} {
			panel(w, RunFig4(Fig4Config{Beta: beta, Phase: p.scaleT(2 * sim.Second)}))
		}
	}},
	{"fig6", "fairness across subflow counts on one bottleneck (beta 4 vs 6)", func(w io.Writer, p RunParams) {
		for _, beta := range []int{4, 6} {
			panel(w, RunFig6(Fig6Config{Beta: beta, Unit: p.scaleT(sim.Second)}))
		}
	}},
	{"fig7", "rate compensation on the 5-bottleneck torus (3 beta/K settings)", func(w io.Writer, p RunParams) {
		for _, setting := range Fig7Settings {
			panel(w, RunFig7(Fig7Config{Setting: setting, Unit: p.scaleT(sim.Second)}))
		}
	}},
}

// panel prints one panel and the blank line that follows it.
func panel(w io.Writer, r interface{ Render(io.Writer) }) {
	r.Render(w)
	fmt.Fprintln(w)
}

// The figures plot acknowledged bytes over time; these observers feed a
// connection's or flow's progress into its rate series.

// connSeries is a connection's transport.Owner: its progress goes into one
// series (Figure 1's single-path senders).
type connSeries struct{ *metrics.RateSeries }

func (s connSeries) Progress(now sim.Time, ackedBytes int) { s.Add(now, ackedBytes) }
func (connSeries) RTTSample(sim.Duration)                  {}
func (connSeries) Complete(*transport.Conn)                {}

// flowSeries is a flow's mptcp.Observer: every subflow's progress goes into
// one series (Figure 6's per-flow rates).
type flowSeries struct{ *metrics.RateSeries }

func (s flowSeries) Progress(_ int, now sim.Time, ackedBytes int) { s.Add(now, ackedBytes) }
func (flowSeries) RTTSample(int, sim.Duration)                    {}
func (flowSeries) Complete(*mptcp.Flow)                           {}

// subflowSeries is a two-subflow flow's mptcp.Observer: subflow i's
// progress goes into series i (Figures 4 and 7).
type subflowSeries [2]*metrics.RateSeries

func (s *subflowSeries) Progress(i int, now sim.Time, ackedBytes int) { s[i].Add(now, ackedBytes) }
func (*subflowSeries) RTTSample(int, sim.Duration)                    {}
func (*subflowSeries) Complete(*mptcp.Flow)                           {}
