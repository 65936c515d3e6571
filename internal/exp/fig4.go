package exp

import (
	"fmt"
	"io"

	"xmp/internal/metrics"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
)

// Fig4Config parameterizes the traffic-shifting experiment on testbed
// 3(a): Flow 2 splits across DN1/DN2 while background flows load DN1
// during phase 1 and DN2 during phase 2. The DN queues mark at K=15 in a
// 100-packet buffer, as in the paper.
type Fig4Config struct {
	// Beta is XMP's reduction divisor (the paper contrasts 4 and 6).
	Beta int
	// Phase is the paper's 10 s background epoch (xmpsim: 2 s).
	Phase sim.Duration
}

// Fig4Result is one panel as rendered.
type Fig4Result struct {
	Config Fig4Config
	// Bins[i][s] is Flow 2's subflow s rate in bin i (a twentieth of a
	// phase), normalized to the 300 Mbps bottleneck.
	Bins [][2]float64
	// PhaseAvg[p][s] is subflow s's average rate (normalized) during
	// phase p: 0 = before background, 1 = background on DN1,
	// 2 = background on DN2, 3 = after.
	PhaseAvg [4][2]float64
}

// RunFig4 executes one panel (one β) and drains it through Cell.Run.
func RunFig4(cfg Fig4Config) Fig4Result {
	const capacity = 300 * netem.Mbps
	eng := sim.NewEngine()
	tb := topo.NewTestbedA(eng, topo.TestbedAConfig{
		BottleneckCapacity: capacity,
		EdgeCapacity:       netem.Gbps,
		HopDelay:           225 * sim.Microsecond, // 8 hops -> ~1.8 ms RTT
		BottleneckQueue:    topo.ECNMaker(100, 15),
		Background:         1,
	})
	sub := subflowSeries{metrics.NewRateSeries(cfg.Phase / 20), metrics.NewRateSeries(cfg.Phase / 20)}

	mkFlow := func(src, dst *netem.Host, paths []int, obs mptcp.Observer) *mptcp.Flow {
		specs := make([]mptcp.SubflowSpec, len(paths))
		for i, p := range paths {
			specs[i] = mptcp.SubflowSpec{SrcAddr: tb.PathAddr(src, p), DstAddr: tb.PathAddr(dst, p)}
		}
		return xmpFlow(tb.Network, cfg.Beta, src, dst, specs, obs)
	}

	// Flows 1 and 3 pin DN1 and DN2; Flow 2 splits.
	f1 := mkFlow(tb.S[0], tb.D[0], []int{0}, nil)
	f3 := mkFlow(tb.S[2], tb.D[2], []int{1}, nil)
	f2 := mkFlow(tb.S[1], tb.D[1], []int{0, 1}, &sub)
	flows := []*mptcp.Flow{f1, f2, f3}
	for _, f := range flows {
		f.Start()
	}
	// Background flows: DN1 during [P, 2P), DN2 during [2P, 3P).
	var sched phases
	for p := 0; p < 2; p++ {
		bg := mkFlow(tb.BG[p][0].Src, tb.BG[p][0].Dst, []int{p}, nil)
		sched = append(sched,
			phase{at: sim.Duration(p+1) * cfg.Phase, op: phaseStart, flow: bg},
			phase{at: sim.Duration(p+2) * cfg.Phase, op: phaseStop, flow: bg})
		flows = append(flows, bg)
	}
	sched.install(eng)
	eng.Run(sim.Time(4 * cfg.Phase))

	// Every bin recorded by the horizon is rendered, so the bin count is
	// read before the drain adds more.
	res := Fig4Result{Config: cfg, Bins: make([][2]float64, max(sub[0].Bins(), sub[1].Bins()))}
	for i := range res.Bins {
		for s := range sub {
			res.Bins[i][s] = sub[s].Normalized(i, float64(capacity))
		}
	}
	for ph := range res.PhaseAvg {
		for s := range sub {
			res.PhaseAvg[ph][s] = sub[s].AvgRateBps(ph*20, (ph+1)*20) / float64(capacity)
		}
	}
	drain(tb.Network, flows...)
	return res
}

// Render prints the subflow rate series and phase averages.
func (r Fig4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 4: traffic shifting, beta=%d (phase %v, 300 Mbps bottlenecks)\n",
		r.Config.Beta, r.Config.Phase)
	tb := newTable(w, 8, 12, 12)
	tb.row("bin", "flow2-1", "flow2-2")
	tb.rule()
	for i, b := range r.Bins {
		tb.row(fmt.Sprintf("%d", i), f2(b[0]), f2(b[1]))
	}
	tb.rule()
	names := []string{"baseline", "bg on DN1", "bg on DN2", "after"}
	for ph, nm := range names {
		fmt.Fprintf(w, "%-12s flow2-1=%.2f flow2-2=%.2f\n", nm, r.PhaseAvg[ph][0], r.PhaseAvg[ph][1])
	}
}
