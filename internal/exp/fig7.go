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

// Fig7BetaK pairs a reduction divisor with its Equation 1 marking
// threshold, the three settings Figure 7 sweeps.
type Fig7BetaK struct {
	Beta, K int
}

// Fig7Settings are the paper's three (β, K) pairs.
var Fig7Settings = []Fig7BetaK{{4, 20}, {5, 15}, {6, 10}}

// Fig7Config parameterizes the rate-compensation experiment on the Figure
// 5 torus: five 2-subflow flows on a ring of five bottlenecks with
// 100-packet buffers; background flows load L3, then leave; finally L3 is
// closed.
type Fig7Config struct {
	Setting Fig7BetaK
	// Unit is the paper's 5 s quantum (xmpsim: 1 s): flow i starts at
	// i·u; background flow j starts at (5+j)·u and stops at (9+j)·u; L3
	// closes at 12u; the run ends at 13u.
	Unit sim.Duration
}

// Fig7Capacities are the paper's bottleneck capacities, left to right.
var Fig7Capacities = []netem.Bps{
	800 * netem.Mbps, 1200 * netem.Mbps, 2 * netem.Gbps, 1500 * netem.Mbps, 500 * netem.Mbps,
}

// Fig7Result is one sweep setting as rendered.
type Fig7Result struct {
	Config Fig7Config
	// Rates[ep][i][s] is flow i+1's subflow s rate in unit-long epoch ep,
	// normalized to the bottleneck it crosses: subflow 0 crosses
	// bottleneck i, subflow 1 bottleneck i+1 (mod 5).
	Rates [13][5][2]float64
}

// RunFig7 executes one sweep setting and drains it through Cell.Run.
func RunFig7(cfg Fig7Config) Fig7Result {
	eng := sim.NewEngine()
	tr := topo.NewTorus(eng, topo.TorusConfig{
		Capacities:      Fig7Capacities,
		EdgeCapacity:    10 * netem.Gbps,
		HopDelay:        35 * sim.Microsecond, // 10 hops -> 350 us RTT
		BottleneckQueue: topo.ECNMaker(100, cfg.Setting.K),
		Background:      4,
	})
	u := cfg.Unit
	var series [5]subflowSeries
	var flows []*mptcp.Flow
	var sched phases
	for i := range series {
		series[i] = subflowSeries{metrics.NewRateSeries(u / 20), metrics.NewRateSeries(u / 20)}
		f := xmpFlow(tr.Network, cfg.Setting.Beta, tr.S[i], tr.D[i], []mptcp.SubflowSpec{
			{SrcAddr: tr.PathAddr(tr.S[i], 0), DstAddr: tr.PathAddr(tr.D[i], 0)},
			{SrcAddr: tr.PathAddr(tr.S[i], 1), DstAddr: tr.PathAddr(tr.D[i], 1)},
		}, &series[i])
		sched = append(sched, phase{at: sim.Duration(i) * u, op: phaseStart, flow: f})
		flows = append(flows, f)
	}
	// Background flows on L3.
	for j := 0; j < 4; j++ {
		bg := xmpFlow(tr.Network, cfg.Setting.Beta, tr.BG[j].Src, tr.BG[j].Dst, []mptcp.SubflowSpec{{}}, nil)
		sched = append(sched,
			phase{at: sim.Duration(5+j) * u, op: phaseStart, flow: bg},
			phase{at: sim.Duration(9+j) * u, op: phaseStop, flow: bg})
		flows = append(flows, bg)
	}
	// L3 (index 2) closes at 12u.
	sched = append(sched, phase{at: 12 * u, op: phaseDown, down: &tr.Bottlenecks[2]})
	sched.install(eng)
	eng.Run(sim.Time(13 * u))

	res := Fig7Result{Config: cfg}
	for ep := range res.Rates {
		for i, sub := range series {
			for s, rs := range sub {
				res.Rates[ep][i][s] = rs.AvgRateBps(ep*20, (ep+1)*20) / float64(Fig7Capacities[(i+s)%5])
			}
		}
	}
	// The subflows on L3 cannot drain into a closed link.
	tr.Bottlenecks[2].SetDown(false)
	drain(tr.Network, flows...)
	return res
}

// Render prints the per-epoch normalized subflow rates of every flow.
func (r Fig7Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 7: rate compensation, K=%d beta=%d (unit %v; bg on L3 during [5u,13u) staggered; L3 closed at 12u)\n",
		r.Config.Setting.K, r.Config.Setting.Beta, r.Config.Unit)
	widths := []int{8}
	header := []string{"epoch"}
	for i := 1; i <= 5; i++ {
		for s := 1; s <= 2; s++ {
			widths = append(widths, 9)
			header = append(header, fmt.Sprintf("f%d-%d", i, s))
		}
	}
	tb := newTable(w, widths...)
	tb.row(header...)
	tb.rule()
	for ep, flows := range r.Rates {
		cells := []string{fmt.Sprintf("%d", ep)}
		for _, sub := range flows {
			cells = append(cells, f2(sub[0]), f2(sub[1]))
		}
		tb.row(cells...)
	}
}
