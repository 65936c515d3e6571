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

// Fig6Config parameterizes the fairness experiment on testbed 3(b), the
// dumbbell with four host pairs on 1 Gbps edges: four flows with 3/2/1/1
// subflows share one 300 Mbps bottleneck (K=15, 100 packets, as in the
// paper); subflows arrive and flows leave on a schedule, and a fair scheme
// holds every flow at an equal share regardless of its subflow count.
type Fig6Config struct {
	// Beta is XMP's reduction divisor (the paper contrasts 4 and 6).
	Beta int
	// Unit is the paper's 5 s schedule quantum (xmpsim: 1 s): Flow 1's
	// subflows start at 0, 1u, 3u; Flow 2 (2 subflows) at 4u; Flow 3 at
	// 0; Flow 4 at 2u; Flows 3 and 4 stop at 5u; the run ends at 6u.
	Unit sim.Duration
}

// Fig6Result is one panel as rendered.
type Fig6Result struct {
	Config Fig6Config
	// Rates[ep][i] is flow i's aggregate rate in unit-long epoch ep,
	// normalized to the bottleneck.
	Rates [6][4]float64
	// Jain is the fairness index across the four flows during the epoch
	// [4u, 5u) when all are active.
	Jain float64
}

// RunFig6 executes one panel (one β) and drains it through Cell.Run.
func RunFig6(cfg Fig6Config) Fig6Result {
	const capacity = 300 * netem.Mbps
	eng := sim.NewEngine()
	tb := topo.NewDumbbell(eng, topo.DumbbellConfig{
		Pairs:              4,
		BottleneckCapacity: capacity,
		EdgeCapacity:       netem.Gbps,
		HopDelay:           225 * sim.Microsecond,
		BottleneckQueue:    topo.ECNMaker(100, 15),
		EdgeQueue:          topo.DropTailMaker(topo.DefaultHostQueue),
	})
	u := cfg.Unit
	subOffsets := [4][]sim.Duration{
		{0, 1 * u, 3 * u}, // Flow 1: subflows at 0, 1u, 3u
		{0, 0},            // Flow 2: both subflows when the flow starts (4u)
		{0},               // Flow 3
		{0},               // Flow 4
	}
	startAt := [4]sim.Duration{0, 4 * u, 0, 2 * u}

	var series [4]*metrics.RateSeries
	flows := make([]*mptcp.Flow, 4)
	var sched phases
	for i := range flows {
		series[i] = metrics.NewRateSeries(u / 20)
		specs := make([]mptcp.SubflowSpec, len(subOffsets[i]))
		for s, off := range subOffsets[i] {
			specs[s] = mptcp.SubflowSpec{StartOffset: off}
		}
		flows[i] = xmpFlow(tb.Network, cfg.Beta, tb.Senders[i], tb.Receivers[i], specs, flowSeries{series[i]})
		sched = append(sched, phase{at: startAt[i], op: phaseStart, flow: flows[i]})
	}
	// Flows 3 and 4 shut down at 5u.
	sched = append(sched,
		phase{at: 5 * u, op: phaseStop, flow: flows[2]},
		phase{at: 5 * u, op: phaseStop, flow: flows[3]})
	sched.install(eng)
	eng.Run(sim.Time(6 * u))

	res := Fig6Result{Config: cfg}
	for ep := range res.Rates {
		for i, s := range series {
			res.Rates[ep][i] = s.AvgRateBps(ep*20, (ep+1)*20) / float64(capacity)
		}
	}
	shares := make([]float64, len(series))
	for i, s := range series {
		shares[i] = s.AvgRateBps(4*20, 5*20)
	}
	res.Jain = metrics.JainIndex(shares)
	drain(tb.Network, flows...)
	return res
}

// Render prints the per-epoch normalized rate of each flow.
func (r Fig6Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: fairness, beta=%d (unit %v; flows have 3/2/1/1 subflows)\n",
		r.Config.Beta, r.Config.Unit)
	tb := newTable(w, 8, 10, 10, 10, 10)
	tb.row("epoch", "flow1", "flow2", "flow3", "flow4")
	tb.rule()
	for ep, rates := range r.Rates {
		cells := []string{fmt.Sprintf("%d", ep)}
		for _, v := range rates {
			cells = append(cells, f2(v))
		}
		tb.row(cells...)
	}
	fmt.Fprintf(w, "Jain index over all-active epoch [4u,5u): %.3f\n", r.Jain)
}
