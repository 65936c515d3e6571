package exp

import (
	"fmt"
	"io"

	"xmp/internal/cc"
	"xmp/internal/core"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

// AblationResult is one ablation variant's steady-state behaviour on the
// four-flow dumbbell: utilization, queue occupancy and controller
// reactions.
type AblationResult struct {
	Variant     string
	Utilization float64
	AvgQueue    float64
	MaxQueue    int
	Drops       int64
	Marks       int64
	Timeouts    int64
}

// ablationRun drives four long-lived BOS flows (beta 4) until horizon over
// a dumbbell whose bottleneck queue and receiver echo mode the variant
// selects, reads the variant's numbers, and then drains through Cell.Run
// like a figure panel.
func ablationRun(variant string, horizon sim.Duration, q func(*sim.RNG) netem.Queue, echo cc.EchoMode, disableGuard bool) AblationResult {
	eng := sim.NewEngine()
	rng := sim.NewRNG(11)
	d := topo.NewDumbbell(eng, topo.DumbbellConfig{
		Pairs:              4,
		BottleneckCapacity: netem.Gbps,
		HopDelay:           37500 * sim.Nanosecond,
		BottleneckQueue:    func(*netem.BuildArena) netem.Queue { return q(rng) },
	})
	cfg := transport.DefaultConfig()
	cfg.EchoMode = echo
	var timeouts int64
	conns := make([]*transport.Conn, 4)
	for i := range conns {
		b := core.NewBOS(cc.DefaultInitialWindow, 4)
		b.DisableCwrGuard = disableGuard
		conns[i] = transport.NewConn(eng, transport.Options{
			ID:         d.NextConnID(),
			Src:        d.Senders[i],
			Dst:        d.Receivers[i],
			Controller: b,
			Config:     cfg,
			Supply:     transport.InfiniteSupply{},
		})
		conns[i].Start()
	}
	eng.Run(sim.Time(horizon))
	for _, c := range conns {
		timeouts += c.Stats().Timeouts
	}
	st := d.Forward.Queue().Stats()
	res := AblationResult{
		Variant:     variant,
		Utilization: d.Forward.Utilization(eng.Now()),
		AvgQueue:    st.AvgLen(eng.Now()),
		MaxQueue:    st.MaxLen,
		Drops:       st.DroppedPackets,
		Marks:       st.MarkedPackets,
		Timeouts:    timeouts,
	}
	drain(d.Network, conns...)
	return res
}

// AblationPlan plans the DESIGN.md §4 ablations, one cell per variant:
//
//   - marking rule: instantaneous threshold vs degenerate RED (Wq=1,
//     MinTh=MaxTh=K — must match) vs conventional EWMA RED (must not);
//   - CE feedback: the two-bit counter echo vs latched standard ECN;
//   - the once-per-round reduction guard on vs off.
//
// Every variant runs for 500 ms scaled by the timescale, at K=10 with
// 250-packet buffers.
func AblationPlan(p RunParams) Plan[AblationResult] {
	const k, limit = 10, 250
	horizon := p.scaleT(500 * sim.Millisecond)
	type variant struct {
		name         string
		q            func(*sim.RNG) netem.Queue
		echo         cc.EchoMode
		disableGuard bool
	}
	variants := []variant{
		{"threshold-marking (baseline)",
			func(*sim.RNG) netem.Queue { return netem.NewThresholdECN(limit, k) },
			cc.EchoCounter, false},
		{"degenerate RED (Wq=1, MinTh=MaxTh=K)",
			func(rng *sim.RNG) netem.Queue {
				return netem.NewRED(netem.DegenerateREDConfig(limit, k), 12*sim.Microsecond, rng)
			},
			cc.EchoCounter, false},
		{"conventional RED (EWMA, Internet thresholds)",
			func(rng *sim.RNG) netem.Queue {
				return netem.NewRED(netem.DefaultREDConfig(limit), 12*sim.Microsecond, rng)
			},
			cc.EchoCounter, false},
		{"standard-ECN echo (latched ECE)",
			func(*sim.RNG) netem.Queue { return netem.NewThresholdECN(limit, k) },
			cc.EchoStandard, false},
		{"cwr guard disabled (reduce per marked ACK)",
			func(*sim.RNG) netem.Queue { return netem.NewThresholdECN(limit, k) },
			cc.EchoCounter, true},
	}
	return Plan[AblationResult]{
		Desc:  describe(CampaignAblation, map[string]any{"horizon": horizon, "K": k, "limit": limit, "variants": len(variants)}),
		Cells: len(variants),
		Run: func(_ *Worker, i int) AblationResult {
			v := variants[i]
			return ablationRun(v.name, horizon, v.q, v.echo, v.disableGuard)
		},
		Progress: func(w io.Writer, r AblationResult) {
			fmt.Fprintf(w, "ablation %-44s util=%.2f drops=%d marks=%d\n",
				r.Variant, r.Utilization, r.Drops, r.Marks)
		},
	}
}

// RenderAblations prints the comparison table.
func RenderAblations(w io.Writer, rs []AblationResult) {
	fmt.Fprintln(w, "Ablations: 4 BOS(beta=4) flows, 1 Gbps dumbbell, K=10")
	tb := newTable(w, 44, 8, 10, 10, 8, 10)
	tb.row("variant", "util", "avgQ", "maxQ", "drops", "marks")
	tb.rule()
	for _, r := range rs {
		tb.row(r.Variant, f2(r.Utilization), f1(r.AvgQueue),
			fmt.Sprintf("%d", r.MaxQueue), fmt.Sprintf("%d", r.Drops), fmt.Sprintf("%d", r.Marks))
	}
}

// SubflowSweepResult is one point of the subflow-count sweep (the paper's
// "XMP doesn't need 8 subflows" observation).
type SubflowSweepResult struct {
	Subflows   int
	AvgGoodput float64
	Flows      int
}

// sweepSubflows is the subflow-count axis of the sweep.
var sweepSubflows = []int{1, 2, 4, 8}

// SubflowSweepPlan plans permutation-pattern goodput as the number of XMP
// subflows grows; cell i is sweepSubflows[i].
func SubflowSweepPlan(p RunParams) Plan[SubflowSweepResult] {
	cell := patternCell(p.cell(50*sim.Millisecond), Permutation)
	return Plan[SubflowSweepResult]{
		Desc:  describe(CampaignSubflow, map[string]any{"cell": cell, "subflows": sweepSubflows}),
		Cells: len(sweepSubflows),
		Run: func(w *Worker, i int) SubflowSweepResult {
			scheme := SchemeXMP2
			scheme.Subflows = sweepSubflows[i]
			r := RunFatTree(w, cell, Permutation, scheme)
			return SubflowSweepResult{
				Subflows:   sweepSubflows[i],
				AvgGoodput: r.Collector.Goodput.Mean(),
				Flows:      r.Collector.FlowsCompleted,
			}
		},
		Progress: func(w io.Writer, r SubflowSweepResult) {
			fmt.Fprintf(w, "sweep subflows=%d goodput=%6.1f Mbps flows=%d\n",
				r.Subflows, r.AvgGoodput, r.Flows)
		},
	}
}

// RenderSubflowSweep prints the sweep.
func RenderSubflowSweep(w io.Writer, rs []SubflowSweepResult) {
	fmt.Fprintln(w, "Subflow sweep: XMP on Permutation")
	tb := newTable(w, 10, 16, 10)
	tb.row("subflows", "goodput(Mbps)", "flows")
	tb.rule()
	for _, r := range rs {
		tb.row(fmt.Sprintf("%d", r.Subflows), f1(r.AvgGoodput), fmt.Sprintf("%d", r.Flows))
	}
}
