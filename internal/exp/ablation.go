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
	"xmp/internal/workload"
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

// ablationRun drives four long-lived BOS flows (beta 4) over a dumbbell
// whose bottleneck queue and receiver echo mode the variant selects.
func ablationRun(variant string, q func(*sim.RNG) netem.Queue, echo cc.EchoMode, disableGuard bool) AblationResult {
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
	eng.Run(sim.Time(time500ms))
	for _, c := range conns {
		timeouts += c.Stats().Timeouts
	}
	st := d.Forward.Queue().Stats()
	return AblationResult{
		Variant:     variant,
		Utilization: d.Forward.Utilization(eng.Now()),
		AvgQueue:    st.AvgLen(eng.Now()),
		MaxQueue:    st.MaxLen,
		Drops:       st.DroppedPackets,
		Marks:       st.MarkedPackets,
		Timeouts:    timeouts,
	}
}

const time500ms = 500 * sim.Millisecond

// AblationPlan plans the DESIGN.md §4 ablations, one cell per variant:
//
//   - marking rule: instantaneous threshold vs degenerate RED (Wq=1,
//     MinTh=MaxTh=K — must match) vs conventional EWMA RED (must not);
//   - CE feedback: the two-bit counter echo vs latched standard ECN;
//   - the once-per-round reduction guard on vs off.
func AblationPlan(k int) Plan[AblationResult] {
	const limit = 250
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
		Desc:  fmt.Sprintf("ablation K=%d limit=%d variants=%d", k, limit, len(variants)),
		Cells: len(variants),
		Run: func(_ *Worker, i int) AblationResult {
			v := variants[i]
			return ablationRun(v.name, v.q, v.echo, v.disableGuard)
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

// SubflowSweepPlan plans permutation-pattern goodput as the number of XMP
// subflows grows; cell i is counts[i].
func SubflowSweepPlan(counts []int, duration sim.Duration) Plan[SubflowSweepResult] {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	return Plan[SubflowSweepResult]{
		Desc:  fmt.Sprintf("sweep counts=%v duration=%d", counts, int64(duration)),
		Cells: len(counts),
		Run: func(w *Worker, i int) SubflowSweepResult {
			r := RunFatTree(w, FatTreeConfig{
				Pattern:  Permutation,
				Scheme:   schemeXMPn(counts[i]),
				Duration: duration,
			})
			return SubflowSweepResult{
				Subflows:   counts[i],
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

func schemeXMPn(n int) workload.Scheme {
	s := SchemeXMP2
	s.Subflows = n
	return s
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
