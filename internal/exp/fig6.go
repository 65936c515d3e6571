package exp

import (
	"fmt"
	"io"

	"xmp/internal/metrics"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

// Fig6Config parameterizes the fairness experiment on testbed 3(b): four
// flows with 3/2/1/1 subflows share one 300 Mbps bottleneck; subflows
// arrive and flows leave on a schedule, and a fair scheme holds every
// flow at an equal share regardless of its subflow count.
type Fig6Config struct {
	// Beta is XMP's reduction divisor (the paper contrasts 4 and 6).
	Beta int
	// Unit is the paper's 5 s schedule quantum (default 1 s): Flow 1's
	// subflows start at 0, 1u, 3u; Flow 2 (2 subflows) at 4u; Flow 3 at
	// 0; Flow 4 at 2u; Flows 3 and 4 stop at 5u; the run ends at 6u.
	Unit sim.Duration
	// K and QueueLimit configure the bottleneck queue (paper: 15, 100).
	K, QueueLimit int
}

func (c *Fig6Config) defaults() {
	if c.Beta == 0 {
		c.Beta = 4
	}
	if c.Unit == 0 {
		c.Unit = sim.Second
	}
	if c.K == 0 {
		c.K = 15
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 100
	}
}

// Fig6Result carries per-flow aggregate rate series.
type Fig6Result struct {
	Config   Fig6Config
	Flows    [4]*metrics.RateSeries
	Capacity netem.Bps
	// Jain is the fairness index across the four flows during the epoch
	// [4u, 5u) when all are active.
	Jain float64
}

// RunFig6 executes one panel (one β).
func RunFig6(cfg Fig6Config) *Fig6Result {
	cfg.defaults()
	eng := sim.NewEngine()
	tb := topo.NewTestbedB(eng, topo.TestbedBConfig{
		BottleneckCapacity: 300 * netem.Mbps,
		EdgeCapacity:       netem.Gbps,
		HopDelay:           225 * sim.Microsecond,
		BottleneckQueue:    topo.ECNMaker(cfg.QueueLimit, cfg.K),
	})
	res := &Fig6Result{Config: cfg, Capacity: 300 * netem.Mbps}
	bin := cfg.Unit / 20

	u := cfg.Unit
	subOffsets := [4][]sim.Duration{
		{0, 1 * u, 3 * u}, // Flow 1: subflows at 0, 1u, 3u
		{0, 0},            // Flow 2: both subflows when the flow starts (4u)
		{0},               // Flow 3
		{0},               // Flow 4
	}
	startAt := [4]sim.Duration{0, 4 * u, 0, 2 * u}

	flows := make([]*mptcp.Flow, 4)
	for i := 0; i < 4; i++ {
		res.Flows[i] = metrics.NewRateSeries(bin)
		specs := make([]mptcp.SubflowSpec, len(subOffsets[i]))
		for s, off := range subOffsets[i] {
			specs[s] = mptcp.SubflowSpec{StartOffset: off}
		}
		flows[i] = mptcp.New(eng, mptcp.Options{
			Src: tb.S[i], Dst: tb.D[i],
			Subflows:   specs,
			TotalBytes: -1,
			Algorithm:  mptcp.AlgXMP,
			Beta:       cfg.Beta,
			Transport:  transport.DefaultConfig(),
			NextConnID: tb.NextConnID,
			Observer:   flowSeries{res.Flows[i]},
		})
		if startAt[i] == 0 {
			flows[i].Start()
		} else {
			eng.Schedule(startAt[i], flows[i].Start)
		}
	}
	// Flows 3 and 4 shut down at 5u.
	eng.Schedule(5*u, flows[2].StopSending)
	eng.Schedule(5*u, flows[3].StopSending)
	eng.Run(sim.Time(6 * u))

	var shares []float64
	for i := 0; i < 4; i++ {
		shares = append(shares, res.Flows[i].AvgRateBps(4*20, 5*20))
	}
	res.Jain = metrics.JainIndex(shares)
	return res
}

// Render prints the per-epoch normalized rate of each flow.
func (r *Fig6Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: fairness, beta=%d (unit %v; flows have 3/2/1/1 subflows)\n",
		r.Config.Beta, r.Config.Unit)
	tb := newTable(w, 8, 10, 10, 10, 10)
	tb.row("epoch", "flow1", "flow2", "flow3", "flow4")
	tb.rule()
	for ep := 0; ep < 6; ep++ {
		cells := []string{fmt.Sprintf("%d", ep)}
		for i := 0; i < 4; i++ {
			cells = append(cells, f2(r.Flows[i].AvgRateBps(ep*20, (ep+1)*20)/float64(r.Capacity)))
		}
		tb.row(cells...)
	}
	fmt.Fprintf(w, "Jain index over all-active epoch [4u,5u): %.3f\n", r.Jain)
}
