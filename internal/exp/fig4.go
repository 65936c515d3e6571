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

// Fig4Config parameterizes the traffic-shifting experiment on testbed
// 3(a): Flow 2 splits across DN1/DN2 while background flows load DN1
// during phase 1 and DN2 during phase 2.
type Fig4Config struct {
	// Beta is XMP's reduction divisor (the paper contrasts 4 and 6).
	Beta int
	// Phase is the paper's 10 s background epoch (default 2 s).
	Phase sim.Duration
	// K and QueueLimit configure the DN marking queues (paper: 15, 100).
	K, QueueLimit int
}

func (c *Fig4Config) defaults() {
	if c.Beta == 0 {
		c.Beta = 4
	}
	if c.Phase == 0 {
		c.Phase = 2 * sim.Second
	}
	if c.K == 0 {
		c.K = 15
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 100
	}
}

// Fig4Result carries Flow 2's per-subflow rate series.
type Fig4Result struct {
	Config   Fig4Config
	Sub      [2]*metrics.RateSeries
	Capacity netem.Bps
	// PhaseAvg[p][s] is subflow s's average rate (normalized) during
	// phase p: 0 = before background, 1 = background on DN1,
	// 2 = background on DN2, 3 = after.
	PhaseAvg [4][2]float64
}

// RunFig4 executes one panel (one β).
func RunFig4(cfg Fig4Config) *Fig4Result {
	cfg.defaults()
	eng := sim.NewEngine()
	tb := topo.NewTestbedA(eng, topo.TestbedAConfig{
		BottleneckCapacity: 300 * netem.Mbps,
		EdgeCapacity:       netem.Gbps,
		HopDelay:           225 * sim.Microsecond, // 8 hops -> ~1.8 ms RTT
		BottleneckQueue:    topo.ECNMaker(cfg.QueueLimit, cfg.K),
		Background:         1,
	})
	res := &Fig4Result{Config: cfg, Capacity: 300 * netem.Mbps}
	bin := cfg.Phase / 20
	res.Sub[0] = metrics.NewRateSeries(bin)
	res.Sub[1] = metrics.NewRateSeries(bin)

	mkFlow := func(src, dst *netem.Host, paths []int, obs mptcp.Observer) *mptcp.Flow {
		specs := make([]mptcp.SubflowSpec, len(paths))
		for i, p := range paths {
			specs[i] = mptcp.SubflowSpec{SrcAddr: tb.PathAddr(src, p), DstAddr: tb.PathAddr(dst, p)}
		}
		return mptcp.New(eng, mptcp.Options{
			Src: src, Dst: dst,
			Subflows:   specs,
			TotalBytes: -1,
			Algorithm:  mptcp.AlgXMP,
			Beta:       cfg.Beta,
			Transport:  transport.DefaultConfig(),
			NextConnID: tb.NextConnID,
			Observer:   obs,
		})
	}

	// Flows 1 and 3 pin DN1 and DN2; Flow 2 splits.
	f1 := mkFlow(tb.S[0], tb.D[0], []int{0}, nil)
	f3 := mkFlow(tb.S[2], tb.D[2], []int{1}, nil)
	f2 := mkFlow(tb.S[1], tb.D[1], []int{0, 1}, (*subflowSeries)(&res.Sub))
	f1.Start()
	f2.Start()
	f3.Start()

	// Background flows: DN1 during [P, 2P), DN2 during [2P, 3P).
	for p := 0; p < 2; p++ {
		p := p
		bg := mkFlow(tb.BG[p][0].Src, tb.BG[p][0].Dst, []int{p}, nil)
		eng.Schedule(sim.Duration(p+1)*cfg.Phase, bg.Start)
		eng.Schedule(sim.Duration(p+2)*cfg.Phase, bg.StopSending)
	}
	eng.Run(sim.Time(4 * cfg.Phase))

	for ph := 0; ph < 4; ph++ {
		for s := 0; s < 2; s++ {
			res.PhaseAvg[ph][s] = res.Sub[s].AvgRateBps(ph*20, (ph+1)*20) / float64(res.Capacity)
		}
	}
	return res
}

// Render prints the subflow rate series and phase averages.
func (r *Fig4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 4: traffic shifting, beta=%d (phase %v, 300 Mbps bottlenecks)\n",
		r.Config.Beta, r.Config.Phase)
	tb := newTable(w, 8, 12, 12)
	tb.row("bin", "flow2-1", "flow2-2")
	tb.rule()
	for i := 0; i < r.Sub[0].Bins() || i < r.Sub[1].Bins(); i++ {
		tb.row(fmt.Sprintf("%d", i),
			f2(r.Sub[0].Normalized(i, float64(r.Capacity))),
			f2(r.Sub[1].Normalized(i, float64(r.Capacity))))
	}
	tb.rule()
	names := []string{"baseline", "bg on DN1", "bg on DN2", "after"}
	for ph, nm := range names {
		fmt.Fprintf(w, "%-12s flow2-1=%.2f flow2-2=%.2f\n", nm, r.PhaseAvg[ph][0], r.PhaseAvg[ph][1])
	}
}
