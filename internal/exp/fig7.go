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

// Fig7BetaK pairs a reduction divisor with its Equation 1 marking
// threshold, the three settings Figure 7 sweeps.
type Fig7BetaK struct {
	Beta, K int
}

// Fig7Settings are the paper's three (β, K) pairs.
var Fig7Settings = []Fig7BetaK{{4, 20}, {5, 15}, {6, 10}}

// Fig7Config parameterizes the rate-compensation experiment on the Figure
// 5 torus: five 2-subflow flows on a ring of five bottlenecks; background
// flows load L3, then leave; finally L3 is closed.
type Fig7Config struct {
	Setting Fig7BetaK
	// Unit is the paper's 5 s quantum (default 1 s): flow i starts at
	// i·u; background flow j starts at (5+j)·u and stops at (9+j)·u; L3
	// closes at 12u; the run ends at 13u.
	Unit       sim.Duration
	QueueLimit int
}

func (c *Fig7Config) defaults() {
	if c.Setting.Beta == 0 {
		c.Setting = Fig7Settings[0]
	}
	if c.Unit == 0 {
		c.Unit = sim.Second
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 100
	}
}

// Fig7Capacities are the paper's bottleneck capacities, left to right.
var Fig7Capacities = []netem.Bps{
	800 * netem.Mbps, 1200 * netem.Mbps, 2 * netem.Gbps, 1500 * netem.Mbps, 500 * netem.Mbps,
}

// Fig7Result carries the subflow rate series of the five flows.
type Fig7Result struct {
	Config Fig7Config
	// Sub[i][s] is flow i+1's subflow s; subflow 0 crosses bottleneck i,
	// subflow 1 crosses bottleneck i+1 (mod 5).
	Sub [5][2]*metrics.RateSeries
	// Caps[i][s] is the capacity of the bottleneck subflow s crosses.
	Caps [5][2]netem.Bps
	// Epochs is the number of unit-long epochs recorded (13).
	Epochs int
}

// RunFig7 executes one sweep setting.
func RunFig7(cfg Fig7Config) *Fig7Result {
	cfg.defaults()
	eng := sim.NewEngine()
	tr := topo.NewTorus(eng, topo.TorusConfig{
		Capacities:      Fig7Capacities,
		EdgeCapacity:    10 * netem.Gbps,
		HopDelay:        35 * sim.Microsecond, // 10 hops -> 350 us RTT
		BottleneckQueue: topo.ECNMaker(cfg.QueueLimit, cfg.Setting.K),
		Background:      4,
	})
	res := &Fig7Result{Config: cfg, Epochs: 13}
	bin := cfg.Unit / 20
	u := cfg.Unit

	for i := 0; i < 5; i++ {
		i := i
		res.Sub[i][0] = metrics.NewRateSeries(bin)
		res.Sub[i][1] = metrics.NewRateSeries(bin)
		res.Caps[i][0] = Fig7Capacities[i]
		res.Caps[i][1] = Fig7Capacities[(i+1)%5]
		f := mptcp.New(eng, mptcp.Options{
			Src: tr.S[i], Dst: tr.D[i],
			Subflows: []mptcp.SubflowSpec{
				{SrcAddr: tr.PathAddr(tr.S[i], 0), DstAddr: tr.PathAddr(tr.D[i], 0)},
				{SrcAddr: tr.PathAddr(tr.S[i], 1), DstAddr: tr.PathAddr(tr.D[i], 1)},
			},
			TotalBytes: -1,
			Algorithm:  mptcp.AlgXMP,
			Beta:       cfg.Setting.Beta,
			Transport:  transport.DefaultConfig(),
			NextConnID: tr.NextConnID,
			OnProgress: func(s int, now sim.Time, b int) { res.Sub[i][s].Add(now, b) },
		})
		eng.Schedule(sim.Duration(i)*u, f.Start)
	}
	// Background flows on L3.
	for j := 0; j < 4; j++ {
		j := j
		bg := mptcp.New(eng, mptcp.Options{
			Src: tr.BG[j].Src, Dst: tr.BG[j].Dst,
			Subflows:   []mptcp.SubflowSpec{{}},
			TotalBytes: -1,
			Algorithm:  mptcp.AlgXMP,
			Beta:       cfg.Setting.Beta,
			Transport:  transport.DefaultConfig(),
			NextConnID: tr.NextConnID,
		})
		eng.Schedule(sim.Duration(5+j)*u, bg.Start)
		eng.Schedule(sim.Duration(9+j)*u, bg.StopSending)
	}
	// L3 (index 2) closes at 12u.
	eng.Schedule(12*u, func() { tr.SetBottleneckDown(2, true) })
	eng.Run(sim.Time(13 * u))
	return res
}

// EpochRate returns flow (i+1) subflow s's normalized average rate in
// epoch ep.
func (r *Fig7Result) EpochRate(i, s, ep int) float64 {
	return r.Sub[i][s].AvgRateBps(ep*20, (ep+1)*20) / float64(r.Caps[i][s])
}

// Render prints the per-epoch normalized subflow rates of every flow.
func (r *Fig7Result) Render(w io.Writer) {
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
	for ep := 0; ep < r.Epochs; ep++ {
		cells := []string{fmt.Sprintf("%d", ep)}
		for i := 0; i < 5; i++ {
			for s := 0; s < 2; s++ {
				cells = append(cells, f2(r.EpochRate(i, s, ep)))
			}
		}
		tb.row(cells...)
	}
}
