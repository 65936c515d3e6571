package exp

import (
	"fmt"
	"io"

	"xmp/internal/cc"
	"xmp/internal/core"
	"xmp/internal/metrics"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

// Fig1Mode selects the congestion controller of Figure 1's comparison.
type Fig1Mode string

// The two controllers Figure 1 compares under threshold marking.
const (
	Fig1DCTCP   Fig1Mode = "DCTCP"
	Fig1Halving Fig1Mode = "Halving" // BOS at β=2 with δ fixed at 1 ("halving cwnd")
)

// Fig1Config parameterizes one Figure 1 panel: four flows on a 1 Gbps
// bottleneck with base RTT 225 µs, flows starting and then stopping at a
// fixed interval, under marking threshold K.
type Fig1Config struct {
	Mode Fig1Mode
	K    int
	// Interval between flow starts/stops (paper: 5 s; default 1 s).
	Interval sim.Duration
	// QueueLimit is the switch buffer (default 250, ample for both modes).
	QueueLimit int
}

func (c *Fig1Config) defaults() {
	if c.Mode == "" {
		c.Mode = Fig1Halving
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.Interval == 0 {
		c.Interval = sim.Second
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 250
	}
}

// Fig1Result carries the per-flow rate series of one panel.
type Fig1Result struct {
	Config   Fig1Config
	Series   [4]*metrics.RateSeries
	Capacity netem.Bps
	// JainPerEpoch is Jain's index across the flows active in each
	// interval-long epoch (epochs with <2 active flows are reported as 1).
	JainPerEpoch []float64
	// AvgQueueLen is the bottleneck's time-average occupancy in packets.
	AvgQueueLen float64
	Drops       int64
}

// RunFig1 executes one panel.
func RunFig1(cfg Fig1Config) *Fig1Result {
	cfg.defaults()
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, topo.DumbbellConfig{
		Pairs:              4,
		BottleneckCapacity: netem.Gbps,
		HopDelay:           37500 * sim.Nanosecond, // 6 hops -> 225 us base RTT
		BottleneckQueue:    topo.ECNMaker(cfg.QueueLimit, cfg.K),
	})
	res := &Fig1Result{Config: cfg, Capacity: netem.Gbps}
	bin := cfg.Interval / 20

	tcfg := transport.DefaultConfig()
	conns := make([]*transport.Conn, 4)
	for i := 0; i < 4; i++ {
		res.Series[i] = metrics.NewRateSeries(bin)
		var ctrl cc.Controller
		var mode cc.EchoMode
		switch cfg.Mode {
		case Fig1DCTCP:
			ctrl, mode = cc.NewDCTCP(cc.DefaultInitialWindow, cc.DefaultG), cc.EchoDCTCP
		case Fig1Halving:
			ctrl, mode = core.NewBOS(cc.DefaultInitialWindow, 2, nil), cc.EchoCounter
		default:
			panic("exp: unknown Fig1 mode")
		}
		c := tcfg
		c.EchoMode = mode
		conns[i] = transport.NewConn(eng, transport.Options{
			ID:         d.NextConnID(),
			Src:        d.Senders[i],
			Dst:        d.Receivers[i],
			Controller: ctrl,
			Config:     c,
			Supply:     transport.InfiniteSupply{},
			Owner:      connSeries{res.Series[i]},
		})
		// Flow i starts at i*T and stops at (4+i)*T.
		eng.Schedule(sim.Duration(i)*cfg.Interval, conns[i].Start)
		eng.Schedule(sim.Duration(4+i)*cfg.Interval, conns[i].StopSending)
	}
	end := sim.Time(8 * cfg.Interval)
	eng.Run(end)

	// Epoch fairness across active flows.
	binsPerEpoch := 20
	for ep := 0; ep < 8; ep++ {
		var active []float64
		for i := 0; i < 4; i++ {
			if ep >= i && ep < 4+i { // flow i active during [i, 4+i) epochs
				active = append(active, res.Series[i].AvgRateBps(ep*binsPerEpoch, (ep+1)*binsPerEpoch))
			}
		}
		if len(active) < 2 {
			res.JainPerEpoch = append(res.JainPerEpoch, 1)
		} else {
			res.JainPerEpoch = append(res.JainPerEpoch, metrics.JainIndex(active))
		}
	}
	st := d.Forward.Queue().Stats()
	res.AvgQueueLen = st.AvgLen(eng.Now())
	res.Drops = st.DroppedPackets
	return res
}

// Render prints the panel as the per-epoch normalized rates of each flow,
// the series the paper plots.
func (r *Fig1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 1 panel: %s, K=%d (interval %v, avg queue %.1f pkts, drops %d)\n",
		r.Config.Mode, r.Config.K, r.Config.Interval, r.AvgQueueLen, r.Drops)
	tb := newTable(w, 8, 10, 10, 10, 10, 10)
	tb.row("epoch", "flow1", "flow2", "flow3", "flow4", "jain")
	tb.rule()
	for ep := 0; ep < 8; ep++ {
		cells := []string{fmt.Sprintf("%d", ep)}
		for i := 0; i < 4; i++ {
			v := r.Series[i].AvgRateBps(ep*20, (ep+1)*20) / float64(r.Capacity)
			cells = append(cells, f2(v))
		}
		cells = append(cells, f2(r.JainPerEpoch[ep]))
		tb.row(cells...)
	}
}
