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
// bottleneck with base RTT 225 µs and a 250-packet buffer (ample for both
// modes), flows starting and then stopping at a fixed interval, under
// marking threshold K.
type Fig1Config struct {
	Mode Fig1Mode
	K    int
	// Interval between flow starts/stops (paper: 5 s; xmpsim: 1 s).
	Interval sim.Duration
}

// Fig1Result is one panel as rendered.
type Fig1Result struct {
	Config Fig1Config
	// Rates[ep][i] is flow i's average rate in interval-long epoch ep,
	// normalized to the bottleneck.
	Rates [8][4]float64
	// Jain[ep] is Jain's index across the flows active in epoch ep (1 for
	// epochs with fewer than two).
	Jain [8]float64
	// AvgQueueLen is the bottleneck's time-average occupancy in packets.
	AvgQueueLen float64
	Drops       int64
}

// RunFig1 executes one panel and drains it through Cell.Run.
func RunFig1(cfg Fig1Config) Fig1Result {
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, topo.DumbbellConfig{
		Pairs:              4,
		BottleneckCapacity: netem.Gbps,
		HopDelay:           37500 * sim.Nanosecond, // 6 hops -> 225 us base RTT
		BottleneckQueue:    topo.ECNMaker(250, cfg.K),
	})
	var series [4]*metrics.RateSeries
	tcfg := transport.DefaultConfig()
	conns := make([]*transport.Conn, 4)
	var sched phases
	for i := range conns {
		series[i] = metrics.NewRateSeries(cfg.Interval / 20)
		var ctrl cc.Controller
		switch cfg.Mode {
		case Fig1DCTCP:
			ctrl, tcfg.EchoMode = cc.NewDCTCP(cc.DefaultInitialWindow, cc.DefaultG), cc.EchoDCTCP
		case Fig1Halving:
			ctrl, tcfg.EchoMode = core.NewBOS(cc.DefaultInitialWindow, 2), cc.EchoCounter
		default:
			panic("exp: unknown Fig1 mode")
		}
		conns[i] = transport.NewConn(eng, transport.Options{
			ID:         d.NextConnID(),
			Src:        d.Senders[i],
			Dst:        d.Receivers[i],
			Controller: ctrl,
			Config:     tcfg,
			Supply:     transport.InfiniteSupply{},
			Owner:      connSeries{series[i]},
		})
		// Flow i starts at i*T and stops at (4+i)*T.
		sched = append(sched,
			phase{at: sim.Duration(i) * cfg.Interval, op: phaseStart, flow: conns[i]},
			phase{at: sim.Duration(4+i) * cfg.Interval, op: phaseStop, flow: conns[i]})
	}
	sched.install(eng)
	eng.Run(sim.Time(8 * cfg.Interval))

	res := Fig1Result{Config: cfg}
	for ep := range res.Rates {
		var active []float64
		for i, s := range series {
			bps := s.AvgRateBps(ep*20, (ep+1)*20)
			res.Rates[ep][i] = bps / float64(netem.Gbps)
			if ep >= i && ep < 4+i { // flow i active during [i, 4+i) epochs
				active = append(active, bps)
			}
		}
		res.Jain[ep] = 1
		if len(active) >= 2 {
			res.Jain[ep] = metrics.JainIndex(active)
		}
	}
	st := d.Forward.Queue().Stats()
	res.AvgQueueLen = st.AvgLen(eng.Now())
	res.Drops = st.DroppedPackets
	drain(d.Network, conns...)
	return res
}

// Render prints the panel as the per-epoch normalized rates of each flow,
// the series the paper plots.
func (r Fig1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 1 panel: %s, K=%d (interval %v, avg queue %.1f pkts, drops %d)\n",
		r.Config.Mode, r.Config.K, r.Config.Interval, r.AvgQueueLen, r.Drops)
	tb := newTable(w, 8, 10, 10, 10, 10, 10)
	tb.row("epoch", "flow1", "flow2", "flow3", "flow4", "jain")
	tb.rule()
	for ep, rates := range r.Rates {
		cells := []string{fmt.Sprintf("%d", ep)}
		for _, v := range rates {
			cells = append(cells, f2(v))
		}
		tb.row(append(cells, f2(r.Jain[ep]))...)
	}
}
