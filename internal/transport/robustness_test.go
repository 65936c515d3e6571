package transport_test

import (
	"testing"
	"testing/quick"

	"xmp/internal/cc"
	"xmp/internal/core"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

// TestExactDeliveryUnderRandomLoss is the transport's central reliability
// property: for arbitrary random-loss rates (up to 20%!) and transfer
// sizes, a connection delivers exactly the supplied bytes — no loss, no
// duplication in the application stream — and terminates.
func TestExactDeliveryUnderRandomLoss(t *testing.T) {
	f := func(seed int64, lossPct uint8, sizeKB uint16) bool {
		loss := float64(lossPct%21) / 100 // 0..0.20
		size := int64(sizeKB%512)*1024 + 1
		rng := sim.NewRNG(seed)

		eng := sim.NewEngine()
		d := topo.NewDumbbell(eng, topo.DumbbellConfig{
			Pairs:              1,
			BottleneckCapacity: netem.Gbps,
			EdgeCapacity:       10 * netem.Gbps,
			HopDelay:           31 * sim.Microsecond,
			BottleneckQueue: func(*netem.BuildArena) netem.Queue {
				return netem.NewLossy(netem.NewDropTail(200), loss, rng.Fork(1))
			},
			EdgeQueue: topo.DropTailMaker(1000),
		})
		var ev events
		conn := transport.NewConn(eng, transport.Options{
			ID:         d.NextConnID(),
			Src:        d.Senders[0],
			Dst:        d.Receivers[0],
			Controller: cc.NewReno(2, false),
			Config:     transport.DefaultConfig(),
			Supply:     transport.NewFixedSupply(size),
			Owner:      &ev,
		})
		conn.Start()
		// Generous horizon: 20% loss forces many 200 ms RTO backoffs.
		eng.Run(sim.Time(600 * sim.Second))
		if ev.completed != 1 {
			t.Logf("seed=%d loss=%.2f size=%d: not done (state %v, timeouts %d)",
				seed, loss, size, conn.State(), conn.Stats().Timeouts)
			return false
		}
		st := conn.Stats()
		if st.AckedBytes != size || st.RcvdBytes != size {
			t.Logf("seed=%d loss=%.2f size=%d: acked=%d rcvd=%d",
				seed, loss, size, st.AckedBytes, st.RcvdBytes)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestExactDeliveryUnderLossAllControllers runs the same invariant over
// every congestion controller at a fixed awkward loss rate.
func TestExactDeliveryUnderLossAllControllers(t *testing.T) {
	mk := map[string]func() (cc.Controller, cc.EchoMode){
		"reno":      func() (cc.Controller, cc.EchoMode) { return cc.NewReno(2, false), cc.EchoNone },
		"reno-ecn":  func() (cc.Controller, cc.EchoMode) { return cc.NewReno(2, true), cc.EchoStandard },
		"dctcp":     func() (cc.Controller, cc.EchoMode) { return cc.NewDCTCP(2, cc.DefaultG), cc.EchoDCTCP },
		"fixedbeta": func() (cc.Controller, cc.EchoMode) { return core.NewBOS(2, 4), cc.EchoCounter },
	}
	for name, make := range mk {
		name, make := name, make
		t.Run(name, func(t *testing.T) {
			rng := sim.NewRNG(99)
			eng := sim.NewEngine()
			d := topo.NewDumbbell(eng, topo.DumbbellConfig{
				Pairs:              1,
				BottleneckCapacity: netem.Gbps,
				EdgeCapacity:       10 * netem.Gbps,
				HopDelay:           31 * sim.Microsecond,
				BottleneckQueue: func(*netem.BuildArena) netem.Queue {
					return netem.NewLossy(netem.NewThresholdECN(200, 10), 0.05, rng.Fork(1))
				},
				EdgeQueue: topo.DropTailMaker(1000),
			})
			ctrl, mode := make()
			cfg := transport.DefaultConfig()
			cfg.EchoMode = mode
			const size = 256 << 10
			conn := transport.NewConn(eng, transport.Options{
				ID:         d.NextConnID(),
				Src:        d.Senders[0],
				Dst:        d.Receivers[0],
				Controller: ctrl,
				Config:     cfg,
				Supply:     transport.NewFixedSupply(size),
			})
			conn.Start()
			eng.Run(sim.Time(300 * sim.Second))
			if conn.State() != transport.StateDone {
				t.Fatalf("%s under 5%% loss stuck in %v", name, conn.State())
			}
			if conn.Stats().AckedBytes != size {
				t.Fatalf("%s acked %d", name, conn.Stats().AckedBytes)
			}
		})
	}
}
