package transport_test

import (
	"testing"

	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

// TestIsolateLIASack checks LIA multipath transfers complete with and
// without SACK on a shared bottleneck, with bounded retransmission churn.
func TestIsolateLIASack(t *testing.T) {
	for _, sack := range []bool{false, true} {
		eng := sim.NewEngine()
		tb := topo.NewDumbbell(eng, topo.DumbbellConfig{
			Pairs:              4,
			BottleneckCapacity: 300 * netem.Mbps,
			EdgeCapacity:       netem.Gbps,
			HopDelay:           225 * sim.Microsecond,
			BottleneckQueue:    topo.DropTailMaker(100),
			EdgeQueue:          topo.DropTailMaker(topo.DefaultHostQueue),
		})
		cfg := transport.DefaultConfig()
		cfg.EnableSACK = sack
		var flows []*mptcp.Flow
		for i := 0; i < 4; i++ {
			f := mptcp.New(eng, mptcp.Options{
				Src: tb.Senders[i], Dst: tb.Receivers[i],
				Subflows:   make([]mptcp.SubflowSpec, 4),
				TotalBytes: 12 << 20,
				Algorithm:  mptcp.AlgLIA,
				Transport:  cfg,
				NextConnID: tb.NextConnID,
			})
			f.Start()
			flows = append(flows, f)
		}
		eng.Run(sim.Time(10 * sim.Second))
		var sent, rtx, rto, fr int64
		done := 0
		for _, f := range flows {
			if f.Done() {
				done++
			}
			for i := range f.NumSubflows() {
				st := f.Subflow(i).Stats()
				sent += st.SentSegments
				rtx += st.RetransSegments
				rto += st.Timeouts
				fr += st.FastRetransmits
			}
		}
		_ = rto
		_ = fr
		if done != 4 {
			t.Fatalf("sack=%v: only %d of 4 LIA flows completed", sack, done)
		}
		if rtx*10 > sent {
			t.Fatalf("sack=%v: retransmission churn %d of %d sent", sack, rtx, sent)
		}
	}
}
