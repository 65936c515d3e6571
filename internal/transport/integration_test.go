package transport_test

import (
	"testing"

	"xmp/internal/cc"
	"xmp/internal/core"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

// buildDumbbell returns a 4-pair dumbbell with the given bottleneck queue.
func buildDumbbell(eng *sim.Engine, qm topo.QueueMaker) *topo.Dumbbell {
	// Edges run at 10x the bottleneck so congestion forms at the switch
	// queue under test, not at the sending host's NIC.
	return topo.NewDumbbell(eng, topo.DumbbellConfig{
		Pairs:              4,
		BottleneckCapacity: netem.Gbps,
		EdgeCapacity:       10 * netem.Gbps,
		HopDelay:           31 * sim.Microsecond,
		BottleneckQueue:    qm,
	})
}

func defaultConfig(mode cc.EchoMode) transport.Config {
	cfg := transport.DefaultConfig()
	cfg.EchoMode = mode
	return cfg
}

func startFlow(t *testing.T, d *topo.Dumbbell, pair int, ctrl cc.Controller, mode cc.EchoMode, bytes int64) *transport.Conn {
	t.Helper()
	conn := transport.NewConn(d.Eng, transport.Options{
		ID:         d.NextConnID(),
		Src:        d.Senders[pair],
		Dst:        d.Receivers[pair],
		Controller: ctrl,
		Config:     defaultConfig(mode),
		Supply:     transport.NewFixedSupply(bytes),
	})
	conn.Start()
	return conn
}

// events is a transport.Owner that records what its connection reports.
type events struct {
	progress  int64
	rtts      []sim.Duration
	completed int
	last      *transport.Conn
}

func (e *events) Progress(_ sim.Time, ackedBytes int) { e.progress += int64(ackedBytes) }
func (e *events) RTTSample(rtt sim.Duration)          { e.rtts = append(e.rtts, rtt) }
func (e *events) Complete(c *transport.Conn)          { e.completed++; e.last = c }

func TestRenoTransfersFileExactly(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(1000))
	const size = 1 << 20 // 1 MiB
	var ev events
	conn := transport.NewConn(eng, transport.Options{
		ID:         d.NextConnID(),
		Src:        d.Senders[0],
		Dst:        d.Receivers[0],
		Controller: cc.NewReno(cc.DefaultInitialWindow, false),
		Config:     defaultConfig(cc.EchoNone),
		Supply:     transport.NewFixedSupply(size),
		Owner:      &ev,
	})
	conn.Start()
	eng.Run(sim.Time(5 * sim.Second))

	if ev.completed != 1 || ev.last != conn || conn.State() != transport.StateDone {
		t.Fatalf("transfer did not complete once: state=%v, %d completions", conn.State(), ev.completed)
	}
	st := conn.Stats()
	if ev.progress != st.AckedBytes || len(ev.rtts) == 0 {
		t.Fatalf("owner saw %d bytes of progress and %d RTT samples; the connection acked %d",
			ev.progress, len(ev.rtts), st.AckedBytes)
	}
	if st.AckedBytes != size {
		t.Fatalf("acked %d bytes, want %d", st.AckedBytes, size)
	}
	if st.RcvdBytes != size {
		t.Fatalf("received %d bytes, want %d", st.RcvdBytes, size)
	}
	if st.RetransSegments != 0 || st.Timeouts != 0 {
		t.Fatalf("lossless path saw %d retransmits, %d timeouts", st.RetransSegments, st.Timeouts)
	}
	// 1 MiB over an uncontended 1 Gbps path with slow start completes in
	// well under 50 ms.
	if took := conn.CompletionTime().Sub(conn.StartTime()); took > 50*sim.Millisecond {
		t.Fatalf("transfer took %v", took)
	}
	for _, h := range d.Hosts {
		if h.Misdelivered != 0 {
			t.Fatalf("host %s misdelivered %d packets", h.Name, h.Misdelivered)
		}
	}
}

func TestTinyFlowCompletes(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(1000))
	conn := startFlow(t, d, 0, cc.NewReno(2, false), cc.EchoNone, 2048)
	eng.Run(sim.Time(sim.Second))
	if conn.State() != transport.StateDone {
		t.Fatalf("2 KB flow stuck in %v", conn.State())
	}
	if conn.Stats().AckedBytes != 2048 {
		t.Fatalf("acked %d", conn.Stats().AckedBytes)
	}
	// Two segments: one full, one short.
	if conn.Stats().SentSegments != 2 {
		t.Fatalf("sent %d segments, want 2", conn.Stats().SentSegments)
	}
}

func TestBOSHoldsQueueNearThreshold(t *testing.T) {
	eng := sim.NewEngine()
	const K = 10
	d := buildDumbbell(eng, topo.ECNMaker(100, K))
	conn := transport.NewConn(eng, transport.Options{
		ID:         d.NextConnID(),
		Src:        d.Senders[0],
		Dst:        d.Receivers[0],
		Controller: core.NewBOS(2, 4),
		Config:     defaultConfig(cc.EchoCounter),
		Supply:     transport.InfiniteSupply{},
	})
	conn.Start()
	// Sample the steady-state queue after slow start's one-RTT feedback
	// overshoot has drained.
	maxSteady := 0
	eng.Schedule(100*sim.Millisecond, func() {
		var sample func()
		sample = func() {
			if l := d.Forward.Queue().Len(); l > maxSteady {
				maxSteady = l
			}
			eng.Schedule(100*sim.Microsecond, sample)
		}
		sample()
	})
	eng.Run(sim.Time(500 * sim.Millisecond))

	st := d.Forward.Queue().Stats()
	if st.MarkedPackets == 0 {
		t.Fatal("no packets were marked")
	}
	if st.DroppedPackets != 0 {
		t.Fatalf("BOS overflowed the queue: %d drops", st.DroppedPackets)
	}
	// In steady state BOS holds the queue near K: the overshoot above K is
	// bounded by one round's additive growth plus the marking lag.
	if maxSteady > K+8 {
		t.Fatalf("steady-state queue peaked at %d packets (K=%d)", maxSteady, K)
	}
	// Link utilization must stay high despite the low occupancy:
	// Eq. 1 guarantees full utilization for K >= BDP/(beta-1).
	if u := d.Forward.Utilization(eng.Now()); u < 0.85 {
		t.Fatalf("utilization %.3f too low", u)
	}
	if conn.Stats().Timeouts != 0 {
		t.Fatalf("BOS flow hit %d RTOs", conn.Stats().Timeouts)
	}
}

func TestDCTCPHoldsQueueNearThreshold(t *testing.T) {
	eng := sim.NewEngine()
	const K = 10
	d := buildDumbbell(eng, topo.ECNMaker(100, K))
	conn := transport.NewConn(eng, transport.Options{
		ID:         d.NextConnID(),
		Src:        d.Senders[0],
		Dst:        d.Receivers[0],
		Controller: cc.NewDCTCP(2, cc.DefaultG),
		Config:     defaultConfig(cc.EchoDCTCP),
		Supply:     transport.InfiniteSupply{},
	})
	conn.Start()
	eng.Run(sim.Time(500 * sim.Millisecond))

	st := d.Forward.Queue().Stats()
	if st.MarkedPackets == 0 {
		t.Fatal("no packets were marked")
	}
	if st.DroppedPackets != 0 {
		t.Fatalf("DCTCP overflowed the queue: %d drops", st.DroppedPackets)
	}
	if u := d.Forward.Utilization(eng.Now()); u < 0.85 {
		t.Fatalf("utilization %.3f too low", u)
	}
	if conn.Stats().Timeouts != 0 {
		t.Fatalf("DCTCP flow hit %d RTOs", conn.Stats().Timeouts)
	}
}

func TestRenoFillsDropTailQueue(t *testing.T) {
	eng := sim.NewEngine()
	const limit = 50
	d := buildDumbbell(eng, topo.DropTailMaker(limit))
	conn := transport.NewConn(eng, transport.Options{
		ID:         d.NextConnID(),
		Src:        d.Senders[0],
		Dst:        d.Receivers[0],
		Controller: cc.NewReno(2, false),
		Config:     defaultConfig(cc.EchoNone),
		Supply:     transport.InfiniteSupply{},
	})
	conn.Start()
	eng.Run(sim.Time(500 * sim.Millisecond))

	st := d.Forward.Queue().Stats()
	if st.MaxLen < limit {
		t.Fatalf("Reno peaked at %d packets, expected to fill %d", st.MaxLen, limit)
	}
	if st.DroppedPackets == 0 {
		t.Fatal("expected tail drops")
	}
	if conn.Stats().FastRetransmits == 0 {
		t.Fatal("expected fast retransmits from tail drops")
	}
	// Despite drops the flow keeps moving and sustains high utilization.
	if u := d.Forward.Utilization(eng.Now()); u < 0.8 {
		t.Fatalf("utilization %.3f too low", u)
	}
}

func TestCompetingFlowsShareBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.ECNMaker(100, 10))
	conns := make([]*transport.Conn, 4)
	for i := range conns {
		conns[i] = transport.NewConn(eng, transport.Options{
			ID:         d.NextConnID(),
			Src:        d.Senders[i],
			Dst:        d.Receivers[i],
			Controller: core.NewBOS(2, 4),
			Config:     defaultConfig(cc.EchoCounter),
			Supply:     transport.InfiniteSupply{},
		})
		conns[i].Start()
	}
	eng.Run(sim.Time(sim.Second))

	var total int64
	var min, max int64 = 1 << 62, 0
	for _, c := range conns {
		b := c.AckedBytes()
		total += b
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	// Aggregate must not exceed capacity (1 Gbps for 1 s ≈ 125 MB of
	// wire bytes; payload slightly less).
	if total > 130<<20 {
		t.Fatalf("aggregate acked %d bytes exceeds capacity", total)
	}
	if total < 80<<20 {
		t.Fatalf("aggregate acked %d bytes: bottleneck badly underutilized", total)
	}
	// Rough fairness between identical flows.
	if float64(min) < 0.5*float64(max) {
		t.Fatalf("unfair shares: min %d vs max %d bytes", min, max)
	}
}

func TestLinkFailureRecoversViaRTO(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(100))
	conn := startFlow(t, d, 0, cc.NewReno(2, false), cc.EchoNone, 8<<20)
	eng.Schedule(2*sim.Millisecond, func() { d.Forward.SetDown(true) })
	eng.Schedule(300*sim.Millisecond, func() { d.Forward.SetDown(false) })
	eng.Run(sim.Time(10 * sim.Second))

	if conn.State() != transport.StateDone {
		t.Fatalf("flow did not recover from outage: %v", conn.State())
	}
	if conn.Stats().Timeouts == 0 {
		t.Fatal("expected at least one RTO during the outage")
	}
	if conn.Stats().AckedBytes != 8<<20 {
		t.Fatalf("acked %d", conn.Stats().AckedBytes)
	}
}

func TestDelayedAcksRoughlyHalveAckCount(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(1000))
	conn := startFlow(t, d, 0, cc.NewReno(2, false), cc.EchoNone, 4<<20)
	eng.Run(sim.Time(5 * sim.Second))
	if conn.State() != transport.StateDone {
		t.Fatal("did not complete")
	}
	sent := conn.Stats().SentSegments
	// Count ACK packets that crossed the reverse bottleneck (excluding the
	// handshake's SYNACK).
	acks := d.Reverse.TxPackets() - 1
	if acks <= 0 {
		t.Fatal("no acks observed")
	}
	ratio := float64(acks) / float64(sent)
	if ratio < 0.45 || ratio > 0.75 {
		t.Fatalf("ack ratio %.2f, want ~0.5 with delayed ACKs", ratio)
	}
}

func TestRTTSamplesReflectPath(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(1000))
	var ev events
	conn := transport.NewConn(eng, transport.Options{
		ID:         d.NextConnID(),
		Src:        d.Senders[0],
		Dst:        d.Receivers[0],
		Controller: cc.NewReno(2, false),
		Config:     defaultConfig(cc.EchoNone),
		Supply:     transport.NewFixedSupply(512 << 10),
		Owner:      &ev,
	})
	conn.Start()
	eng.Run(sim.Time(sim.Second))
	samples := ev.rtts
	if len(samples) == 0 {
		t.Fatal("no RTT samples")
	}
	// Base RTT: 6 hops × 31 µs + serialization ≈ 210-260 µs; queuing may
	// add more, but samples must never undercut the propagation floor.
	for _, s := range samples {
		if s < 186*sim.Microsecond {
			t.Fatalf("impossible RTT sample %v", s)
		}
	}
	// A 512 KB slow-start burst may queue hundreds of packets behind the
	// drop-tail bottleneck, inflating RTT to a few ms.
	if srtt := conn.SRTT(); srtt < 186*sim.Microsecond || srtt > 15*sim.Millisecond {
		t.Fatalf("srtt %v out of plausible band", srtt)
	}
}

func TestIncastManyToOne(t *testing.T) {
	eng := sim.NewEngine()
	// 8 senders, 1 receiver host: all response flows collide on the
	// receiver's downlink, the classic incast hotspot.
	n := topo.NewNetwork(eng)
	left := n.NewSwitch("left", topo.LayerEdge)
	right := n.NewSwitch("right", topo.LayerEdge)
	fwd := n.AddLink("l->r", netem.Gbps, 31*sim.Microsecond, netem.NewThresholdECN(64, 10), right, topo.LayerBottleneck)
	rev := n.AddLink("r->l", netem.Gbps, 31*sim.Microsecond, netem.NewThresholdECN(64, 10), left, topo.LayerBottleneck)
	recv := n.NewHost("sink")
	n.AttachHost(recv, right, netem.Gbps, 31*sim.Microsecond, topo.ECNMaker(64, 10), topo.LayerEdge)
	topo.RouteHostAddrs(left, recv, fwd)
	var conns []*transport.Conn
	for i := 0; i < 8; i++ {
		s := n.NewHost("src")
		n.AttachHost(s, left, netem.Gbps, 31*sim.Microsecond, topo.ECNMaker(64, 10), topo.LayerEdge)
		topo.RouteHostAddrs(right, s, rev)
		conns = append(conns, transport.NewConn(eng, transport.Options{
			ID:         n.NextConnID(),
			Src:        s,
			Dst:        recv,
			Controller: cc.NewReno(2, false),
			Config:     defaultConfig(cc.EchoNone),
			Supply:     transport.NewFixedSupply(64 << 10),
		}))
	}
	for _, c := range conns {
		c.Start()
	}
	eng.Run(sim.Time(30 * sim.Second))
	for i, c := range conns {
		if c.State() != transport.StateDone {
			t.Fatalf("incast sender %d stuck in %v (timeouts=%d)", i, c.State(), c.Stats().Timeouts)
		}
		if c.Stats().AckedBytes != 64<<10 {
			t.Fatalf("sender %d acked %d", i, c.Stats().AckedBytes)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []transport.Config{
		{},
		{RTOMin: sim.Millisecond, DelAckCount: 0},
		{RTOMin: 200*sim.Millisecond + 1, DelAckCount: 2}, // above the initial RTO
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated unexpectedly", i)
		}
	}
	if err := transport.DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestSupplies(t *testing.T) {
	s := transport.NewFixedSupply(netem.MSS + 100)
	n1, ok1 := s.Next()
	n2, ok2 := s.Next()
	_, ok3 := s.Next()
	if !ok1 || !ok2 || ok3 {
		t.Fatal("fixed supply availability wrong")
	}
	if n1 != netem.MSS || n2 != 100 {
		t.Fatalf("segments %d,%d", n1, n2)
	}
	if s.Remaining() != 0 {
		t.Fatal("remaining not drained")
	}
	inf := transport.InfiniteSupply{}
	for i := 0; i < 10; i++ {
		if n, ok := inf.Next(); !ok || n != netem.MSS {
			t.Fatal("infinite supply wrong")
		}
	}
}
