package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"xmp/internal/cc"
	"xmp/internal/chaos"
	"xmp/internal/core"
	"xmp/internal/exp"
	"xmp/internal/metrics"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
	"xmp/internal/workload"
)

// This file holds the per-layer rigs: small fixed inputs driven straight
// into one layer's public functions, timed from outside. They do not
// depend on the workload or the seed; every traced run repeats them so a
// per-layer record is complete on its own. README.md says which end-to-end
// metric, on which workload, each is expected to move.

// rigs collects per-layer metrics. Under -smoke the iteration counts shrink
// a hundredfold: the test only checks that every metric is produced.
type rigs struct {
	metrics map[string]metric
	smoke   bool
}

func (g *rigs) set(name string, value float64, unit string) {
	if _, dup := g.metrics[name]; dup {
		panic("bench: metric " + name + " reported twice")
	}
	g.metrics[name] = metric{Value: value, Unit: unit}
}

// n scales a full-size iteration count.
func (g *rigs) n(full int) int {
	if g.smoke {
		return max(full/100, 64)
	}
	return full
}

// rigReps is how many batches a timing rig runs; the metric is the median.
const rigReps = 5

// perOp runs batch(n) — n operations — rigReps times and returns the
// median nanoseconds per operation.
func perOp(n int, batch func(n int)) float64 {
	samples := make([]float64, rigReps)
	for i := range samples {
		t0 := time.Now()
		batch(n)
		samples[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// mallocs returns the heap allocations fn performs.
func mallocs(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

func (g *rigs) runAll() {
	g.sim()
	g.netem()
	g.topo()
	g.transport()
	g.controllers()
	g.workload()
	g.dist()
}

// rearm is a typed event receiver that re-schedules itself until its
// budget runs out: one schedule and one fire per event on a sparse calendar.
type rearm struct {
	eng  *sim.Engine
	left int
}

func (t *rearm) OnEvent(sim.Op, any) {
	if t.left--; t.left > 0 {
		t.eng.ScheduleTarget(sim.Microsecond, t, 0, nil)
	}
}

// churn is one of the standing chains of the dense-calendar rig: op 0 is
// the chain event at the 12 µs serialization horizon, op 1 an RTO-like far
// timer that is cancelled and re-armed on every fire.
type churn struct {
	eng    *sim.Engine
	left   *int
	victim sim.Handle
}

func (t *churn) OnEvent(op sim.Op, _ any) {
	if op == 1 {
		return
	}
	if *t.left--; *t.left <= 0 {
		return
	}
	t.eng.ScheduleTarget(12*sim.Microsecond, t, 0, nil)
	t.eng.Cancel(t.victim)
	t.victim = t.eng.ScheduleTarget(200*sim.Microsecond, t, 1, nil)
}

type nopTarget struct{}

func (nopTarget) OnEvent(sim.Op, any) {}

// parkDense keeps the calendar in its dense regime for the rigs that need
// ring-path behaviour: 65 parked events is one past the sparse bypass.
func parkDense(eng *sim.Engine) {
	for i := 0; i < 65; i++ {
		eng.Schedule(1_000_000*sim.Second, func() {})
	}
}

func (g *rigs) sim() {
	eng := sim.NewEngine()
	chain := &rearm{eng: eng}
	g.set("sim.schedule_fire_ns", perOp(g.n(2_000_000), func(n int) {
		chain.left = n
		eng.ScheduleTarget(sim.Microsecond, chain, 0, nil)
		eng.Run(sim.MaxTime)
	}), "ns")

	// 128 standing chains: every operation is one fire, two schedules and
	// one cancel on ring buckets.
	g.set("sim.dense_churn_ns", perOp(g.n(1_000_000), func(n int) {
		eng := sim.NewEngine()
		left := n
		for i := 0; i < 128; i++ {
			t := &churn{eng: eng, left: &left}
			t.victim = eng.ScheduleTarget(200*sim.Microsecond, t, 1, nil)
			eng.ScheduleTarget(sim.Duration(i+1)*sim.Microsecond, t, 0, nil)
		}
		eng.Run(sim.MaxTime)
	}), "ns")

	// The RTO re-arm: every ACK cancels a pending expiration and schedules
	// a fresh one.
	tm := sim.NewTimer(sim.NewEngine(), func() {})
	g.set("sim.timer_reset_ns", perOp(g.n(2_000_000), func(n int) {
		for i := 0; i < n; i++ {
			tm.Reset(sim.Millisecond)
		}
	}), "ns")
	tm.Stop()

	// Spill buckets in isolation: 32 same-window appends, one drain sort,
	// 32 pops. Reported per event.
	drain := sim.NewEngine()
	parkDense(drain)
	fired := 0
	fn := func() { fired++ }
	g.set("sim.bucket_drain_ns", perOp(g.n(2_000_000), func(n int) {
		for i := 0; i < n; i += 32 {
			base := (drain.Now() + 512) &^ 255 // next-but-one 256 ns window
			for j := 0; j < 32; j++ {
				drain.ScheduleAt(base+sim.Time(j), fn)
			}
			drain.Run(base + 31)
		}
	}), "ns")

	// The RTO that does expire: scheduled 200 ms ahead (overflow heap),
	// promoted into the ring as the clock approaches, then fired.
	far := sim.NewEngine()
	parkDense(far)
	g.set("sim.far_future_ns", perOp(g.n(500_000), func(n int) {
		for i := 0; i < n; i += 64 {
			for j := 0; j < 64; j++ {
				far.ScheduleTarget(200*sim.Millisecond+sim.Duration(j)*sim.Microsecond, nopTarget{}, 0, nil)
			}
			far.Run(far.Now().Add(201 * sim.Millisecond))
		}
	}), "ns")
}

// sink terminates packets like a host: every delivery leaves the
// simulation and returns to the pool.
type sink struct{ delivered int64 }

func (s *sink) Receive(p *netem.Packet) {
	s.delivered++
	p.Release()
}

// countEndpoint is a registered connection endpoint that only counts.
type countEndpoint struct{ delivered int64 }

func (e *countEndpoint) Deliver(*netem.Packet) { e.delivered++ }

func (g *rigs) netem() {
	// One pooled packet through one link: enqueue, serialize, propagate,
	// release. Two calendar events per hop.
	eng := sim.NewEngine()
	pool := netem.NewPacketPool()
	s := &sink{}
	link := netem.NewLink(eng, "l", netem.Gbps, 20*sim.Microsecond, netem.NewDropTail(100), s)
	g.set("netem.link_hop_ns", perOp(g.n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			link.Send(pool.Data(1, 1, 2, int64(i), netem.MSS, true))
			eng.Run(sim.MaxTime)
		}
	}), "ns")

	// The marking queue at its threshold: ten packets stand in it, so every
	// arrival takes the CE-mark branch.
	queueRig := func(q netem.Queue) func(n int) {
		now := sim.Time(0)
		for i := 0; i < 10; i++ {
			q.Enqueue(now, pool.Data(1, 1, 2, int64(i), netem.MSS, true))
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				now++
				p := pool.Data(1, 1, 2, int64(i), netem.MSS, true)
				if !q.Enqueue(now, p) {
					p.Release() // a Lossy drop: the packet leaves here
					continue
				}
				q.Dequeue(now).Release()
			}
		}
	}
	g.set("netem.ecn_enq_deq_ns", perOp(g.n(2_000_000), queueRig(netem.NewThresholdECN(100, 10))), "ns")
	g.set("netem.lossy_enq_ns", perOp(g.n(2_000_000),
		queueRig(netem.NewLossy(netem.NewThresholdECN(100, 10), 0.01, sim.NewRNG(1)))), "ns")

	// Inter-pod host to host on the k=8 fabric over a resolved path: six
	// link hops and the slotted demux. Reported per packet.
	feng := sim.NewEngine()
	ft := topo.NewFatTree(feng, topo.DefaultFatTreeConfig(topo.ECNMaker(100, 10)))
	src, dst := ft.Host(0), ft.Host(ft.NumHosts()-1)
	path := src.PathTo(dst.PrimaryAddr())
	if path == nil || path.Len() != 6 {
		panic("bench: expected a 6-hop inter-pod path on the k=8 fat-tree")
	}
	id := ft.NextConnID()
	ep := &countEndpoint{}
	slot := dst.Register(id, ep)
	g.set("netem.path_6hop_ns", perOp(g.n(300_000), func(n int) {
		for i := 0; i < n; i++ {
			p := src.PacketPool().Data(id, src.PrimaryAddr(), dst.PrimaryAddr(), int64(i), netem.MSS, true)
			p.SetPath(path)
			p.Slot = slot
			src.Send(p)
			feng.Run(sim.MaxTime)
		}
	}), "ns")
	if ep.delivered == 0 {
		panic("bench: path rig delivered nothing")
	}
}

func buildFatTree(k int) *topo.FatTree {
	cfg := topo.DefaultFatTreeConfig(topo.ECNMaker(100, 10))
	cfg.K = k
	return topo.NewFatTree(sim.NewEngine(), cfg)
}

func (g *rigs) topo() {
	g.set("topo.fattree_k8_build_ms", perOp(1, func(int) { buildFatTree(8) })/1e6, "ms")
	g.set("topo.fattree_k4_build_ms", perOp(1, func(int) { buildFatTree(4) })/1e6, "ms")
	g.set("topo.build_allocs", mallocs(func() { buildFatTree(8) }), "count")
}

// twoLinkNet is the transport rig's network: two hosts on one switch, so a
// path is two links each way.
func twoLinkNet(qm topo.QueueMaker) (net *topo.Network, a, b *netem.Host) {
	net = topo.NewNetwork(sim.NewEngine())
	sw := net.NewSwitch("sw", topo.LayerEdge)
	a, b = net.NewHost("a"), net.NewHost("b")
	net.AttachHost(a, sw, netem.Gbps, 20*sim.Microsecond, qm, topo.LayerEdge)
	net.AttachHost(b, sw, netem.Gbps, 20*sim.Microsecond, qm, topo.LayerEdge)
	return net, a, b
}

// transfer moves segs full segments a→b and returns the finished
// connection.
func transfer(net *topo.Network, a, b *netem.Host, ctrl cc.Controller, cfg transport.Config, segs int) *transport.Conn {
	conn := transport.NewConn(net.Eng, transport.Options{
		ID: net.NextConnID(), Src: a, Dst: b,
		Controller: ctrl, Config: cfg,
		Supply: transport.NewFixedSupply(int64(segs) * netem.MSS),
	})
	conn.Start()
	net.Eng.Run(sim.MaxTime)
	if conn.State() != transport.StateDone {
		panic("bench: transport rig transfer stuck in " + conn.State().String())
	}
	return conn
}

func (g *rigs) transport() {
	// Loss-free: DCTCP over marking queues holds its window at the
	// threshold, so nothing drops. Host time per acknowledged segment, its
	// two data hops and two ACK hops included.
	dctcp := transport.DefaultConfig()
	dctcp.EchoMode = cc.EchoDCTCP
	g.set("transport.segment_ns", perOp(g.n(200_000), func(n int) {
		net, a, b := twoLinkNet(topo.ECNMaker(100, 10))
		if st := transfer(net, a, b, cc.NewDCTCP(cc.DefaultInitialWindow, cc.DefaultG), dctcp, n).Stats(); st.RetransSegments != 0 {
			panic("bench: loss-free transport rig retransmitted")
		}
	}), "ns")

	// The same transfer off the fast path: every queue drops 1 % at random,
	// SACK scoreboard on, Reno recovering. The counts repeat exactly.
	sack := transport.DefaultConfig()
	sack.EnableSACK = true
	var st transport.Stats
	g.set("transport.segment_sack_loss_ns", perOp(g.n(50_000), func(n int) {
		rng := sim.NewRNG(1)
		net, a, b := twoLinkNet(func(*netem.BuildArena) netem.Queue {
			return netem.NewLossy(netem.NewDropTail(1000), 0.01, rng.Fork(1))
		})
		st = transfer(net, a, b, cc.NewReno(cc.DefaultInitialWindow, false), sack, n).Stats()
	}), "ns")
	g.set("transport.retrans_frac", float64(st.RetransSegments)/float64(st.SentSegments), "ratio")
	g.set("transport.rto_count", float64(st.Timeouts), "count")

	// One-segment flow lifetimes, back to back: connection set-up,
	// handshake, one data segment, its ACK, completion.
	net, a, b := twoLinkNet(topo.ECNMaker(100, 10))
	g.set("transport.handshake_flow_us", perOp(g.n(50_000), func(n int) {
		for i := 0; i < n; i++ {
			transfer(net, a, b, cc.NewReno(cc.DefaultInitialWindow, false), transport.DefaultConfig(), 1).Detach()
		}
	})/1e3, "us")
}

// onAck drives ctrl with n in-order ACKs, one in sixteen carrying a CE
// echo, publishing its window to m as the transport does. Loss-based
// controllers ignore the echo, so they get a fast retransmit every 4096
// ACKs instead to keep their windows in a steady range.
func onAck(ctrl cc.Controller, m *cc.Member, lossBased bool) func(n int) {
	var una int64
	return func(n int) {
		for i := 0; i < n; i++ {
			una++
			a := cc.Ack{
				Now:        sim.Time(una * 12_000),
				NewlyAcked: 1,
				SndUna:     una,
				SndNxt:     una + int64(ctrl.Window()),
				SRTT:       200 * sim.Microsecond,
			}
			if i%16 == 15 {
				a.ECNEcho = 1
			}
			ctrl.OnAck(a)
			if lossBased && i%4096 == 4095 {
				ctrl.OnFastRetransmit()
			}
			if m != nil {
				m.Cwnd = ctrl.Window()
			}
		}
	}
}

// publish marks a group member established with a measured RTT, as a
// connection's first RTT sample would.
func publish(m *cc.Member, cwnd int, srtt sim.Duration) {
	m.Cwnd, m.SRTT, m.Active = cwnd, srtt, true
}

func (g *rigs) controllers() {
	const acks = 2_000_000
	g.set("cc.reno_onack_ns", perOp(g.n(acks), onAck(cc.NewReno(cc.DefaultInitialWindow, false), nil, true)), "ns")
	g.set("cc.dctcp_onack_ns", perOp(g.n(acks), onAck(cc.NewDCTCP(cc.DefaultInitialWindow, cc.DefaultG), nil, false)), "ns")

	// Coupled controllers: a two-member group, the rig drives member 0
	// while member 1 stands established beside it.
	coupled := func(join func(*cc.FlowGroup, *cc.Member) cc.Controller) (cc.Controller, *cc.Member) {
		group := cc.NewFlowGroup()
		m0, m1 := group.Join(), group.Join()
		ctrl := join(group, m0)
		join(group, m1)
		publish(m0, cc.DefaultInitialWindow, 200*sim.Microsecond)
		publish(m1, 20, 250*sim.Microsecond)
		return ctrl, m0
	}
	amp, m := coupled(func(g *cc.FlowGroup, m *cc.Member) cc.Controller { return cc.NewAMP(cc.DefaultInitialWindow, g, m) })
	g.set("cc.amp_onack_ns", perOp(g.n(acks), onAck(amp, m, false)), "ns")
	lia, m := coupled(func(g *cc.FlowGroup, m *cc.Member) cc.Controller { return mptcp.NewLIA(cc.DefaultInitialWindow, g, m) })
	g.set("mptcp.lia_onack_ns", perOp(g.n(acks), onAck(lia, m, true)), "ns")
	olia, m := coupled(func(g *cc.FlowGroup, m *cc.Member) cc.Controller { return mptcp.NewOLIA(cc.DefaultInitialWindow, g, m) })
	g.set("mptcp.olia_onack_ns", perOp(g.n(acks), onAck(olia, m, true)), "ns")

	xmp := core.XMP(2, cc.DefaultInitialWindow, 4)
	publish(xmp[0].Member, cc.DefaultInitialWindow, 200*sim.Microsecond)
	publish(xmp[1].Member, 20, 250*sim.Microsecond)
	g.set("core.bos_onack_ns", perOp(g.n(acks), onAck(xmp[0].BOS, xmp[0].Member, false)), "ns")

	for _, nsub := range []int{2, 4} {
		tg := cc.NewFlowGroup()
		for i := 0; i < nsub; i++ {
			publish(tg.Join(), 10+i, sim.Duration(200+10*i)*sim.Microsecond)
		}
		delta := core.NewTraSh(tg).DeltaFor(tg.Members()[0])
		var sum float64
		ns := perOp(g.n(acks), func(n int) {
			for i := 0; i < n; i++ {
				sum += delta()
			}
		})
		if sum == 0 {
			panic("bench: TraSh delta rig computed nothing")
		}
		g.set(fmt.Sprintf("core.trash_delta_ns_%dsub", nsub), ns, "ns")
	}
}

func (g *rigs) workload() {
	// One complete 64 KB XMP-2 flow lifetime on a k=4 fabric — launch,
	// transfer, completion, release. Warm: the arena recycles the previous
	// flow's whole graph, so the launch must not allocate. Cold: no arena,
	// a fresh graph per launch. The collector is nil because Dist growth
	// would hide the zero.
	for _, rig := range []struct {
		name  string
		arena *mptcp.Arena
	}{{"flow", mptcp.NewArena()}, {"cold", nil}} {
		ft := buildFatTree(4)
		eng := ft.Engine()
		cfg := workload.Config{
			Net: ft, RNG: sim.NewRNG(1), Scheme: exp.SchemeXMP2,
			Transport: transport.DefaultConfig(), Stop: sim.MaxTime, Arena: rig.arena,
		}
		launch := func(n int) {
			for i := 0; i < n; i++ {
				workload.LaunchFlow(&cfg, 0, 12, 64<<10, nil)
				eng.Run(sim.MaxTime)
			}
		}
		launch(8) // fill the arena, the packet pool and the event free list
		n := g.n(3_000)
		g.set("workload.launch_"+rig.name+"_us", perOp(n, launch)/1e3, "us")
		g.set("workload.launch_"+rig.name+"_allocs", mallocs(func() { launch(n) })/float64(n), "count")
	}
}

func (g *rigs) dist() {
	rng := sim.NewRNG(1)
	fill := func(n int) *metrics.Dist {
		d := &metrics.Dist{}
		for i := 0; i < n; i++ {
			d.Add(rng.Float64())
		}
		return d
	}
	g.set("metrics.dist_add_ns", perOp(g.n(2_000_000), func(n int) { fill(n) }), "ns")

	// The first percentile query pays for ordering the samples.
	big := g.n(1_000_000)
	samples := make([]float64, rigReps)
	for i := range samples {
		d := fill(big)
		t0 := time.Now()
		d.Percentile(99)
		samples[i] = time.Since(t0).Seconds() * 1e3
	}
	g.set("metrics.dist_percentile_ms_1m", median(samples), "ms")

	// What a shard file pays per distribution: marshal, then unmarshal.
	d := fill(g.n(100_000))
	g.set("metrics.dist_json_ms_100k", perOp(1, func(int) {
		data, err := json.Marshal(d)
		if err != nil {
			panic(err)
		}
		if err := json.Unmarshal(data, &metrics.Dist{}); err != nil {
			panic(err)
		}
	})/1e6, "ms")
}

// chaosInstall times resolving and installing a fault schedule on a fresh
// lossy k=8 fabric.
func (g *rigs) chaosInstall(sched chaos.Schedule) {
	samples := make([]float64, rigReps)
	for i := range samples {
		eng := sim.NewEngine()
		lossRNG := sim.NewRNG(1)
		ft := topo.NewFatTree(eng, topo.DefaultFatTreeConfig(func(ba *netem.BuildArena) netem.Queue {
			return netem.NewLossy(ba.NewThresholdECN(100, 10), 0, lossRNG)
		}))
		t0 := time.Now()
		inj, err := chaos.New(ft.Network, sched)
		if err != nil {
			panic(err)
		}
		inj.Install()
		samples[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	g.set("chaos.install_us", median(samples), "us")
}
