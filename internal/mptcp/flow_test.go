package mptcp_test

import (
	"testing"

	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

func testbedA(eng *sim.Engine) *topo.TestbedA {
	return topo.NewTestbedA(eng, topo.TestbedAConfig{
		BottleneckCapacity: 300 * netem.Mbps,
		EdgeCapacity:       netem.Gbps,
		HopDelay:           225 * sim.Microsecond,
		BottleneckQueue:    topo.ECNMaker(100, 15),
		Background:         1,
	})
}

// fairnessTestbed is the Figure 3(b) testbed: four sender/receiver pairs
// on 1 Gbps edges across one 300 Mbps bottleneck (K=15, 100 packets).
func fairnessTestbed(eng *sim.Engine) *topo.Dumbbell {
	return topo.NewDumbbell(eng, topo.DumbbellConfig{
		Pairs:              4,
		BottleneckCapacity: 300 * netem.Mbps,
		EdgeCapacity:       netem.Gbps,
		HopDelay:           225 * sim.Microsecond,
		BottleneckQueue:    topo.ECNMaker(100, 15),
		EdgeQueue:          topo.DropTailMaker(topo.DefaultHostQueue),
	})
}

func flowOpts(tb *topo.TestbedA, alg mptcp.Algorithm) mptcp.Options {
	return mptcp.Options{
		Transport:  transport.DefaultConfig(),
		Algorithm:  alg,
		TotalBytes: -1,
		NextConnID: tb.NextConnID,
		Beta:       4,
	}
}

// xmpFlow2 builds the paper's Flow 2: two subflows, one per DN.
func xmpFlow2(tb *topo.TestbedA, alg mptcp.Algorithm) *mptcp.Flow {
	opts := flowOpts(tb, alg)
	opts.Src, opts.Dst = tb.S[1], tb.D[1]
	opts.Subflows = []mptcp.SubflowSpec{
		{SrcAddr: tb.PathAddr(tb.S[1], 0), DstAddr: tb.PathAddr(tb.D[1], 0)},
		{SrcAddr: tb.PathAddr(tb.S[1], 1), DstAddr: tb.PathAddr(tb.D[1], 1)},
	}
	return mptcp.New(tb.Eng, opts)
}

// singlePath builds a one-subflow flow between pair index i via DN path p.
func singlePath(tb *topo.TestbedA, i, p int, alg mptcp.Algorithm, bytes int64) *mptcp.Flow {
	opts := flowOpts(tb, alg)
	opts.Src, opts.Dst = tb.S[i], tb.D[i]
	opts.TotalBytes = bytes
	opts.Subflows = []mptcp.SubflowSpec{
		{SrcAddr: tb.PathAddr(tb.S[i], p), DstAddr: tb.PathAddr(tb.D[i], p)},
	}
	return mptcp.New(tb.Eng, opts)
}

func TestXMPFlowSaturatesBothPaths(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	f := xmpFlow2(tb, mptcp.AlgXMP)
	f.Start()
	eng.Run(sim.Time(3 * sim.Second))
	// Alone in the network, the flow should pull close to 600 Mbps total.
	goodput := f.GoodputBps(eng.Now())
	if goodput < 450e6 {
		t.Fatalf("2-subflow XMP goodput %.0f bps, want >450 Mbps of 600", goodput)
	}
	b0 := f.Subflow(0).AckedBytes()
	b1 := f.Subflow(1).AckedBytes()
	if b0 == 0 || b1 == 0 {
		t.Fatalf("a subflow moved no data: %d / %d", b0, b1)
	}
	ratio := float64(b0) / float64(b1)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("equal paths shared unequally: %d vs %d bytes", b0, b1)
	}
}

func TestTraShShiftsTrafficAwayFromCongestion(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)

	// Paper Figure 4 cast: Flow 1 on DN1, Flow 3 on DN2, Flow 2 split.
	f1 := singlePath(tb, 0, 0, mptcp.AlgXMP, -1)
	f3 := singlePath(tb, 2, 1, mptcp.AlgXMP, -1)
	f2 := xmpFlow2(tb, mptcp.AlgXMP)
	f1.Start()
	f2.Start()
	f3.Start()

	// Background flow loads DN1 from t=3s.
	bgOpts := flowOpts(tb, mptcp.AlgXMP)
	bgOpts.Src, bgOpts.Dst = tb.BG[0][0].Src, tb.BG[0][0].Dst
	bgOpts.Subflows = []mptcp.SubflowSpec{
		{SrcAddr: tb.PathAddr(tb.BG[0][0].Src, 0), DstAddr: tb.PathAddr(tb.BG[0][0].Dst, 0)},
	}
	bg := mptcp.New(eng, bgOpts)
	eng.Schedule(3*sim.Second, func() { bg.Start() })

	// Measure each subflow's bytes over [2s,3s) and [5s,6s).
	var before, after [2]int64
	snap := func(dst *[2]int64, sign int64) func() {
		return func() {
			for i := range f2.NumSubflows() {
				dst[i] += sign * f2.Subflow(i).AckedBytes()
			}
		}
	}
	eng.Schedule(2*sim.Second, snap(&before, -1))
	eng.Schedule(3*sim.Second, snap(&before, +1))
	eng.Schedule(5*sim.Second, snap(&after, -1))
	eng.Schedule(6*sim.Second, snap(&after, +1))
	eng.Run(sim.Time(6 * sim.Second))

	// Before: DN1 carries f1 + f2-1 (~150 each), DN2 carries f3 + f2-2.
	// After the background flow joins DN1, TraSh must shift f2's traffic:
	// subflow 1 sheds load and subflow 2 gains.
	if before[0] == 0 || before[1] == 0 {
		t.Fatalf("subflows idle before background: %v", before)
	}
	if after[0] >= before[0] {
		t.Fatalf("congested-path subflow did not shed: %d -> %d bytes/s", before[0], after[0])
	}
	if after[1] <= before[1] {
		t.Fatalf("uncongested-path subflow did not compensate: %d -> %d bytes/s", before[1], after[1])
	}
}

func TestXMPFairnessIrrespectiveOfSubflowCount(t *testing.T) {
	eng := sim.NewEngine()
	tb := fairnessTestbed(eng)
	counts := []int{3, 2, 1, 1}
	flows := make([]*mptcp.Flow, 4)
	for i, nsub := range counts {
		specs := make([]mptcp.SubflowSpec, nsub)
		flows[i] = mptcp.New(eng, mptcp.Options{
			Src:        tb.Senders[i],
			Dst:        tb.Receivers[i],
			Subflows:   specs, // all subflows share the single bottleneck path
			TotalBytes: -1,
			Algorithm:  mptcp.AlgXMP,
			Beta:       4,
			Transport:  transport.DefaultConfig(),
			NextConnID: tb.NextConnID,
		})
		flows[i].Start()
	}
	eng.Run(sim.Time(5 * sim.Second))

	var total int64
	var shares [4]int64
	for i, f := range flows {
		shares[i] = f.AckedBytes()
		total += shares[i]
	}
	if total == 0 {
		t.Fatal("no data moved")
	}
	for i, s := range shares {
		frac := float64(s) / float64(total)
		if frac < 0.15 || frac > 0.38 {
			t.Fatalf("flow %d (%d subflows) got share %.2f of the bottleneck; want ~0.25 each (%v)",
				i, counts[i], frac, shares)
		}
	}
	// The paper's contrast: uncoupled subflows grab shares proportional to
	// subflow count; the 3-subflow flow must NOT get ~3x flow 3's share.
	if float64(shares[0]) > 2.0*float64(shares[2]) {
		t.Fatalf("coupling failed: 3-subflow flow got %d vs single's %d", shares[0], shares[2])
	}
}

func TestUncoupledBOSIsUnfair(t *testing.T) {
	// The ablation: without TraSh the 3-subflow flow takes roughly 3
	// shares, which is exactly what coupling is meant to prevent.
	eng := sim.NewEngine()
	tb := fairnessTestbed(eng)
	counts := []int{3, 1}
	flows := make([]*mptcp.Flow, 2)
	for i, nsub := range counts {
		flows[i] = mptcp.New(eng, mptcp.Options{
			Src:        tb.Senders[i],
			Dst:        tb.Receivers[i],
			Subflows:   make([]mptcp.SubflowSpec, nsub),
			TotalBytes: -1,
			Algorithm:  mptcp.AlgUncoupledBOS,
			Beta:       4,
			Transport:  transport.DefaultConfig(),
			NextConnID: tb.NextConnID,
		})
		flows[i].Start()
	}
	eng.Run(sim.Time(5 * sim.Second))
	r := float64(flows[0].AckedBytes()) / float64(flows[1].AckedBytes())
	if r < 1.8 {
		t.Fatalf("uncoupled 3-subflow flow got only %.2fx the single-subflow share; expected ~3x", r)
	}
}

func TestFiniteMPTCPFlowDeliversExactly(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	const size = 16 << 20
	var obs recorder
	opts := flowOpts(tb, mptcp.AlgXMP)
	opts.Src, opts.Dst = tb.S[1], tb.D[1]
	opts.TotalBytes = size
	opts.Subflows = []mptcp.SubflowSpec{
		{SrcAddr: tb.PathAddr(tb.S[1], 0), DstAddr: tb.PathAddr(tb.D[1], 0)},
		{SrcAddr: tb.PathAddr(tb.S[1], 1), DstAddr: tb.PathAddr(tb.D[1], 1)},
	}
	opts.Observer = &obs
	f := mptcp.New(eng, opts)
	f.Start()
	eng.Run(sim.Time(30 * sim.Second))
	if obs.completed != 1 || !f.Done() {
		t.Fatal("finite flow did not complete")
	}
	if got := f.AckedBytes(); got != size {
		t.Fatalf("acked %d bytes, want %d", got, size)
	}
	// Both subflows must have carried a share.
	for i := range f.NumSubflows() {
		if f.Subflow(i).AckedBytes() == 0 {
			t.Fatalf("subflow %d carried nothing", i)
		}
	}
	if f.GoodputBps(eng.Now()) < 300e6 {
		t.Fatalf("2-path goodput %.0f bps too low", f.GoodputBps(eng.Now()))
	}
}

func TestStaggeredSubflowStart(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	opts := flowOpts(tb, mptcp.AlgXMP)
	opts.Src, opts.Dst = tb.S[1], tb.D[1]
	opts.Subflows = []mptcp.SubflowSpec{
		{SrcAddr: tb.PathAddr(tb.S[1], 0), DstAddr: tb.PathAddr(tb.D[1], 0)},
		{SrcAddr: tb.PathAddr(tb.S[1], 1), DstAddr: tb.PathAddr(tb.D[1], 1), StartOffset: sim.Second},
	}
	f := mptcp.New(eng, opts)
	f.Start()
	eng.Run(sim.Time(500 * sim.Millisecond))
	if f.Subflow(1).State() != transport.StateIdle {
		t.Fatal("offset subflow started early")
	}
	if f.Subflow(0).AckedBytes() == 0 {
		t.Fatal("first subflow idle")
	}
	eng.Run(sim.Time(2 * sim.Second))
	if f.Subflow(1).AckedBytes() == 0 {
		t.Fatal("offset subflow never started")
	}
}

func TestLIAFlowTransfers(t *testing.T) {
	eng := sim.NewEngine()
	tb := topo.NewTestbedA(eng, topo.TestbedAConfig{
		BottleneckCapacity: 300 * netem.Mbps,
		EdgeCapacity:       netem.Gbps,
		HopDelay:           225 * sim.Microsecond,
		BottleneckQueue:    topo.DropTailMaker(100), // LIA is loss-based
		Background:         0,
	})
	f := xmpFlow2(tb, mptcp.AlgLIA)
	f.Start()
	eng.Run(sim.Time(3 * sim.Second))
	if f.GoodputBps(eng.Now()) < 300e6 {
		t.Fatalf("LIA-2 goodput %.0f bps too low", f.GoodputBps(eng.Now()))
	}
	// LIA saturates the drop-tail queues; it must be seeing losses, not
	// marks (it is not ECN-capable).
	if tb.DNFwd[0].Queue().Stats().MarkedPackets != 0 {
		t.Fatal("non-ECT LIA packets were marked")
	}
}

func TestOLIAFlowTransfers(t *testing.T) {
	eng := sim.NewEngine()
	tb := topo.NewTestbedA(eng, topo.TestbedAConfig{
		BottleneckCapacity: 300 * netem.Mbps,
		EdgeCapacity:       netem.Gbps,
		HopDelay:           225 * sim.Microsecond,
		BottleneckQueue:    topo.DropTailMaker(100),
		Background:         0,
	})
	f := xmpFlow2(tb, mptcp.AlgOLIA)
	f.Start()
	eng.Run(sim.Time(3 * sim.Second))
	if f.GoodputBps(eng.Now()) < 250e6 {
		t.Fatalf("OLIA-2 goodput %.0f bps too low", f.GoodputBps(eng.Now()))
	}
}

func TestSinglePathSchemesViaFlow(t *testing.T) {
	for _, alg := range []mptcp.Algorithm{mptcp.AlgDCTCP, mptcp.AlgRenoECN, mptcp.AlgReno} {
		eng := sim.NewEngine()
		tb := testbedA(eng)
		f := singlePath(tb, 0, 0, alg, 4<<20)
		f.Start()
		eng.Run(sim.Time(10 * sim.Second))
		if !f.Done() {
			t.Fatalf("%v single-path flow did not complete", alg)
		}
		if f.AckedBytes() != 4<<20 {
			t.Fatalf("%v acked %d", alg, f.AckedBytes())
		}
	}
}

func TestFlowValidation(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	base := mptcp.Options{
		Src: tb.S[0], Dst: tb.D[0],
		Subflows:   []mptcp.SubflowSpec{{}},
		TotalBytes: -1,
		Transport:  transport.DefaultConfig(),
		NextConnID: tb.NextConnID,
	}
	mustPanic := func(name string, mutate func(*mptcp.Options)) {
		o := base
		o.Subflows = append([]mptcp.SubflowSpec(nil), base.Subflows...)
		mutate(&o)
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		mptcp.New(eng, o)
	}
	mustPanic("no subflows", func(o *mptcp.Options) { o.Subflows = nil })
	mustPanic("multi-subflow DCTCP", func(o *mptcp.Options) {
		o.Algorithm = mptcp.AlgDCTCP
		o.Subflows = make([]mptcp.SubflowSpec, 2)
	})
	mustPanic("zero bytes", func(o *mptcp.Options) { o.TotalBytes = 0 })
	mustPanic("nil conn ids", func(o *mptcp.Options) { o.NextConnID = nil })
}

// TestSharedSupplyConservation: however many subflows drain the shared
// supply, exactly TotalBytes are handed out, delivered, and acknowledged
// — no loss, duplication, or invention at the flow layer.
func TestSharedSupplyConservation(t *testing.T) {
	for _, nsub := range []int{1, 2, 3, 4} {
		eng := sim.NewEngine()
		tb := testbedA(eng)
		const total = 3<<20 + 12345 // deliberately not segment-aligned
		specs := make([]mptcp.SubflowSpec, nsub)
		for i := range specs {
			specs[i] = mptcp.SubflowSpec{
				SrcAddr: tb.PathAddr(tb.S[1], i%2),
				DstAddr: tb.PathAddr(tb.D[1], i%2),
			}
		}
		f := mptcp.New(eng, mptcp.Options{
			Src: tb.S[1], Dst: tb.D[1],
			Subflows:   specs,
			TotalBytes: total,
			Algorithm:  mptcp.AlgXMP,
			Transport:  transport.DefaultConfig(),
			NextConnID: tb.NextConnID,
		})
		f.Start()
		eng.Run(sim.Time(30 * sim.Second))
		if !f.Done() {
			t.Fatalf("%d subflows: flow not done", nsub)
		}
		if got := f.AckedBytes(); got != total {
			t.Fatalf("%d subflows: acked %d, want %d", nsub, got, total)
		}
		var rcvd int64
		for i := range f.NumSubflows() {
			rcvd += f.Subflow(i).Stats().RcvdBytes
		}
		if rcvd != total {
			t.Fatalf("%d subflows: receivers saw %d unique bytes, want %d", nsub, rcvd, total)
		}
	}
}

// TestXMPFlowOverVL2 exercises the Fabric abstraction end to end: the
// Random workload generator driving XMP flows over the VL2 Clos.
func TestXMPFlowOverVL2(t *testing.T) {
	eng := sim.NewEngine()
	v := topo.NewVL2(eng, topo.DefaultVL2Config(topo.ECNMaker(100, 10)))
	f := mptcp.New(eng, mptcp.Options{
		Src: v.Servers[0], Dst: v.Servers[20],
		Subflows: []mptcp.SubflowSpec{
			{SrcAddr: v.Alias(v.Servers[0], 0), DstAddr: v.Alias(v.Servers[20], 0)},
			{SrcAddr: v.Alias(v.Servers[0], 1), DstAddr: v.Alias(v.Servers[20], 1)},
			{SrcAddr: v.Alias(v.Servers[0], 2), DstAddr: v.Alias(v.Servers[20], 2)},
		},
		TotalBytes: -1,
		Algorithm:  mptcp.AlgXMP,
		Transport:  transport.DefaultConfig(),
		NextConnID: v.NextConnID,
	})
	f.Start()
	eng.Run(sim.Time(sim.Second))
	// Server uplink is 1 Gbps: a 3-subflow flow on an idle fabric should
	// drive it near line rate.
	if g := f.GoodputBps(eng.Now()); g < 800e6 {
		t.Fatalf("VL2 XMP goodput %.0f bps", g)
	}
}

// recorder is an mptcp.Observer keeping what each subflow reported.
type recorder struct {
	progress  [2]int64
	rtts      [2]int
	completed int
	flow      *mptcp.Flow
}

func (r *recorder) Progress(i int, _ sim.Time, ackedBytes int) { r.progress[i] += int64(ackedBytes) }
func (r *recorder) RTTSample(i int, _ sim.Duration)            { r.rtts[i]++ }
func (r *recorder) Complete(f *mptcp.Flow)                     { r.completed++; r.flow = f }

// TestObserverSeesEachSubflow: progress, RTT samples and completion reach
// the flow's observer under the index of the subflow that produced them,
// on a fresh flow and on the same flow recycled by the arena. Subflow 1
// starts late, so until then everything is subflow 0's.
func TestObserverSeesEachSubflow(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	a := mptcp.NewArena()
	for round := 0; round < 2; round++ {
		var obs recorder
		opts := flowOpts(tb, mptcp.AlgXMP)
		opts.Src, opts.Dst = tb.S[1], tb.D[1]
		opts.TotalBytes = 4 << 20
		opts.Subflows = []mptcp.SubflowSpec{
			{SrcAddr: tb.PathAddr(tb.S[1], 0), DstAddr: tb.PathAddr(tb.D[1], 0)},
			{SrcAddr: tb.PathAddr(tb.S[1], 1), DstAddr: tb.PathAddr(tb.D[1], 1), StartOffset: 20 * sim.Millisecond},
		}
		opts.Observer = &obs
		f := a.NewFlow(eng, opts)
		f.Start()
		eng.Run(eng.Now() + sim.Time(10*sim.Millisecond))
		if obs.progress[0] == 0 || obs.rtts[0] == 0 || obs.progress[1] != 0 || obs.rtts[1] != 0 {
			t.Fatalf("round %d, before subflow 1 starts: progress %v, RTT samples %v; want only subflow 0's",
				round, obs.progress, obs.rtts)
		}
		eng.RunAll(100_000_000)
		for i := range 2 {
			if got := f.Subflow(i).AckedBytes(); obs.progress[i] != got || obs.rtts[i] == 0 {
				t.Errorf("round %d, subflow %d: observer saw %d bytes and %d RTT samples, the connection acked %d",
					round, i, obs.progress[i], obs.rtts[i], got)
			}
		}
		if obs.completed != 1 || obs.flow != f {
			t.Fatalf("round %d: %d completions (flow %p, want %p)", round, obs.completed, obs.flow, f)
		}
		a.Release(f)
	}
	if a.Fresh() != 1 || a.Recycled() != 1 {
		t.Fatalf("fresh=%d recycled=%d, want 1/1", a.Fresh(), a.Recycled())
	}
}
