package mptcp

import (
	"slices"
	"strings"
	"testing"

	"xmp/internal/cc"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

// driveTrace takes c through a fixed trace that reaches every Controller
// entry point — slow start, an early fast retransmit, marked ACKs across
// several rounds, a second loss, congestion avoidance, an RTO and the
// restart after it — and returns Window() after each step.
func driveTrace(c cc.Controller) []int {
	var windows []int
	var una, nxt int64
	acks := func(n, markEvery int) {
		for i := 1; i <= n; i++ {
			una++
			nxt = max(nxt, una+int64(c.Window()))
			a := cc.Ack{NewlyAcked: 1, SndUna: una, SndNxt: nxt, SRTT: 200 * sim.Microsecond}
			if markEvery > 0 && i%markEvery == 0 {
				a.ECNEcho = 1 + i%3
			}
			c.OnAck(a)
			windows = append(windows, c.Window())
		}
	}
	loss := func(react func()) {
		react()
		windows = append(windows, c.Window())
	}
	acks(12, 0)
	loss(c.OnFastRetransmit)
	acks(40, 7)
	loss(c.OnFastRetransmit)
	acks(60, 0)
	loss(c.OnRetransmitTimeout)
	acks(40, 11)
	return windows
}

// expectPanic runs fn and fails unless it panics with a message naming want.
func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one naming %q", msg, want)
		}
	}()
	fn()
}

// TestAlgorithmMetadata holds every row of the algorithm table to the
// contracts the rest of the program relies on.
func TestAlgorithmMetadata(t *testing.T) {
	for i := range algorithms {
		alg := Algorithm(i)
		t.Run(alg.String(), func(t *testing.T) {
			if back, ok := ParseAlgorithm(alg.String()); !ok || back != alg {
				t.Errorf("ParseAlgorithm(%q) = %v, %v", alg.String(), back, ok)
			}
			// The subflow controllers, built as initFlow builds them.
			const icw = 3
			g := cc.NewFlowGroup()
			nsub := 1
			if alg.Multipath() {
				nsub = 2
			}
			ctrls := make([]cc.Controller, nsub)
			for sub := range ctrls {
				ctrls[sub] = alg.row().controller(icw, 4, g, g.Join())
			}
			for _, c := range ctrls {
				if c.ECNCapable() != (alg.EchoMode() != cc.EchoNone) {
					t.Errorf("controller %s: ECNCapable %v under echo mode %v", c.Name(), c.ECNCapable(), alg.EchoMode())
				}
			}
			// cc.Controller: "a reset controller must be indistinguishable
			// from a newly constructed one" — arena recycling relies on it.
			// Members start as established connections publish them; the
			// last subflow goes first, so the first runs its trace against
			// a sibling with a window and a loss history.
			run := func() (windows []int) {
				for _, m := range g.Members() {
					m.Cwnd, m.SRTT, m.Active = icw, 200*sim.Microsecond, true
				}
				for i := len(ctrls) - 1; i >= 0; i-- {
					windows = append(windows, driveTrace(ctrls[i])...)
				}
				return windows
			}
			fresh := run()
			for _, c := range ctrls {
				c.Reset(icw)
			}
			if again := run(); !slices.Equal(fresh, again) {
				t.Errorf("%s: windows after Reset diverge from fresh controllers':\nfresh %v\nreset %v", ctrls[0].Name(), fresh, again)
			}
			if slices.Max(fresh) <= icw || slices.Min(fresh) >= icw {
				t.Errorf("trace never moved the window both ways from %d: %v", icw, fresh)
			}
			if !alg.Multipath() {
				expectPanic(t, "exactly one subflow", func() {
					New(sim.NewEngine(), Options{Algorithm: alg, Subflows: make([]SubflowSpec, 2)})
				})
			}
		})
	}
	beyond := Algorithm(len(algorithms))
	if _, ok := ParseAlgorithm(beyond.String()); ok || beyond.Multipath() || beyond.TakesBeta() || beyond.EchoMode() != cc.EchoNone {
		t.Errorf("an Algorithm outside the table has metadata: %q", beyond)
	}
	expectPanic(t, "unknown algorithm", func() {
		New(sim.NewEngine(), Options{Algorithm: beyond, Subflows: make([]SubflowSpec, 1)})
	})
}

// TestNinthAlgorithm declares a throw-away scheme — one row appended to the
// table, nothing else — and gets a name that parses, the metadata accessors
// and a flow that launches, transfers and recycles through the arena.
func TestNinthAlgorithm(t *testing.T) {
	built := 0
	algorithms = append(algorithms, algorithm{"Ninth", true, cc.EchoStandard, false,
		func(icw, _ int, _ *cc.FlowGroup, _ *cc.Member) cc.Controller {
			built++
			return cc.NewReno(icw, true)
		}})
	t.Cleanup(func() { algorithms = algorithms[:len(algorithms)-1] })

	alg, ok := ParseAlgorithm("Ninth")
	if !ok || alg.String() != "Ninth" || !alg.Multipath() || alg.TakesBeta() || alg.EchoMode() != cc.EchoStandard {
		t.Fatalf("ParseAlgorithm(Ninth) = %d, %v: multipath %v, takes beta %v, echo %v",
			alg, ok, alg.Multipath(), alg.TakesBeta(), alg.EchoMode())
	}
	eng := sim.NewEngine()
	tb := topo.NewTestbedA(eng, topo.TestbedAConfig{
		BottleneckCapacity: 300 * netem.Mbps,
		HopDelay:           225 * sim.Microsecond,
		BottleneckQueue:    topo.ECNMaker(100, 15),
	})
	arena := NewArena()
	opts := Options{
		Src: tb.S[0], Dst: tb.D[0],
		Subflows: []SubflowSpec{
			{SrcAddr: tb.PathAddr(tb.S[0], 0), DstAddr: tb.PathAddr(tb.D[0], 0)},
			{SrcAddr: tb.PathAddr(tb.S[0], 1), DstAddr: tb.PathAddr(tb.D[0], 1)},
		},
		TotalBytes: 1 << 20,
		Algorithm:  alg,
		Transport:  transport.DefaultConfig(),
		NextConnID: tb.NextConnID,
	}
	for round := 0; round < 2; round++ {
		f := arena.NewFlow(eng, opts)
		f.Start()
		eng.RunAll(10_000_000)
		if !f.Done() || f.AckedBytes() != 1<<20 || f.Algorithm() != alg {
			t.Fatalf("round %d: done %v, acked %d, algorithm %v", round, f.Done(), f.AckedBytes(), f.Algorithm())
		}
		if mode := f.shape.tc.EchoMode; mode != cc.EchoStandard {
			t.Fatalf("round %d: the row's echo mode did not reach the transport config: %v", round, mode)
		}
		arena.Release(f)
	}
	if built != 2 || arena.Fresh() != 1 || arena.Recycled() != 1 {
		t.Fatalf("built %d controllers over %d fresh + %d recycled flows; want 2 over 1 + 1",
			built, arena.Fresh(), arena.Recycled())
	}
}
