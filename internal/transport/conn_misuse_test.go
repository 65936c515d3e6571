package transport_test

import (
	"fmt"
	"strings"
	"testing"

	"xmp/internal/cc"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

func validOpts(d *topo.Dumbbell) transport.Options {
	return transport.Options{
		ID:         d.NextConnID(),
		Src:        d.Senders[0],
		Dst:        d.Receivers[0],
		Controller: cc.NewReno(2, false),
		Config:     transport.DefaultConfig(),
		Supply:     transport.NewFixedSupply(1024),
	}
}

func TestNewConnValidation(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(100))
	cases := map[string]func(*transport.Options){
		"nil controller": func(o *transport.Options) { o.Controller = nil },
		"nil supply":     func(o *transport.Options) { o.Supply = nil },
		"nil src":        func(o *transport.Options) { o.Src = nil },
		"nil dst":        func(o *transport.Options) { o.Dst = nil },
		"loopback":       func(o *transport.Options) { o.Dst = o.Src },
		"bad config":     func(o *transport.Options) { o.Config = transport.Config{} },
	}
	for name, mutate := range cases {
		name, mutate := name, mutate
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			o := validOpts(d)
			mutate(&o)
			transport.NewConn(eng, o)
		})
	}
}

func TestDoubleStartPanics(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(100))
	conn := transport.NewConn(eng, validOpts(d))
	conn.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	conn.Start()
}

func TestStatesAndAccessors(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(100))
	o := validOpts(d)
	conn := transport.NewConn(eng, o)
	if conn.State() != transport.StateIdle {
		t.Fatal("fresh conn not idle")
	}
	if conn.ID() != o.ID {
		t.Fatal("ID accessor")
	}
	if conn.SrcAddr() != d.Senders[0].PrimaryAddr() || conn.DstAddr() != d.Receivers[0].PrimaryAddr() {
		t.Fatal("default addresses should be the hosts' primaries")
	}
	if conn.Controller() == nil {
		t.Fatal("controller accessor")
	}
	conn.Start()
	if conn.State() != transport.StateSynSent {
		t.Fatal("not syn-sent after Start")
	}
	eng.Run(sim.Time(sim.Second))
	if conn.State() != transport.StateDone {
		t.Fatal("small flow not done")
	}
	if conn.CompletionTime() <= conn.StartTime() {
		t.Fatal("completion time ordering")
	}
}

func TestStateStrings(t *testing.T) {
	want := map[transport.State]string{
		transport.StateIdle:        "idle",
		transport.StateSynSent:     "syn-sent",
		transport.StateEstablished: "established",
		transport.StateDone:        "done",
		transport.StateFailed:      "failed",
		transport.State(99):        "unknown",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestMaxRetriesFailsConnection(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(100))
	d.Forward.SetDown(true) // SYNs blackholed
	o := validOpts(d)
	o.Config.MaxRetries = 3
	conn := transport.NewConn(eng, o)
	conn.Start()
	eng.Run(sim.Time(30 * sim.Second))
	if conn.State() != transport.StateFailed {
		t.Fatalf("connection over dead path in state %v, want failed", conn.State())
	}
}

func TestMaxRetriesFailsMidTransfer(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(100))
	o := validOpts(d)
	o.Config.MaxRetries = 3
	o.Supply = transport.NewFixedSupply(4 << 20)
	conn := transport.NewConn(eng, o)
	conn.Start()
	eng.Schedule(2*sim.Millisecond, func() { d.Forward.SetDown(true) })
	eng.Run(sim.Time(60 * sim.Second))
	if conn.State() != transport.StateFailed {
		t.Fatalf("mid-transfer outage: state %v, want failed", conn.State())
	}
}

func TestZeroByteEquivalentSupply(t *testing.T) {
	// A supply that immediately reports exhaustion: the connection must
	// complete right after the handshake.
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(100))
	o := validOpts(d)
	o.Supply = emptySupply{}
	var ev events
	o.Owner = &ev
	conn := transport.NewConn(eng, o)
	conn.Start()
	eng.Run(sim.Time(sim.Second))
	if ev.completed != 1 || conn.State() != transport.StateDone {
		t.Fatalf("zero-byte transfer stuck in %v", conn.State())
	}
	if conn.Stats().SentSegments != 0 {
		t.Fatal("zero-byte transfer sent data")
	}
}

type emptySupply struct{}

func (emptySupply) Next() (int, bool) { return 0, false }

func TestStopSendingBeforeEstablish(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(100))
	o := validOpts(d)
	o.Supply = transport.InfiniteSupply{}
	conn := transport.NewConn(eng, o)
	conn.Start()
	conn.StopSending() // before the SYNACK arrives
	eng.Run(sim.Time(sim.Second))
	if conn.State() != transport.StateDone {
		t.Fatalf("stop-before-establish: state %v", conn.State())
	}
}

func TestBadSupplyPayloadPanics(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(100))
	o := validOpts(d)
	o.Supply = badSupply{}
	conn := transport.NewConn(eng, o)
	conn.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("oversized supply payload did not panic")
		}
	}()
	eng.Run(sim.Time(sim.Second))
}

type badSupply struct{}

func (badSupply) Next() (int, bool) { return netem.MSS + 1, true }

// A supply hands out at most one short segment, its last; a second one
// panics like an oversized one.
func TestSecondShortSegmentPanics(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(100))
	o := validOpts(d)
	o.Supply = &shortSupply{n: 3}
	conn := transport.NewConn(eng, o)
	conn.Start()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "second short segment") {
			t.Fatalf("second short segment: recovered %v, want a panic naming it", r)
		}
	}()
	eng.Run(sim.Time(sim.Second))
}

// shortSupply hands out n segments of 100 bytes.
type shortSupply struct{ n int }

func (s *shortSupply) Next() (int, bool) {
	if s.n == 0 {
		return 0, false
	}
	s.n--
	return 100, true
}

func TestAckJumpBeyondSndNxtAfterRTO(t *testing.T) {
	// Regression: kill the reverse (ACK) path mid-transfer for longer
	// than the RTO. The sender rewinds snd_nxt to snd_una and
	// retransmits; the receiver, which already holds the whole window,
	// then cumulatively ACKs far beyond the rewound snd_nxt. The sender
	// must clamp snd_nxt up to the ACK and finish (it used to deadlock
	// with a stopped timer).
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(1000))
	o := validOpts(d)
	o.Supply = transport.NewFixedSupply(4 << 20)
	conn := transport.NewConn(eng, o)
	conn.Start()
	eng.Schedule(2*sim.Millisecond, func() { d.Reverse.SetDown(true) })
	eng.Schedule(302*sim.Millisecond, func() { d.Reverse.SetDown(false) })
	eng.Run(sim.Time(30 * sim.Second))
	if conn.State() != transport.StateDone {
		t.Fatalf("stuck in %v after ACK-path outage (timeouts=%d)",
			conn.State(), conn.Stats().Timeouts)
	}
	if conn.Stats().AckedBytes != 4<<20 {
		t.Fatalf("acked %d", conn.Stats().AckedBytes)
	}
	if conn.Stats().Timeouts == 0 {
		t.Fatal("outage did not force an RTO; regression not exercised")
	}
}

func TestAckJumpWithSACKAfterRTO(t *testing.T) {
	// Same scenario with SACK enabled: the scoreboard must also survive
	// the rewind and the jump.
	eng := sim.NewEngine()
	d := buildDumbbell(eng, topo.DropTailMaker(1000))
	o := validOpts(d)
	o.Config.EnableSACK = true
	o.Supply = transport.NewFixedSupply(4 << 20)
	conn := transport.NewConn(eng, o)
	conn.Start()
	eng.Schedule(2*sim.Millisecond, func() { d.Reverse.SetDown(true) })
	eng.Schedule(302*sim.Millisecond, func() { d.Reverse.SetDown(false) })
	eng.Run(sim.Time(30 * sim.Second))
	if conn.State() != transport.StateDone {
		t.Fatalf("SACK variant stuck in %v", conn.State())
	}
	if conn.Stats().AckedBytes != 4<<20 {
		t.Fatalf("acked %d", conn.Stats().AckedBytes)
	}
}
