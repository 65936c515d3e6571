package transport

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"xmp/internal/cc"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
)

// TestConnLayout pins the size of a connection, which every subflow record
// of an incast burst embeds (DESIGN.md, "Per-connection records"). The
// bound holds for 8-byte pointers; a 32-bit build only has to compile.
func TestConnLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit pointers")
	}
	if size := unsafe.Sizeof(Conn{}); size > 416 {
		t.Errorf("Conn is %d bytes, want at most 416", size)
	}
}

// lossyTransfer builds a SACK-less Reno transfer of 400 segments across a
// dumbbell whose every queue drops 20 % of packets at random, so the run
// sends, retransmits, sees duplicate ACKs, fast-retransmits and times out.
// prepare runs on the connection before it starts.
func lossyTransfer(prepare func(c *Conn)) *Conn {
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	d := topo.NewDumbbell(eng, topo.DumbbellConfig{
		Pairs: 1, BottleneckCapacity: netem.Gbps, EdgeCapacity: netem.Gbps,
		HopDelay: 10 * sim.Microsecond,
		BottleneckQueue: func(*netem.BuildArena) netem.Queue {
			return netem.NewLossy(netem.NewDropTail(100), 0.2, rng.Fork(1))
		},
	})
	c := NewConn(eng, Options{ID: d.NextConnID(), Src: d.Senders[0], Dst: d.Receivers[0],
		Controller: cc.NewReno(10, false), Config: DefaultConfig(), Supply: NewFixedSupply(400 * netem.MSS)})
	prepare(c)
	c.Start()
	eng.Run(sim.MaxTime)
	return c
}

// TestSegmentCountsPanicAtLimit drives each int32 counter of a connection
// to its limit through the path that bumps it: started at 2^31-1, the
// counter's next event panics naming it instead of wrapping.
func TestSegmentCountsPanicAtLimit(t *testing.T) {
	st := lossyTransfer(func(*Conn) {}).Stats()
	if st.SentSegments == 0 || st.RetransSegments == 0 || st.DupAcksSeen == 0 || st.FastRetransmits == 0 || st.Timeouts == 0 {
		t.Fatalf("the lossy transfer does not exercise every counter: %+v", st)
	}
	for what, field := range map[string]func(c *Conn) *int32{
		"sent segment count":          func(c *Conn) *int32 { return &c.segs.sent },
		"retransmitted segment count": func(c *Conn) *int32 { return &c.segs.retrans },
		"duplicate ACK count":         func(c *Conn) *int32 { return &c.segs.dupAcksSeen },
		"fast retransmit count":       func(c *Conn) *int32 { return &c.segs.fastRetrans },
		"timeout count":               func(c *Conn) *int32 { return &c.segs.timeouts },
		"retry count":                 func(c *Conn) *int32 { return &c.retries },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, what+" reached its limit") {
					t.Errorf("%s at 2^31-1: panic %q", what, msg)
				}
			}()
			lossyTransfer(func(c *Conn) { *field(c) = math.MaxInt32 })
		}()
	}
}

// TestPendingCEPanicsAtLimit: the receiver's backlog of CE marks to echo is
// an int8, which also bounds the echo count an ACK carries. A CE arrival
// with the backlog at 127 panics rather than wrap.
func TestPendingCEPanicsAtLimit(t *testing.T) {
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, topo.DumbbellConfig{
		Pairs: 1, BottleneckCapacity: netem.Gbps, EdgeCapacity: netem.Gbps,
		HopDelay: 10 * sim.Microsecond, BottleneckQueue: topo.DropTailMaker(100),
	})
	cfg := DefaultConfig()
	cfg.EchoMode = cc.EchoDCTCP
	c := NewConn(eng, Options{ID: d.NextConnID(), Src: d.Senders[0], Dst: d.Receivers[0],
		Controller: cc.NewDCTCP(10, cc.DefaultG), Config: cfg, Supply: NewFixedSupply(netem.MSS)})
	p := netem.NewDataPacket(c.ID(), c.SrcAddr(), c.DstAddr(), 0, netem.MSS, true)
	p.CE = true
	c.pendingCE = math.MaxInt8
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "pending CE count reached its limit") {
			t.Errorf("CE arrival with 127 marks pending: panic %q", msg)
		}
	}()
	c.receiverDeliver(p)
}
