package netem

import (
	"testing"

	"xmp/internal/sim"
)

// releaser terminates packets like a host demux: every delivered packet
// leaves the simulation and returns to its pool.
type releaser struct{ delivered int }

func (r *releaser) Receive(p *Packet) {
	r.delivered++
	p.Release()
}

// TestLinkForwardZeroAlloc pins the per-packet-hop contract of PR 3: a
// steady-state link forwarding pooled packets — enqueue, serialize
// (typed tx-done event), propagate (typed delivery event), release —
// performs zero heap allocations. The two closures the link used to
// capture per hop would trip this immediately.
func TestLinkForwardZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	pool := NewPacketPool()
	sink := &releaser{}
	l := NewLink(eng, "l", Gbps, 20*sim.Microsecond, NewDropTail(100), sink)
	// Warm the packet pool and the event free-list.
	for i := 0; i < 32; i++ {
		l.Send(pool.Data(1, 1, 2, int64(i), MSS, true))
	}
	eng.Run(sim.MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		l.Send(pool.Data(1, 1, 2, 0, MSS, true))
		eng.Run(sim.MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("steady-state link forwarding allocates %v/op, want 0", allocs)
	}
	if sink.delivered == 0 {
		t.Fatal("no packets delivered")
	}
}

// TestLinkPipelinedForwardZeroAlloc is the same contract under queueing
// pressure: a burst keeps the link busy so dequeue-driven transmissions
// (startTransmit from finishTransmit) stay on the typed path too.
func TestLinkPipelinedForwardZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	pool := NewPacketPool()
	sink := &releaser{}
	l := NewLink(eng, "l", Gbps, 20*sim.Microsecond, NewDropTail(100), sink)
	burst := func() {
		for i := 0; i < 8; i++ {
			l.Send(pool.Data(1, 1, 2, int64(i), MSS, true))
		}
		eng.Run(sim.MaxTime)
	}
	burst() // warm pool, queue ring, and event free-list
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Fatalf("pipelined link forwarding allocates %v/op, want 0", allocs)
	}
}

// TestLinkOffLanePathsZeroAlloc extends the per-hop allocation gate to
// every scheduling path a link has once warm: both serialization lanes and
// the propagation lane (their rings wrap many times over the runs), an odd
// size through the heap, and deliveries under an extra delay.
func TestLinkOffLanePathsZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	pool := NewPacketPool()
	l := NewLink(eng, "l", Gbps, 20*sim.Microsecond, NewDropTail(100), &releaser{})
	mixed := func() {
		l.Send(pool.Data(1, 1, 2, 0, MSS, true))
		l.Send(pool.Ack(1, 2, 1, 0))
		l.Send(pool.Data(1, 1, 2, 1, 700, true))
		eng.Run(sim.MaxTime)
	}
	mixed()
	if allocs := testing.AllocsPerRun(1000, mixed); allocs != 0 {
		t.Fatalf("mixed-size forwarding allocates %v/op, want 0", allocs)
	}
	l.SetExtraDelay(5 * sim.Microsecond)
	mixed()
	if allocs := testing.AllocsPerRun(1000, mixed); allocs != 0 {
		t.Fatalf("forwarding under an extra delay allocates %v/op, want 0", allocs)
	}
}
