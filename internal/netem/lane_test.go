package netem

import (
	"slices"
	"testing"

	"xmp/internal/sim"
)

// The link schedules its two events on the engine's constant-delay lanes.
// These tests pin the link behaviours the lanes must not move; all of them
// read delivery order and time from outside, so they hold whichever
// container an event waits in.

// seqs lists the Seq of every packet s received, in arrival order.
func seqs(s *sink) []int64 {
	out := make([]int64, len(s.pkts))
	for i, p := range s.pkts {
		out[i] = p.Seq
	}
	return out
}

// sized builds a packet of exactly wire bytes on the wire, numbered seq.
func sized(seq int64, wire int) *Packet {
	p := NewDataPacket(1, 0, 1, seq, wire-HeaderBytes, false)
	if int(p.WireBytes) != wire {
		panic("sized: wrong wire size")
	}
	return p
}

// TestLinkBeyondLaneCapDeliversInOrder registers far more distinct delays
// on one engine than it keeps lanes for. The first link's events ride
// lanes — no Event struct is ever carved for them, so every insert counts
// as recycled — and the last link's fall back to the heap; both deliver
// every packet in order at serialization + propagation to the nanosecond.
func TestLinkBeyondLaneCapDeliversInOrder(t *testing.T) {
	eng := sim.NewEngine()
	const n = 24
	sinks := make([]*sink, n)
	links := make([]*Link, n)
	for i := range links {
		sinks[i] = &sink{eng: eng}
		links[i] = NewLink(eng, "l", Gbps, sim.Duration(i+1)*sim.Microsecond+7, NewDropTail(100), sinks[i])
	}
	sizes := []int{MaxPacketBytes, HeaderBytes, MaxPacketBytes, 700, HeaderBytes}
	check := func(i int) {
		t.Helper()
		start := eng.Now()
		for j, b := range sizes {
			links[i].Send(sized(int64(j), b))
		}
		eng.Run(sim.MaxTime)
		txDone := start
		for j, b := range sizes {
			txDone = txDone.Add(links[i].TxTime(b))
			if sinks[i].pkts[j].Seq != int64(j) || sinks[i].at[j] != txDone.Add(links[i].Delay()) {
				t.Fatalf("link %d delivered %v at %v; packet %d wants %v",
					i, seqs(sinks[i]), sinks[i].at, j, txDone.Add(links[i].Delay()))
			}
		}
	}
	check(0)
	// One heap event so far: the 700-byte serialization.
	if got := eng.Processed() - eng.Recycled(); got != 1 {
		t.Fatalf("first link carved %d Event structs, want 1 (its events should ride lanes)", got)
	}
	check(n - 1)
	if got := eng.Processed() - eng.Recycled(); got < 2 {
		t.Fatalf("last link carved no Event structs: it was not past the lane cap")
	}
}

// TestLinkExtraDelayRaisedThenLoweredReorders raises the extra delay over
// one packet and lowers it before the next: the later packet overtakes the
// earlier one, at exactly the times a per-packet delay gives. A delivery
// scheduled under a non-zero extra delay that entered the propagation lane
// would sit in front of the next one and hold it back.
func TestLinkExtraDelayRaisedThenLoweredReorders(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, "l", Gbps, 20*sim.Microsecond, NewDropTail(100), s)
	us := sim.Microsecond
	eng.Schedule(0, func() { l.Send(sized(0, MaxPacketBytes)) }) // tx-done 12, lane, arrives 32
	eng.Schedule(13*us, func() { l.SetExtraDelay(100 * us) })
	eng.Schedule(14*us, func() { l.Send(sized(1, MaxPacketBytes)) }) // tx-done 26, +120: arrives 146
	eng.Schedule(27*us, func() { l.SetExtraDelay(30 * us) })
	eng.Schedule(28*us, func() { l.Send(sized(2, HeaderBytes)) }) // tx-done 28.32, +50: arrives 78.32
	eng.Schedule(29*us, func() { l.SetExtraDelay(0) })
	eng.Schedule(30*us, func() { l.Send(sized(3, MaxPacketBytes)) }) // tx-done 42, lane, arrives 62
	eng.Schedule(31*us, func() { l.Send(sized(4, 700)) })            // tx-done 47.6, lane, arrives 67.6
	eng.Run(sim.MaxTime)
	wantSeq := []int64{0, 3, 4, 2, 1}
	wantAt := []sim.Time{sim.Time(32 * us), sim.Time(62 * us), sim.Time(67*us + 600), sim.Time(78*us + 320), sim.Time(146 * us)}
	if !slices.Equal(seqs(s), wantSeq) || !slices.Equal(s.at, wantAt) {
		t.Fatalf("delivered %v at %v, want %v at %v", seqs(s), s.at, wantSeq, wantAt)
	}
}

// TestLinkSetDownMidSerializationDropsAtTxDone closes the link while a
// packet is on the wire's sending side: the packet still finishes
// serializing (it counts as transmitted) and is dropped at that instant,
// not when SetDown is called and not at delivery.
func TestLinkSetDownMidSerializationDropsAtTxDone(t *testing.T) {
	eng := sim.NewEngine()
	pool := NewPacketPool()
	sink := &releaser{}
	l := NewLink(eng, "l", Gbps, 50*sim.Microsecond, NewDropTail(100), sink)
	us := sim.Microsecond
	l.Send(pool.Data(1, 0, 1, 0, MSS, false)) // serializes over [0, 12) µs
	l.Send(pool.Data(1, 0, 1, 1, MSS, false)) // serializes over [12, 24) µs
	l.Send(pool.Data(1, 0, 1, 2, MSS, false)) // queued behind it
	eng.Schedule(15*us, func() {
		l.SetDown(true) // packet 0 propagating, 1 mid-serialization, 2 drained here
		if pool.FreeLen() != 1 {
			t.Errorf("free packets at SetDown = %d, want 1 (the queued one)", pool.FreeLen())
		}
	})
	eng.Run(sim.Time(23 * us))
	if pool.FreeLen() != 1 || l.TxPackets() != 1 {
		t.Fatalf("before tx-done: %d free, %d transmitted; want 1, 1", pool.FreeLen(), l.TxPackets())
	}
	eng.Run(sim.Time(24 * us))
	if pool.FreeLen() != 2 || l.TxPackets() != 2 {
		t.Fatalf("at tx-done: %d free, %d transmitted; want 2, 2", pool.FreeLen(), l.TxPackets())
	}
	eng.Run(sim.MaxTime)
	if sink.delivered != 1 || pool.FreeLen() != 3 {
		t.Fatalf("delivered %d with %d free, want 1 (sent before the close) and 3", sink.delivered, pool.FreeLen())
	}
}

// TestLinkMixedSizesMatchFIFOModel sends full, header-only and odd-sized
// packets at irregular instants down two links that share every lane, and
// compares each delivery with the store-and-forward recurrence
// departure = max(arrival, previous departure) + tx, plus propagation.
func TestLinkMixedSizesMatchFIFOModel(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	sizes := []int{MaxPacketBytes, HeaderBytes, 41, 700, MaxPacketBytes - 1, MaxPacketBytes, HeaderBytes}
	type model struct {
		link   *Link
		sink   *sink
		free   sim.Time // when the transmitter goes idle
		wantAt []sim.Time
	}
	ms := make([]*model, 2)
	for i := range ms {
		s := &sink{eng: eng}
		ms[i] = &model{link: NewLink(eng, "l", Gbps, 20*sim.Microsecond, NewDropTail(4096), s), sink: s}
	}
	at := sim.Time(0)
	for j := 0; j < 600; j++ {
		at = at.Add(sim.Duration(rng.Intn(9000))) // mean 4.5 µs: queues build and drain
		m := ms[rng.Intn(2)]
		wire := sizes[rng.Intn(len(sizes))]
		seq := int64(len(m.wantAt))
		eng.ScheduleAt(at, func() { m.link.Send(sized(seq, wire)) })
		m.free = max(m.free, at).Add(m.link.TxTime(wire))
		m.wantAt = append(m.wantAt, m.free.Add(m.link.Delay()))
	}
	eng.Run(sim.MaxTime)
	for i, m := range ms {
		if !slices.Equal(m.sink.at, m.wantAt) {
			t.Fatalf("link %d delivery times diverge from the FIFO model", i)
		}
		if got := seqs(m.sink); !slices.IsSorted(got) {
			t.Fatalf("link %d reordered packets: %v", i, got)
		}
	}
}
