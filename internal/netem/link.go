package netem

import (
	"fmt"

	"xmp/internal/sim"
)

// Bps is a link capacity in bits per second.
type Bps int64

// Convenience capacities.
const (
	Mbps Bps = 1_000_000
	Gbps Bps = 1_000_000_000
)

// String renders the capacity in the customary unit.
func (b Bps) String() string {
	switch {
	case b >= Gbps && b%Gbps == 0:
		return fmt.Sprintf("%dGbps", b/Gbps)
	case b >= Mbps:
		return fmt.Sprintf("%gMbps", float64(b)/float64(Mbps))
	default:
		return fmt.Sprintf("%dbps", int64(b))
	}
}

// Receiver is anything that can accept a delivered packet: a switch, a
// host, or a test sink.
type Receiver interface {
	Receive(p *Packet)
}

// Link is a unidirectional store-and-forward link: packets wait in the
// attached Queue, serialize at Capacity, then propagate for Delay before
// being handed to the destination. Serialization of the next packet
// overlaps with propagation of the previous one, as on real hardware.
type Link struct {
	Name     string
	eng      *sim.Engine
	capacity Bps
	delay    sim.Duration
	queue    Queue
	dst      Receiver
	busy     bool
	down     bool

	// The link's constant delays each have a lane on the engine's calendar
	// (sim.Lane): serialization of a full segment and of a bare header —
	// the two sizes nearly every packet has — and propagation. Anything
	// else goes through the engine's heap.
	txFull, txHeader, prop *sim.Lane

	// extraDelay is added to the propagation delay of every delivery
	// scheduled while it is set — the chaos layer's asymmetric-delay and
	// jitter hook. Packets already propagating keep the delay they were
	// scheduled with.
	extraDelay sim.Duration

	// Counters for utilization accounting (Figure 11).
	txBytes   int64
	txPackets int64
	// Packets released because the link was down: offered to Send,
	// flushed from the queue by SetDown, serialized into the dead link.
	// Only the link-down branches count; the drain audit balances them.
	downOffered, downFlushed, downSerialized int64
	// openedAt..(closedAt) bounds the interval the link has been up, so
	// utilization of links closed mid-run (Figure 7's L3) stays correct.
	openedAt sim.Time
	upTime   sim.Duration
}

// NewLink builds a link feeding dst. The queue discipline is supplied by
// the caller so topologies can mix marking and plain drop-tail queues.
func NewLink(eng *sim.Engine, name string, capacity Bps, delay sim.Duration, q Queue, dst Receiver) *Link {
	l := &Link{}
	initLink(l, eng, name, capacity, delay, q, dst)
	return l
}

// initLink is the shared constructor body behind NewLink and the
// BuildArena variant.
func initLink(l *Link, eng *sim.Engine, name string, capacity Bps, delay sim.Duration, q Queue, dst Receiver) {
	if capacity <= 0 {
		panic("netem: link capacity must be positive")
	}
	if q == nil || dst == nil {
		panic("netem: link requires a queue and a destination")
	}
	*l = Link{Name: name, eng: eng, capacity: capacity, delay: delay, queue: q, dst: dst, openedAt: eng.Now()}
	l.txFull = eng.Lane(l.TxTime(MaxPacketBytes))
	l.txHeader = eng.Lane(l.TxTime(HeaderBytes))
	l.prop = eng.Lane(delay)
}

// Reset returns the link and its queue to their state when built, on an
// engine already Reset: the constructor again, so no field is forgotten.
func (l *Link) Reset() {
	l.queue.(resetter).Reset()
	initLink(l, l.eng, l.Name, l.capacity, l.delay, l.queue, l.dst)
}

// TxTime returns the serialization delay of a packet of n bytes.
func (l *Link) TxTime(n int) sim.Duration {
	return sim.Duration(int64(n) * 8 * int64(sim.Second) / int64(l.capacity))
}

// Send enqueues p for transmission. Drops (queue overflow, link down) are
// absorbed here; the sender learns about them through missing ACKs, exactly
// as in a real network.
func (l *Link) Send(p *Packet) {
	if l.down {
		l.downOffered++
		p.Release()
		return
	}
	if !l.queue.Enqueue(l.eng.Now(), p) {
		// Counted by the queue discipline; the packet leaves the
		// simulation here, so recycle it.
		p.Release()
		return
	}
	if !l.busy {
		l.startTransmit()
	}
}

// Link event ops for the typed scheduling path: serialization done and
// propagation delivery, the two calendar events of every packet-hop. A tx
// lane's op implies the size, so only odd-sized opTxDone reads the packet.
const (
	opDeliver sim.Op = iota
	opTxDone
	opTxDoneFull
	opTxDoneHeader
)

// OnEvent implements sim.Target, dispatching the link's typed events. Not
// for direct use; pre-binding the link instead of capturing closures is
// what keeps the per-hop path free of heap allocations.
func (l *Link) OnEvent(op sim.Op, arg any) {
	p := arg.(*Packet)
	switch op {
	case opTxDoneFull:
		l.finishTransmit(p, MaxPacketBytes)
		return
	case opTxDoneHeader:
		l.finishTransmit(p, HeaderBytes)
		return
	case opTxDone:
		l.finishTransmit(p, int(p.WireBytes))
		return
	}
	// Propagation done. The packet advances along its resolved path
	// straight to the next link, past the switch this link feeds; queueing,
	// marking and drop decisions happen in the next link's Send. The final
	// hop, or any hop of a packet without a path, hands it to the receiver.
	if pa := p.path; pa != nil {
		if h := int(p.hop) + 1; h < len(pa.hops) {
			p.hop = int32(h)
			pa.hops[h].Send(p)
			return
		}
	}
	l.dst.Receive(p)
}

// Dst returns the receiver this link feeds (used by path resolution).
func (l *Link) Dst() Receiver { return l.dst }

func (l *Link) startTransmit() {
	p := l.queue.Dequeue(l.eng.Now())
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	switch p.WireBytes {
	case MaxPacketBytes:
		l.txFull.Schedule(l, opTxDoneFull, p)
	case HeaderBytes:
		l.txHeader.Schedule(l, opTxDoneHeader, p)
	default:
		l.eng.ScheduleTarget(l.TxTime(int(p.WireBytes)), l, opTxDone, p)
	}
}

func (l *Link) finishTransmit(p *Packet, wireBytes int) {
	l.txBytes += int64(wireBytes)
	l.txPackets++
	switch {
	case l.down:
		l.downSerialized++
		p.Release() // serialized into a dead link
	case l.extraDelay == 0:
		l.prop.Schedule(l, opDeliver, p)
	default:
		// Off the lane: its order rests on every event waiting exactly
		// l.delay, and SetExtraDelay may lower the sum under a packet
		// already in flight.
		l.eng.ScheduleTarget(l.delay+l.extraDelay, l, opDeliver, p)
	}
	if l.queue.Len() > 0 && !l.down {
		l.startTransmit()
	} else {
		l.busy = false
	}
}

// SetDown opens or closes the link. Closing drops the queue contents and
// stops future deliveries (used to fail L3 at t=60 s in Figure 7).
func (l *Link) SetDown(down bool) {
	now := l.eng.Now()
	if down && !l.down {
		l.upTime += now.Sub(l.openedAt)
		for p := l.queue.Dequeue(now); p != nil; p = l.queue.Dequeue(now) {
			l.downFlushed++
			p.Release()
		}
	}
	if !down && l.down {
		l.openedAt = now
	}
	l.down = down
}

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// Delay returns the one-way propagation delay.
func (l *Link) Delay() sim.Duration { return l.delay }

// ExtraDelay returns the additional propagation delay currently injected.
func (l *Link) ExtraDelay() sim.Duration { return l.extraDelay }

// SetExtraDelay adds d (≥ 0) to the propagation delay of subsequent
// deliveries. Lowering it mid-run can reorder in-flight packets — a packet
// serialized later arrives first — which is exactly the artifact real
// delay emulation produces and the reordering regime the chaos campaigns
// want to exercise.
func (l *Link) SetExtraDelay(d sim.Duration) {
	if d < 0 {
		panic("netem: extra delay must be non-negative")
	}
	l.extraDelay = d
}

// Queue exposes the attached queue discipline.
func (l *Link) Queue() Queue { return l.queue }

// TxBytes returns the bytes fully serialized onto the wire so far.
func (l *Link) TxBytes() int64 { return l.txBytes }

// TxPackets returns the packets fully serialized onto the wire so far.
func (l *Link) TxPackets() int64 { return l.txPackets }

// DownLosses returns the packets the link released because it was down:
// offered to Send while down, flushed from its queue by SetDown, and
// serialized into it while down (counted in TxPackets too).
func (l *Link) DownLosses() (offered, flushed, serialized int64) {
	return l.downOffered, l.downFlushed, l.downSerialized
}

// Utilization returns transmitted bits divided by capacity×uptime over
// [0, now] — the paper's "transferred/capacity" metric for Figure 11.
func (l *Link) Utilization(now sim.Time) float64 {
	up := l.upTime
	if !l.down {
		up += now.Sub(l.openedAt)
	}
	if up <= 0 {
		return 0
	}
	return float64(l.txBytes*8) / (float64(l.capacity) * float64(up) / float64(sim.Second))
}
