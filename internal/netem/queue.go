package netem

import (
	"math/bits"

	"xmp/internal/sim"
)

// Queue is the buffering discipline attached to a link's egress. Enqueue
// reports whether the packet was accepted; a false return means the packet
// was dropped (tail drop or RED drop) and the caller must account for it.
//
// Implementations also maintain time-integrated occupancy so experiments
// can report average queue length without periodic sampling.
type Queue interface {
	Enqueue(now sim.Time, p *Packet) bool
	Dequeue(now sim.Time) *Packet
	Len() int
	Bytes() int
	Stats() QueueStats
}

// QueueStats aggregates the counters every queue discipline maintains.
type QueueStats struct {
	EnqueuedPackets int64
	DroppedPackets  int64
	MarkedPackets   int64 // CE marks applied by this queue
	MaxLen          int   // peak occupancy in packets
	// OccupancyIntegral is the time-integral of queue length in
	// packet-nanoseconds; divide by the observation span for the
	// time-average occupancy.
	OccupancyIntegral float64
	lastChange        sim.Time
}

// AvgLen returns the time-average queue length over [0, now].
func (s QueueStats) AvgLen(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return s.OccupancyIntegral / float64(now)
}

// fifo is the common packet FIFO + statistics shared by the disciplines.
// It uses a ring buffer to avoid per-packet slice shifting.
type fifo struct {
	buf   []*Packet
	head  int
	count int
	bytes int
	stats QueueStats
}

// ringLen rounds a queue limit up to a power of two, at least 8, so the
// ring wraps with a mask instead of a division.
func ringLen(limit int) int { return 1 << bits.Len(uint(max(limit, 8)-1)) }

func newFIFO(capacityHint int) fifo {
	return fifo{buf: make([]*Packet, ringLen(capacityHint))}
}

// resetter is a queue that can return to its built state (Link.Reset).
type resetter interface{ Reset() }

// Reset forgets the contents, byte count and statistics; the ring stays.
func (f *fifo) Reset() {
	clear(f.buf)
	*f = fifo{buf: f.buf}
}

func (f *fifo) integrate(now sim.Time) {
	dt := now - f.stats.lastChange
	if dt > 0 {
		f.stats.OccupancyIntegral += float64(float64(dt) * float64(f.count))
		f.stats.lastChange = now
	}
}

func (f *fifo) push(now sim.Time, p *Packet) {
	f.integrate(now)
	if f.count == len(f.buf) {
		grown := make([]*Packet, 2*len(f.buf))
		n := copy(grown, f.buf[f.head:])
		copy(grown[n:], f.buf[:f.head])
		f.buf = grown
		f.head = 0
	}
	f.buf[(f.head+f.count)&(len(f.buf)-1)] = p
	f.count++
	f.bytes += int(p.WireBytes)
	f.stats.EnqueuedPackets++
	if f.count > f.stats.MaxLen {
		f.stats.MaxLen = f.count
	}
}

func (f *fifo) pop(now sim.Time) *Packet {
	if f.count == 0 {
		return nil
	}
	f.integrate(now)
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.count--
	f.bytes -= int(p.WireBytes)
	return p
}

// DropTail is a plain FIFO with a fixed packet-count limit and no marking:
// the queue discipline plain TCP competes through in the coexistence
// experiments (Table 2).
type DropTail struct {
	limit int
	fifo
}

// NewDropTail returns a drop-tail queue holding at most limit packets.
func NewDropTail(limit int) *DropTail {
	return &DropTail{limit: limit, fifo: newFIFO(limit)}
}

// Enqueue implements Queue.
func (q *DropTail) Enqueue(now sim.Time, p *Packet) bool {
	if q.count >= q.limit {
		q.integrate(now)
		q.stats.DroppedPackets++
		return false
	}
	q.push(now, p)
	return true
}

// Dequeue implements Queue.
func (q *DropTail) Dequeue(now sim.Time) *Packet { return q.pop(now) }

// Len implements Queue.
func (q *DropTail) Len() int { return q.count }

// Bytes implements Queue.
func (q *DropTail) Bytes() int { return q.bytes }

// Stats implements Queue.
func (q *DropTail) Stats() QueueStats { return q.stats }

// ThresholdECN is the paper's packet-marking rule (BOS rule 1, shared with
// DCTCP): mark the arriving packet with CE if the instantaneous queue
// length of the outgoing interface exceeds K packets; tail-drop at the
// buffer limit.
//
// Non-ECT packets are handled per DropNonECT. False (default) lets them
// pass unmarked, subject only to the tail drop — loss-based flows then
// enjoy the whole buffer. True drops them above K, which is what an
// actual RED/ECN switch configured with MinTh=MaxTh=K (the paper's
// deployment recipe) does: where it would mark an ECT packet it must drop
// a non-ECT one. The Table 2 coexistence results depend strongly on this
// choice; the harness reports both.
type ThresholdECN struct {
	limit int
	k     int
	// DropNonECT selects RED-faithful handling of non-ECT arrivals.
	DropNonECT bool
	fifo
}

// NewThresholdECN returns a marking queue with marking threshold k packets
// and total buffer limit packets.
func NewThresholdECN(limit, k int) *ThresholdECN {
	if k >= limit {
		panic("netem: marking threshold must be below the buffer limit")
	}
	return &ThresholdECN{limit: limit, k: k, fifo: newFIFO(limit)}
}

// Enqueue implements Queue. The arriving packet is marked when the queue
// already holds at least K packets, i.e. the occupancy including the
// arrival is "larger than K" in the paper's wording.
func (q *ThresholdECN) Enqueue(now sim.Time, p *Packet) bool {
	if q.count >= q.limit {
		q.integrate(now)
		q.stats.DroppedPackets++
		return false
	}
	if q.count >= q.k {
		switch {
		case p.ECT:
			if !p.CE {
				p.CE = true
				q.stats.MarkedPackets++
			}
		case q.DropNonECT:
			q.integrate(now)
			q.stats.DroppedPackets++
			return false
		}
	}
	q.push(now, p)
	return true
}

// Dequeue implements Queue.
func (q *ThresholdECN) Dequeue(now sim.Time) *Packet { return q.pop(now) }

// Len implements Queue.
func (q *ThresholdECN) Len() int { return q.count }

// Bytes implements Queue.
func (q *ThresholdECN) Bytes() int { return q.bytes }

// Stats implements Queue.
func (q *ThresholdECN) Stats() QueueStats { return q.stats }
