package netem

import (
	"xmp/internal/sim"
)

// Lossy wraps another queue discipline and drops arriving packets with a
// fixed probability, independent of occupancy. It models random corruption
// loss and is the failure-injection hook the transport robustness tests
// drive: any loss pattern it produces must still yield an exact, in-order
// byte stream at the application.
type Lossy struct {
	inner Queue
	p     float64
	rng   *sim.RNG

	injected int64
}

// NewLossy wraps inner with drop probability p in [0, 1).
func NewLossy(inner Queue, p float64, rng *sim.RNG) *Lossy {
	if p < 0 || p >= 1 {
		panic("netem: loss probability out of [0,1)")
	}
	if inner == nil || rng == nil {
		panic("netem: Lossy needs an inner queue and an RNG")
	}
	return &Lossy{inner: inner, p: p, rng: rng}
}

// Reset disarms the loss and resets the inner queue; the caller reseeds.
func (q *Lossy) Reset() {
	q.p, q.injected = 0, 0
	q.inner.(resetter).Reset()
}

// Enqueue implements Queue.
func (q *Lossy) Enqueue(now sim.Time, p *Packet) bool {
	if q.p > 0 && q.rng.Float64() < q.p {
		q.injected++
		return false
	}
	return q.inner.Enqueue(now, p)
}

// Dequeue implements Queue.
func (q *Lossy) Dequeue(now sim.Time) *Packet { return q.inner.Dequeue(now) }

// Len implements Queue.
func (q *Lossy) Len() int { return q.inner.Len() }

// Bytes implements Queue.
func (q *Lossy) Bytes() int { return q.inner.Bytes() }

// Stats implements Queue; injected drops are reported alongside the inner
// discipline's counters.
func (q *Lossy) Stats() QueueStats {
	st := q.inner.Stats()
	st.DroppedPackets += q.injected
	return st
}

// Injected returns the number of randomly dropped packets.
func (q *Lossy) Injected() int64 { return q.injected }

// P returns the current drop probability.
func (q *Lossy) P() float64 { return q.p }

// SetP re-arms the drop probability mid-run (the chaos layer's loss-burst
// hook). Packets already queued are unaffected; only arrivals after the
// call see the new probability. p must be in [0, 1).
func (q *Lossy) SetP(p float64) {
	if p < 0 || p >= 1 {
		panic("netem: loss probability out of [0,1)")
	}
	q.p = p
}
