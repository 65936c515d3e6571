package sim

import "math"

// maxLanes caps the distinct constant delays one engine keeps lanes for. A
// fat-tree needs 5 (three per-layer propagation delays and the
// serialization times of a full segment and a bare header at one link
// rate), VL2 6; past the cap Lane hands out lanes that schedule on the
// heap — same order, merely slower.
const maxLanes = 16

// An empty lane's front is (noFront, noFrontSeq). No event carries that
// seq, so every real key orders strictly before it.
const (
	noFront    Time   = MaxTime
	noFrontSeq uint64 = math.MaxUint64
)

// laneEvent is an event waiting on a lane: the (time, seq) calendar key
// and the pre-bound (target, op, arg) triple, stored by value in the ring.
// There is no Event struct, no free-list traffic and no Handle — lane
// events cannot be cancelled.
type laneEvent struct {
	at     Time
	seq    uint64
	target Target
	arg    any
	op     Op
}

// Lane schedules events that all fire a fixed delay after the instant they
// are scheduled. The clock is monotone and seq only grows, so successive
// appends carry non-decreasing times and strictly increasing seqs: the
// ring is always in (time, seq) order without a comparison.
type Lane struct {
	eng   *Engine
	delay Duration
	// idx is the lane's slot in eng.frontAt/frontSeq, or -1 for a lane past the cap,
	// which forwards to the heap.
	idx int
	// buf is a power-of-two ring holding n events from head. It only ever
	// grows: what is in flight on a lane is bounded by the fabric (one
	// serialization per link, a delay-bandwidth product per wire), not by
	// the offered load, so Engine.Reset keeps it for the next cell.
	buf  []laneEvent
	head int
	n    int
}

// laneSeedCap is a ring's first capacity; it doubles from there.
const laneSeedCap = 256

// Lane returns the lane for delay d (>= 0). The same d always yields the
// same lane, so every link of one rate and one layer shares one ring.
func (e *Engine) Lane(d Duration) *Lane {
	if d < 0 {
		panicNegativeDelay(d)
	}
	for i := range e.lanes[:e.nLanes] {
		if e.lanes[i].delay == d {
			return &e.lanes[i]
		}
	}
	if e.nLanes == maxLanes {
		return &Lane{eng: e, delay: d, idx: -1}
	}
	l := &e.lanes[e.nLanes]
	*l = Lane{eng: e, delay: d, idx: e.nLanes}
	e.frontAt[l.idx], e.frontSeq[l.idx] = noFront, noFrontSeq
	e.nLanes++
	return l
}

// Schedule runs t.OnEvent(op, arg) after the lane's delay. It takes its
// seq from the same counter as ScheduleTarget, so moving a call site from
// one to the other changes no event's key.
func (l *Lane) Schedule(t Target, op Op, arg any) {
	e := l.eng
	if l.idx < 0 {
		e.ScheduleTarget(l.delay, t, op, arg)
		return
	}
	if t == nil {
		panic("sim: nil event target")
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	at, seq := e.now.Add(l.delay), e.nextSeq
	e.nextSeq++
	// Field by field: a composite literal is built on the stack and copied.
	ev := &l.buf[(l.head+l.n)&(len(l.buf)-1)]
	ev.at, ev.seq, ev.target, ev.arg, ev.op = at, seq, t, arg, op
	if l.n == 0 {
		e.frontAt[l.idx], e.frontSeq[l.idx] = at, seq
	}
	l.n++
}

// grow doubles the ring, unwrapping it to start at slot 0.
func (l *Lane) grow() {
	grown := make([]laneEvent, max(laneSeedCap, 2*len(l.buf)))
	k := copy(grown, l.buf[l.head:])
	copy(grown[k:], l.buf[:l.head])
	l.buf, l.head = grown, 0
}
