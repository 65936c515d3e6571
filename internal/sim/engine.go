package sim

import (
	"fmt"
	"math"

	"xmp/internal/arena"
)

// Op tags which action a typed Target should take when its event fires.
// Values are private to each Target implementation: the engine never
// interprets them, it only carries them from ScheduleTarget to OnEvent.
type Op uint8

// Target is the typed-dispatch receiver of the allocation-free scheduling
// path. Hot-path objects (links, timers, transport connections) implement
// OnEvent once and pre-bind themselves at Schedule time, so per-event
// capturing closures — one heap allocation each — never exist. The arg
// value is passed through verbatim; storing a pointer (e.g. a *Packet) in
// it does not allocate.
type Target interface {
	OnEvent(op Op, arg any)
}

// funcTarget adapts a closure to Target, so the calendar carries one event
// representation. A func value is pointer-shaped: storing it in the Target
// interface does not allocate. Closure events serve tests and the
// benchmark's rigs only; product code schedules typed targets, so the extra
// indirect call is never on a simulation path.
type funcTarget func()

func (f funcTarget) OnEvent(Op, any) { f() }

// Event is a scheduled, cancellable callback: what Schedule and
// ScheduleTarget put on the heap. Event structs are owned and recycled by
// their Engine: after an event fires or is cancelled the struct returns to
// an internal free-list and may be reissued by a later Schedule call.
// Callers therefore never hold *Event directly — Schedule returns a Handle
// that pairs the struct with its generation, so a stale Handle can be
// detected and ignored.
//
// An Event carries a pre-bound (target, op, arg) triple and fires through a
// single interface call with no per-event allocation.
type Event struct {
	at  Time
	seq uint64 // tiebreaker: FIFO among events at the same instant
	// gen increments every time the struct is invalidated (cancelled or
	// recycled); a Handle whose generation no longer matches refers to an
	// event that already fired or was cancelled, and Cancel treats it as a
	// no-op.
	gen      uint64
	target   Target
	arg      any
	op       Op
	canceled bool
}

// Handle refers to a scheduled event. The zero Handle is valid and refers
// to no event (Cancel ignores it, Pending reports false).
type Handle struct {
	ev  *Event
	gen uint64
}

// live reports whether the handle still refers to the generation it was
// issued for. A fired/cancelled (and possibly reissued) event fails this.
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

// Pending reports whether the event is still scheduled to fire.
func (h Handle) Pending() bool { return h.live() && !h.ev.canceled }

// At returns the time the event is scheduled to fire, or 0 if the handle
// is stale or zero.
func (h Handle) At() Time {
	if !h.live() {
		return 0
	}
	return h.ev.at
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; an experiment owns exactly one Engine.
//
// The calendar is a handful of constant-delay lanes (lane.go) plus one
// 4-ary min-heap. A lane holds the events scheduled at now+d for one fixed
// d — a link's serialization and propagation events, 90–95 % of all
// inserts — and because the clock never runs backwards those arrive
// already in (time, seq) order, so a lane is a FIFO ring: insert is an
// append, pop is a head advance, nothing is ever compared or moved. The
// heap holds everything else: timers, closures, odd-sized segments, and
// any event that must be cancellable. Run fires the minimum of the lane
// fronts and the heap root under the strict (time, seq) order; a k-way
// merge of sorted runs under a strict total order is the pop order of one
// global heap holding the same events, so where an event waits never
// changes when it fires.
type Engine struct {
	now     Time
	nextSeq uint64

	// frontAt[i], frontSeq[i] is the key of lane i's oldest pending event
	// (noFront, noFrontSeq when the lane is empty), kept beside the clock
	// so picking the next event scans nLanes adjacent times instead of
	// chasing nLanes ring buffers; the seqs are read only on a tie.
	frontAt  [maxLanes]Time
	frontSeq [maxLanes]uint64
	nLanes   int

	// heap is the 4-ary min-heap by (at, seq).
	heap []*Event
	// canceledHeap tracks lazily-cancelled events still occupying heap
	// slots; when they dominate, the heap is compacted.
	canceledHeap int

	// cancels counts events removed by Cancel. Together with nextSeq
	// (every insert) and processed (every fire) it determines the live
	// pending count as nextSeq - processed - cancels — each event meets
	// exactly one of fire or Cancel — so the hot insert/fire paths carry
	// no pending read-modify-write at all.
	cancels uint64

	// free is the Event recycling stack: every fired or cancelled struct
	// is reissued by the next heap insert, so a steady-state simulation
	// allocates no events at all. Single-threaded like the engine, so no
	// locking; never shared across engines.
	free []*Event
	// slab backs first-time Event allocation in chunks, so a run that
	// peaks at N simultaneous events costs ~N/chunk heap allocations
	// instead of N before the free list takes over.
	slab arena.Slab[Event]
	// slabAllocs counts fresh slab carves; every other insert is
	// nextSeq - slabAllocs, so the recycling observability costs nothing
	// on the hot path.
	slabAllocs uint64
	// processed counts events executed, for progress reporting and the
	// runaway guard in tests.
	processed uint64
	stopped   bool

	lanes [maxLanes]Lane
}

// NewEngine returns an engine with the clock at zero and an empty calendar.
func NewEngine() *Engine { return &Engine{} }

// Reset empties the calendar and rewinds the clock, seq and counters to a
// new engine's. The lanes and their rings, the Event slab and the free
// list (which takes back whatever the heap still held) are kept.
func (e *Engine) Reset() {
	for _, ev := range e.heap {
		ev.canceled = false // free-list invariant
		e.recycle(ev)
	}
	e.heap = e.heap[:0]
	for i := range e.lanes[:e.nLanes] {
		e.lanes[i].head, e.lanes[i].n = 0, 0
		e.frontAt[i], e.frontSeq[i] = noFront, noFrontSeq
	}
	e.now, e.nextSeq, e.processed, e.cancels, e.canceledHeap, e.slabAllocs = 0, 0, 0, 0, 0, 0
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Recycled returns the number of inserts that allocated no Event: heap
// inserts served from the free-list, and every lane insert.
func (e *Engine) Recycled() uint64 { return e.nextSeq - e.slabAllocs }

// Promoted is always 0: it counted moves between two containers of a
// calendar design that is gone, and stays only because the benchmark
// harness compiles against it.
func (e *Engine) Promoted() uint64 { return 0 }

// Balance reports, for the drain audit, how many Events the engine's slab
// has ever carved, how many of them are retired — on the free list, or
// cancelled and awaiting lazy reclaim in the heap — and how many events
// the lanes hold. A drained engine has retired every Event it carved and
// holds nothing in a lane. The slab's own count survives Reset, which
// hands the heap's events back to the free list.
func (e *Engine) Balance() (carved, retired, inLanes int) {
	for i := range e.lanes[:e.nLanes] {
		inLanes += e.lanes[i].n
	}
	return e.slab.Allocated(), len(e.free) + e.canceledHeap, inLanes
}

// Pending returns the number of events currently scheduled (cancelled
// events awaiting lazy reclamation are not counted).
func (e *Engine) Pending() int { return int(e.nextSeq - e.processed - e.cancels) }

// less orders the calendar: earlier time first, FIFO at the same instant.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends ev to the 4-ary min-heap h and sifts it up its parent
// chain. The hole is moved, not swapped: one write per level plus the
// final placement.
func heapPush(hp *[]*Event, ev *Event) {
	*hp = append(*hp, ev)
	h := *hp
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !less(ev, p) {
			return // already in place from the append / previous store
		}
		h[i] = p
		i = parent
		h[i] = ev
	}
}

// heapPop removes and returns the minimum event of h. The truncated tail
// slot keeps its stale pointer: Event structs are engine-owned and
// recycled forever, so the retention is bounded and clearing it would be
// a pure write-barrier cost on the hot path.
func heapPop(hp *[]*Event) *Event {
	h := *hp
	n := len(h) - 1
	top := h[0]
	last := h[n]
	*hp = h[:n]
	if n > 0 {
		siftDown(h[:n], 0, last)
	}
	return top
}

// siftDown places ev into heap h starting at slot i, walking down toward
// the leaves. Children of i are slots 4i+1..4i+4.
func siftDown(h []*Event, i int, ev *Event) {
	n := len(h)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(h[c], h[m]) {
				m = c
			}
		}
		if !less(h[m], ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// compact rebuilds the heap without its lazily-cancelled events, recycling
// them. Triggered when cancelled entries dominate, so the O(n) rebuild
// amortizes to O(1) per Cancel. The pop order of the survivors is
// unchanged: (at, seq) is a strict total order, so any valid heap over the
// same set drains identically — determinism is layout-free.
func (e *Engine) compact() {
	h := e.heap
	live := h[:0]
	for _, ev := range h {
		if ev.canceled {
			ev.canceled = false // free-list invariant
			e.free = append(e.free, ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(h); i++ {
		h[i] = nil
	}
	e.heap = live
	e.canceledHeap = 0
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		siftDown(live, i, live[i])
	}
}

// allocSlow carves a fresh Event from the slab — the free-list miss path,
// kept out of line so insert's open-coded free-list pop stays small. The
// popped free-list slot keeps its stale pointer (see heapPop for why that
// is free).
//
//go:noinline
func (e *Engine) allocSlow() *Event {
	e.slabAllocs++
	return e.slab.Get()
}

// recycle retires a fired or tail-cancelled event to the free-list.
// Bumping the generation here is what invalidates every outstanding
// Handle to it; the payload fields are nilled so the engine does not keep
// closures or packets alive past their event.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.target = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

//go:noinline
func panicSchedulePast(t, now Time) {
	panic(fmt.Sprintf("sim: schedule at %v before now %v", t, now))
}

//go:noinline
func panicNegativeDelay(d Duration) {
	panic(fmt.Sprintf("sim: negative delay %v", d))
}

// Schedule runs fn after delay d (>= 0). It returns a Handle, which may be
// passed to Cancel. Scheduling in the past panics: it always indicates a
// logic error in the caller. The closure form is for tests and the
// benchmark's rigs; product code schedules typed targets.
func (e *Engine) Schedule(d Duration, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.ScheduleTarget(d, funcTarget(fn), 0, nil)
}

// ScheduleAt runs fn at absolute time t (>= Now).
func (e *Engine) ScheduleAt(t Time, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.ScheduleTargetAt(t, funcTarget(fn), 0, nil)
}

// ScheduleTarget runs t.OnEvent(op, arg) after delay d (>= 0). This is the
// typed, allocation-free variant of Schedule: the receiver is pre-bound
// instead of captured, so RTO and delayed-ACK timers schedule with zero
// heap allocations. arg should be nil or a pointer-shaped value; both
// store into the event without allocating. An event that always fires
// after the same delay and is never cancelled belongs on a Lane instead.
func (e *Engine) ScheduleTarget(d Duration, t Target, op Op, arg any) Handle {
	if d < 0 {
		panicNegativeDelay(d)
	}
	return e.ScheduleTargetAt(e.now.Add(d), t, op, arg)
}

// ScheduleTargetAt runs t.OnEvent(op, arg) at absolute time at (>= Now).
func (e *Engine) ScheduleTargetAt(at Time, t Target, op Op, arg any) Handle {
	if t == nil {
		panic("sim: nil event target")
	}
	if at < e.now {
		panicSchedulePast(at, e.now)
	}
	// Free-list pop, open-coded: insert runs once per heap event. No
	// canceled reset: every event reaching the free-list has
	// canceled == false (corpse reclaim clears it).
	var ev *Event
	if n := len(e.free) - 1; n >= 0 {
		ev = e.free[n]
		e.free = e.free[:n]
	} else {
		ev = e.allocSlow()
	}
	ev.at = at
	ev.seq = e.nextSeq
	e.nextSeq++
	ev.target = t
	ev.op = op
	ev.arg = arg
	heapPush(&e.heap, ev)
	return Handle{ev: ev, gen: ev.gen}
}

// Cancel removes a scheduled event. Cancelling an event that already fired
// or was already cancelled — including one whose struct has since been
// recycled into a different event — is a no-op, which makes timer
// management at the call sites straightforward.
//
// Cancellation is lazy: the event is marked dead in O(1) and its heap slot
// is reclaimed when it reaches the root (or a compaction sweeps it),
// instead of an eager removal per cancel. The handle goes stale
// immediately; only the struct's reuse is deferred. One fast path: the
// event in the heap's last slot is a leaf and truncates without
// disturbing the order — the schedule-then-cancel churn shape — so its
// struct is reclaimed on the spot.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	// gen covers the canceled state too: every path that marks an event
	// dead (interior corpse, tail truncation, fire) bumps gen first, so a
	// matching generation implies a live, scheduled event.
	if ev == nil || ev.gen != h.gen {
		return
	}
	e.cancels++
	s := e.heap
	if n := len(s) - 1; s[n] == ev {
		e.heap = s[:n]
		e.recycle(ev)
		return
	}
	ev.canceled = true
	ev.gen++ // invalidate all outstanding handles now
	ev.target = nil
	ev.arg = nil
	e.canceledHeap++
	// Compact when cancelled corpses outnumber live events and are worth
	// the O(n) sweep; keeps RTO-churn heaps from growing without bound
	// while their deadlines are far off.
	if e.canceledHeap > 64 && e.canceledHeap > len(e.heap)-e.canceledHeap {
		e.compact()
	}
}

// Stop makes the current Run call return after the event in progress
// completes. It may be called from inside an event callback.
func (e *Engine) Stop() { e.stopped = true }

// step fires the earliest pending event if it is due at or before until,
// and reports whether it did. Lazily-cancelled corpses met at the heap
// root are reclaimed on the way.
func (e *Engine) step(until Time) bool {
	li, lat, lseq := -1, noFront, noFrontSeq
	for i, at := range e.frontAt[:e.nLanes] {
		if at < lat || at == lat && e.frontSeq[i] < lseq {
			li, lat, lseq = i, at, e.frontSeq[i]
		}
	}
	for len(e.heap) > 0 {
		ev := e.heap[0]
		if ev.canceled {
			// Cancel already bumped gen and cleared the payload; the
			// struct only needs the canceled reset (free-list invariant).
			heapPop(&e.heap)
			e.canceledHeap--
			ev.canceled = false
			e.free = append(e.free, ev)
			continue
		}
		if ev.at > lat || ev.at == lat && ev.seq > lseq {
			break // a lane front is earlier
		}
		if ev.at > until {
			return false
		}
		heapPop(&e.heap)
		e.now = ev.at
		e.processed++
		// The struct is recycled before the callback runs, so the
		// callback's own Schedule calls reuse it; the payload is copied
		// out first to keep the execution independent of that reuse.
		target, op, arg := ev.target, ev.op, ev.arg
		e.recycle(ev)
		target.OnEvent(op, arg)
		return true
	}
	if li < 0 || lat > until {
		return false
	}
	// Pop the chosen lane's front, advancing the ring before the callback:
	// it may schedule on this lane and grow the ring. The vacated slot keeps
	// its stale pointers (see heapPop; the ring bounds how many are held).
	l := &e.lanes[li]
	ev := &l.buf[l.head]
	target, op, arg := ev.target, ev.op, ev.arg
	e.now = lat
	e.processed++
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	if l.n > 0 {
		next := &l.buf[l.head]
		e.frontAt[li], e.frontSeq[li] = next.at, next.seq
	} else {
		e.frontAt[li], e.frontSeq[li] = noFront, noFrontSeq
	}
	target.OnEvent(op, arg)
	return true
}

// Run executes events in timestamp order until the calendar is empty or the
// clock would pass until. Events scheduled exactly at until still run. It
// returns the number of events executed by this call.
func (e *Engine) Run(until Time) uint64 {
	start := e.processed
	e.stopped = false
	for !e.stopped && e.step(until) {
	}
	if e.now < until && until != MaxTime && !e.stopped {
		// Drained the calendar before the horizon: advance the clock so a
		// subsequent Run continues from the horizon, matching how NS-style
		// simulators treat Stop times. The MaxTime sentinel ("run to
		// completion") leaves the clock at the last executed event.
		e.now = until
	}
	return e.processed - start
}

// RunAll executes events until the calendar is empty: Drain with no
// deadline. It is intended for closed workloads that are guaranteed to
// terminate; the maxEvents guard converts an accidental infinite event
// loop into a panic with context.
func (e *Engine) RunAll(maxEvents uint64) uint64 { return e.Drain(MaxTime, maxEvents) }

// Drain executes events in timestamp order until the calendar is empty or
// the next event lies past deadline, and returns how many it executed.
// Unlike Run it never moves the clock past the last event it executed, so
// Now still reads when the run ended; Pending tells a drained calendar from
// one cut at the deadline. It panics as soon as it has run more than
// maxEvents events: an event loop that never lets the clock reach the
// deadline.
func (e *Engine) Drain(deadline Time, maxEvents uint64) uint64 {
	start := e.processed
	e.stopped = false
	for !e.stopped && e.step(deadline) {
		if e.processed-start > maxEvents {
			panic(fmt.Sprintf("sim: exceeded %d events at t=%v (runaway event loop?)", maxEvents, e.now))
		}
	}
	return e.processed - start
}

// MaxTime is the largest representable simulated time; usable as an
// "effectively forever" horizon for Run.
const MaxTime = Time(math.MaxInt64)
