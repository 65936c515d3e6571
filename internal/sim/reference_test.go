package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// refCalendar is the second opinion: one container/heap ordered by
// (time, seq), eager removal on cancel, nothing recycled. A lane is just a
// fixed delay. Whatever the engine does with lanes, lazy cancels, free
// lists and compaction must fire the same events in the same order.
type refCalendar struct {
	now Time
	seq uint64
	h   refHeap
}

type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	index int // position in the heap, -1 once fired or cancelled
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].index, h[j].index = i, j }
func (h *refHeap) Push(x any)   { ev := x.(*refEvent); ev.index = len(*h); *h = append(*h, ev) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	ev.index = -1
	return ev
}

func (r *refCalendar) Schedule(d Duration, fn func()) *refEvent {
	ev := &refEvent{at: r.now.Add(d), seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.h, ev)
	return ev
}

func (r *refCalendar) Cancel(ev *refEvent) {
	if ev.index >= 0 {
		heap.Remove(&r.h, ev.index)
	}
}

func (r *refCalendar) Run(until Time) uint64 {
	var n uint64
	for len(r.h) > 0 && r.h[0].at <= until {
		ev := heap.Pop(&r.h).(*refEvent)
		r.now = ev.at
		n++
		ev.fn()
	}
	if r.now < until && until != MaxTime {
		r.now = until
	}
	return n
}

// calendar is the surface the differential driver needs, as closures so
// the two handle types never meet.
type calendar struct {
	now      func() Time
	schedule func(d Duration, fn func()) (cancel func(), pending func() bool)
	lane     func(d Duration) (schedule func(fn func()))
	run      func(until Time) uint64
	pending  func() int
}

func engineCalendar(e *Engine) calendar {
	return calendar{
		now: e.Now,
		schedule: func(d Duration, fn func()) (func(), func() bool) {
			h := e.Schedule(d, fn)
			return func() { e.Cancel(h) }, h.Pending
		},
		lane: func(d Duration) func(func()) {
			l := e.Lane(d)
			return func(fn func()) { l.Schedule(funcTarget(fn), 0, nil) }
		},
		run:     e.Run,
		pending: e.Pending,
	}
}

func referenceCalendar(r *refCalendar) calendar {
	return calendar{
		now: func() Time { return r.now },
		schedule: func(d Duration, fn func()) (func(), func() bool) {
			ev := r.Schedule(d, fn)
			return func() { r.Cancel(ev) }, func() bool { return ev.index >= 0 }
		},
		lane: func(d Duration) func(func()) {
			return func(fn func()) { r.Schedule(d, fn) }
		},
		run:     r.Run,
		pending: func() int { return len(r.h) },
	}
}

// Delays are small multiples of 5 so that fronts of different lanes, heap
// events and Run horizons collide at one instant all the time. There are
// more lane delays than maxLanes: the last few exercise the heap fallback.
var (
	progLaneDelays = []Duration{0, 10, 20, 30, 40, 50, 60, 80, 100, 120, 150, 200, 300, 500, 1000, 2000, 15, 25, 35}
	progHeapDelays = []Duration{0, 5, 10, 10, 20, 30, 45, 100, 1000, 2000, 2005, 300 * Microsecond, Second}
)

// runProgram interprets prog against c and returns everything observable:
// each firing's id and time, each Run's count and final clock, each
// handle's pending state when it is cancelled, and what is left pending.
// Handlers read their own behaviour — schedule on a lane, schedule on the
// heap, cancel some earlier handle — from the same byte stream as the
// top level, so any difference in firing order changes what every later
// event does and cannot go unnoticed.
func runProgram(c calendar, prog []byte) []int64 {
	var log []int64
	next := func() int {
		if len(prog) == 0 {
			return -1
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	lanes := make([]func(func()), len(progLaneDelays))
	for i, d := range progLaneDelays {
		lanes[i] = c.lane(d)
	}
	type handle struct {
		cancel  func()
		pending func() bool
	}
	var handles []handle
	nextID := int64(0)

	var op func(reentrant bool)
	handler := func() func() {
		id := nextID
		nextID++
		return func() {
			log = append(log, id, int64(c.now()))
			for n := next() % 3; n > 0; n-- {
				op(true)
			}
		}
	}
	op = func(reentrant bool) {
		b := next()
		if b < 0 {
			return
		}
		arg := next()
		if arg < 0 {
			return
		}
		switch b % 9 {
		case 0, 1, 2: // lanes carry most events, as in a fabric
			lanes[arg%len(lanes)](handler())
		case 3, 4:
			cancel, pending := c.schedule(progHeapDelays[arg%len(progHeapDelays)], handler())
			handles = append(handles, handle{cancel, pending})
		case 5: // live or stale, whichever it is by now
			if len(handles) > 0 {
				h := handles[arg%len(handles)]
				if h.pending() {
					log = append(log, -1)
				} else {
					log = append(log, -2)
				}
				h.cancel()
			}
		case 6: // the same instant on several lanes and the heap
			for i := 0; i < 1+arg%4; i++ {
				lanes[(arg+i)%len(lanes)](handler())
				c.schedule(progLaneDelays[(arg+i)%len(progLaneDelays)], handler())
			}
		case 7: // RTO churn: enough interior corpses to trip a compaction
			first := len(handles)
			for i := 0; i < 70+arg; i++ {
				cancel, pending := c.schedule(progHeapDelays[(arg+i)%len(progHeapDelays)], handler())
				handles = append(handles, handle{cancel, pending})
			}
			for i, h := range handles[first:] {
				if i%8 != 0 {
					h.cancel()
				}
			}
		case 8:
			if !reentrant {
				n := c.run(c.now() + Time(arg%64))
				log = append(log, -3, int64(n), int64(c.now()))
			}
		}
	}
	for len(prog) > 0 {
		op(false)
	}
	n := c.run(MaxTime)
	return append(log, -3, int64(n), int64(c.now()), int64(c.pending()))
}

func checkAgainstReference(t *testing.T, prog []byte) {
	t.Helper()
	got := runProgram(engineCalendar(NewEngine()), prog)
	want := runProgram(referenceCalendar(&refCalendar{}), prog)
	if !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("engine diverges from the reference at log entry %d of %d/%d\nengine    %v\nreference %v",
			i, len(got), len(want), got[i:min(i+12, len(got))], want[i:min(i+12, len(want))])
	}
}

// TestEngineVsReference runs seeded random programs — interleaved lane and
// heap schedules, lanes whose fronts tie with each other and with heap
// events, re-entrant scheduling and cancelling, stale and live handles,
// Run horizons landing between lane fronts, more lanes than the cap —
// on the engine and on the reference calendar.
func TestEngineVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20130612))
	for i := 0; i < 150; i++ {
		prog := make([]byte, 64+rng.Intn(2048))
		rng.Read(prog)
		checkAgainstReference(t, prog)
	}
}

func FuzzEngineVsReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 3, 2, 8, 10, 5, 0, 8, 63})
	f.Add([]byte{6, 1, 6, 2, 6, 3, 8, 5, 8, 5, 8, 5, 5, 0, 5, 1, 5, 2})
	f.Add([]byte{3, 8, 3, 9, 0, 14, 0, 15, 5, 0, 5, 1, 8, 60, 5, 0, 0, 16, 0, 17, 0, 18})
	f.Add([]byte{0, 3, 7, 40, 0, 4, 8, 20, 7, 9, 8, 63})
	f.Fuzz(checkAgainstReference)
}

// TestSameTickTiesUnderCancelChurn pins FIFO order among events sharing
// one instant across every container: lane events, heap events, heap
// events cancelled from the heap's last slot (reclaimed on the spot) and
// from its interior (corpses the drain reclaims).
func TestSameTickTiesUnderCancelChurn(t *testing.T) {
	eng := NewEngine()
	const d = 3 * Microsecond
	lane := eng.Lane(d)
	var fired, want []int
	handles := make([]Handle, 60)
	for i := range handles {
		i := i
		fn := func() { fired = append(fired, i) }
		switch {
		case i%3 == 0:
			lane.Schedule(funcTarget(fn), 0, nil)
		default:
			handles[i] = eng.Schedule(d, fn)
			if i%5 == 4 {
				eng.Cancel(handles[i]) // tail: the heap's most recent leaf
			}
		}
	}
	for i := 0; i < len(handles); i += 7 {
		eng.Cancel(handles[i]) // interior; zero or stale handles are no-ops
	}
	for i := range handles {
		if i%3 == 0 || (i%5 != 4 && i%7 != 0) {
			want = append(want, i)
		}
	}
	eng.Run(MaxTime)
	if !slices.Equal(fired, want) {
		t.Fatalf("tie order %v, want %v", fired, want)
	}
	if eng.Now() != Time(d) || eng.Pending() != 0 {
		t.Fatalf("now %v pending %d after the drain", eng.Now(), eng.Pending())
	}
}

// TestCancelRescheduleAcrossSplit moves one logical timer near, far and
// near again on the heap while lane events with neighbouring seqs wait for
// the same instants: only the final arming fires, and the cancels disturb
// no lane event.
func TestCancelRescheduleAcrossSplit(t *testing.T) {
	eng := NewEngine()
	lane := eng.Lane(10 * Microsecond)
	var order []string
	note := func(s string) funcTarget { return func() { order = append(order, s) } }

	lane.Schedule(note("lane1"), 0, nil)
	h1 := eng.Schedule(10*Microsecond, func() { t.Error("cancelled near event fired") })
	lane.Schedule(note("lane2"), 0, nil)
	eng.Cancel(h1)
	h2 := eng.Schedule(Second, func() { t.Error("cancelled far event fired") })
	eng.Cancel(h2)
	eng.Schedule(10*Microsecond, note("timer"))
	lane.Schedule(note("lane3"), 0, nil)
	if got := eng.Pending(); got != 4 {
		t.Fatalf("Pending = %d, want 4", got)
	}
	eng.Run(Time(Millisecond))
	if want := []string{"lane1", "lane2", "timer", "lane3"}; !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}

	// The same dance through a Timer (the transport RTO pattern).
	ticks := 0
	tm := NewTimer(eng, func() { ticks++ })
	tm.Reset(10 * Microsecond)
	tm.Reset(Second)
	tm.Reset(30 * Microsecond)
	eng.Run(eng.Now() + Time(Millisecond))
	if ticks != 1 {
		t.Fatalf("timer fired %d times across the dance, want 1", ticks)
	}
}

// TestEngineResetVsReference: a Reset engine is a new engine. Each engine
// runs one program, is left with live lane and heap events and cancelled
// corpses on its calendar, is Reset, and must then run the next program
// exactly as the reference calendar does from scratch — while handles from
// before the Reset are stale and cancelling them disturbs nothing.
func TestEngineResetVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	e := NewEngine()
	for i := 0; i < 60; i++ {
		prog := make([]byte, 64+rng.Intn(1024))
		rng.Read(prog)
		got := runProgram(engineCalendar(e), prog)
		want := runProgram(referenceCalendar(&refCalendar{}), prog)
		if !slices.Equal(got, want) {
			t.Fatalf("program %d on a Reset engine diverges from the reference", i)
		}
		lane := e.Lane(progLaneDelays[i%len(progLaneDelays)])
		var old []Handle
		for j := 0; j < 100; j++ {
			lane.Schedule(funcTarget(func() { t.Error("lane event survived Reset") }), 0, nil)
			old = append(old, e.Schedule(Duration(j%7)*Microsecond, func() { t.Error("heap event survived Reset") }))
		}
		for _, h := range old[:80] {
			e.Cancel(h) // interior corpses, left for Reset to reclaim
		}
		e.Reset()
		if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 {
			t.Fatalf("after Reset: now %v, %d pending, %d processed", e.Now(), e.Pending(), e.Processed())
		}
		for _, h := range old {
			if h.Pending() {
				t.Fatal("a handle from before Reset is still pending")
			}
			e.Cancel(h)
		}
	}
}
