package sim

import "testing"

// TestCancelRecycledEventIsNoop is the regression test for the event
// free-list: a Handle to an event that already fired must stay a safe
// no-op in Cancel even after the Event struct has been recycled into a
// brand-new event. Without the generation counter the stale Cancel would
// silently kill the unrelated new event.
func TestCancelRecycledEventIsNoop(t *testing.T) {
	eng := NewEngine()
	stale := eng.Schedule(Millisecond, func() {})
	eng.Run(MaxTime) // fires and recycles the event struct

	fired := false
	fresh := eng.Schedule(Millisecond, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatalf("free-list did not recycle the fired event struct")
	}
	if stale.Pending() {
		t.Fatal("stale handle reports Pending")
	}
	eng.Cancel(stale) // must not touch the recycled event
	eng.Run(MaxTime)
	if !fired {
		t.Fatal("stale Cancel killed the event that recycled the struct")
	}
}

// TestCancelTailReclaimsImmediately pins the Cancel fast path: when the
// cancelled event occupies the last heap slot (schedule-then-cancel with
// nothing scheduled after it), it is removed and recycled on the spot, so
// the very next Schedule reuses the struct.
func TestCancelTailReclaimsImmediately(t *testing.T) {
	eng := NewEngine()
	h1 := eng.Schedule(Millisecond, func() { t.Fatal("cancelled event fired") })
	eng.Cancel(h1)
	if h1.Pending() || eng.Pending() != 0 {
		t.Fatal("cancelled tail event still pending")
	}
	fired := false
	h2 := eng.Schedule(Millisecond, func() { fired = true })
	if h2.ev != h1.ev {
		t.Fatal("tail-cancelled event struct was not recycled immediately")
	}
	eng.Cancel(h1) // stale
	eng.Run(MaxTime)
	if !fired {
		t.Fatal("event lost to a stale cancel")
	}
}

// TestCancelReclaimsLazily pins the lazy-deletion contract for non-tail
// events: Cancel stales the handle in O(1) but the Event struct stays in
// the calendar until its slot reaches the head (or a compaction sweeps
// it), so the very next Schedule must NOT reuse it — premature reuse
// would corrupt the heap. Once a run drains past the corpse, the struct
// is back on the free-list.
//
// The blocker, scheduled after the victim and for a later time, takes the
// heap's last slot, so the victim is off the tail fast path.
func TestCancelReclaimsLazily(t *testing.T) {
	eng := NewEngine()
	h1 := eng.Schedule(Millisecond, func() { t.Fatal("cancelled event fired") })
	blocker := false
	eng.Schedule(Millisecond+100, func() { blocker = true }) // keeps h1 off the tail slot
	eng.Cancel(h1)
	if h1.Pending() {
		t.Fatal("cancelled handle reports Pending")
	}
	if eng.Pending() != 1 {
		t.Fatalf("engine Pending = %d after cancel, want 1", eng.Pending())
	}
	fired := false
	h2 := eng.Schedule(Millisecond, func() { fired = true })
	if h2.ev == h1.ev {
		t.Fatal("lazily-cancelled event struct reused while still in the calendar")
	}
	eng.Cancel(h1) // stale again
	eng.Run(MaxTime)
	if !fired || !blocker {
		t.Fatal("live events lost to a stale cancel")
	}
	// The drained corpse is recyclable now.
	found := false
	for _, want := range []*Event{h1.ev, h2.ev} {
		h := eng.Schedule(Millisecond, func() {})
		if h.ev == want {
			found = true
		}
	}
	if !found {
		t.Fatal("drained corpse was not recycled into the free-list")
	}
}

// TestCancelCompaction drives enough churn to trip the compaction sweep
// and checks the calendar stays correct: live events fire in order, and
// cancelled ones are reclaimed without waiting for their deadlines.
func TestCancelCompaction(t *testing.T) {
	eng := NewEngine()
	var fired []int
	// One live event among many cancels, repeated past the threshold.
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(Duration(i+1)*Millisecond, func() { fired = append(fired, i) })
	}
	var victims []Handle
	for i := 0; i < 500; i++ {
		victims = append(victims, eng.Schedule(Second+Duration(i)*Millisecond, func() {
			t.Error("cancelled event fired")
		}))
	}
	for _, h := range victims {
		eng.Cancel(h)
	}
	if got := eng.Pending(); got != 10 {
		t.Fatalf("Pending = %d after mass cancel, want 10", got)
	}
	// Compaction must have reclaimed most corpses already (threshold 64).
	if len(eng.heap) > 10+64+1 {
		t.Fatalf("heap still holds %d slots; compaction did not run", len(eng.heap))
	}
	eng.Run(MaxTime)
	if len(fired) != 10 {
		t.Fatalf("fired %d live events, want 10", len(fired))
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("live events reordered after compaction: %v", fired)
		}
	}
	if eng.Now() != Time(10*Millisecond) {
		t.Fatalf("clock at %v: a cancelled event advanced time", eng.Now())
	}
}

// TestRunFinalClockWithRecycledEvents pins the Run final-clock rule after
// the free-list change: draining the calendar before the horizon still
// advances the clock to the horizon, and events recycled mid-run do not
// disturb the (time, seq) ordering of later schedules.
func TestRunFinalClockWithRecycledEvents(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(Millisecond, func() { order = append(order, 1) })
	eng.Run(Time(10 * Millisecond))
	if eng.Now() != Time(10*Millisecond) {
		t.Fatalf("clock at %v, want 10ms horizon", eng.Now())
	}
	// The recycled struct must behave like a fresh event at a later time.
	eng.Schedule(Millisecond, func() { order = append(order, 2) })
	eng.Schedule(Millisecond, func() { order = append(order, 3) })
	eng.Run(MaxTime)
	if len(order) != 3 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if eng.Now() != Time(11*Millisecond) {
		t.Fatalf("clock at %v, want 11ms (last event under MaxTime)", eng.Now())
	}
}

// TestEngineSteadyStateDoesNotAllocate drives a self-rescheduling event
// chain and checks the free-list serves every schedule after warm-up.
func TestEngineSteadyStateDoesNotAllocate(t *testing.T) {
	eng := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < 1000 {
			eng.Schedule(Microsecond, fn)
		}
	}
	eng.Schedule(Microsecond, fn)
	eng.Run(MaxTime)
	if got := eng.Recycled(); got < 999 {
		t.Fatalf("recycled %d events, want >= 999 (free-list not engaged)", got)
	}
	if len(eng.free) != 1 {
		t.Fatalf("free-list holds %d events, want 1", len(eng.free))
	}
}

// TestTimerReuseAfterRecycle exercises the Timer on top of the free-list:
// a timer whose event fired must be safely re-armable, and Stop on an
// expired timer must not cancel an unrelated event that recycled the
// struct.
func TestTimerReuseAfterRecycle(t *testing.T) {
	eng := NewEngine()
	ticks := 0
	tm := NewTimer(eng, func() { ticks++ })
	tm.Reset(Millisecond)
	eng.Run(MaxTime)
	if ticks != 1 || tm.Armed() {
		t.Fatalf("ticks=%d armed=%v after fire", ticks, tm.Armed())
	}
	fired := false
	eng.Schedule(Millisecond, func() { fired = true }) // reuses the struct
	tm.Stop()                                          // must not cancel it
	eng.Run(MaxTime)
	if !fired {
		t.Fatal("Timer.Stop after expiry cancelled an unrelated event")
	}
	tm.Reset(Millisecond)
	eng.Run(MaxTime)
	if ticks != 2 {
		t.Fatalf("ticks=%d after re-arm, want 2", ticks)
	}
}

// TestBalanceAccountsForEveryEvent pins what the drain audit reads: while
// events are scheduled some carved Events are not retired, and once the
// calendar drains — with an interior corpse still in the heap — every
// carved Event is retired and no lane holds anything, also after Reset.
func TestBalanceAccountsForEveryEvent(t *testing.T) {
	eng := NewEngine()
	lane := eng.Lane(Microsecond)
	var nop nopTarget
	var hs []Handle
	for i := 0; i < 100; i++ {
		hs = append(hs, eng.Schedule(Duration(i+1)*Millisecond, func() {}))
		lane.Schedule(nop, 0, nil)
	}
	eng.Cancel(hs[98]) // interior, and later than every live event: a corpse the drain leaves
	eng.Cancel(hs[99]) // tail: reclaimed on the spot
	carved, retired, inLanes := eng.Balance()
	if carved != 100 || retired != 2 || inLanes != 100 {
		t.Fatalf("scheduled: carved %d, retired %d, in lanes %d; want 100, 2, 100", carved, retired, inLanes)
	}
	eng.RunAll(1 << 20)
	if carved, retired, inLanes := eng.Balance(); retired != carved || inLanes != 0 {
		t.Fatalf("drained: retired %d of %d carved, %d in lanes", retired, carved, inLanes)
	}
	eng.Reset()
	if carved, retired, inLanes := eng.Balance(); carved != 100 || retired != 100 || inLanes != 0 {
		t.Fatalf("reset: carved %d, retired %d, in lanes %d; want 100, 100, 0", carved, retired, inLanes)
	}
}

type nopTarget struct{}

func (nopTarget) OnEvent(Op, any) {}
