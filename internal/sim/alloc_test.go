package sim

import "testing"

// Allocation regression guards: the calendar hot paths must stay at zero
// heap allocations per operation. PR 2 removed the Event allocations with
// the free-list; PR 3 removed the per-event closures with the typed path.
// A capturing closure sneaking back into Schedule/fire/Cancel or into the
// Timer re-arm shows up here as a CI failure instead of a silent perf
// regression in the k=8 campaigns.

// countTarget is a minimal Target whose events count firings and
// optionally re-arm themselves.
type countTarget struct {
	eng   *Engine
	fired int
	rearm Duration // re-schedule after this delay when nonzero
}

func (c *countTarget) OnEvent(Op, any) {
	c.fired++
	if c.rearm > 0 {
		c.eng.ScheduleTarget(c.rearm, c, 0, nil)
	}
}

func TestScheduleFireZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {} // built once: the closure itself is not under test
	// Warm the free-list.
	eng.Schedule(Microsecond, fn)
	eng.Run(MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		eng.Schedule(Microsecond, fn)
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("func-path schedule+fire allocates %v/op, want 0", allocs)
	}
}

func TestScheduleTargetFireZeroAlloc(t *testing.T) {
	eng := NewEngine()
	ct := &countTarget{eng: eng}
	eng.ScheduleTarget(Microsecond, ct, 0, nil)
	eng.Run(MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		eng.ScheduleTarget(Microsecond, ct, 0, nil)
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+fire allocates %v/op, want 0", allocs)
	}
	// A pointer-shaped arg must ride along without boxing allocations.
	arg := &struct{ x int }{}
	allocs = testing.AllocsPerRun(1000, func() {
		eng.ScheduleTarget(Microsecond, ct, 1, arg)
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+fire with pointer arg allocates %v/op, want 0", allocs)
	}
	if ct.fired == 0 {
		t.Fatal("typed events did not fire")
	}
}

// TestLaneScheduleFireZeroAlloc is the same gate for the lane path: once
// the ring has its capacity, schedule+fire is stores and index arithmetic
// — the ring wraps several times over the runs — and a lane past the cap
// costs what ScheduleTarget costs.
func TestLaneScheduleFireZeroAlloc(t *testing.T) {
	eng := NewEngine()
	ct := &countTarget{eng: eng}
	lanes := []*Lane{eng.Lane(Microsecond)}
	for d := Duration(2); len(lanes) < 2; d++ {
		if l := eng.Lane(d); l.idx < 0 {
			lanes = append(lanes, l)
		}
	}
	arg := &struct{ x int }{}
	for _, l := range lanes {
		l.Schedule(ct, 0, arg)
		eng.Run(MaxTime)
		allocs := testing.AllocsPerRun(1000, func() {
			l.Schedule(ct, 1, arg)
			l.Schedule(ct, 2, arg)
			eng.Run(MaxTime)
		})
		if allocs != 0 {
			t.Fatalf("lane (slot %d) schedule+fire allocates %v/op, want 0", l.idx, allocs)
		}
	}
	if ct.fired == 0 {
		t.Fatal("lane events did not fire")
	}
}

func TestCancelZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Warm the free-list with two structs (keeper + victim).
	a, b := eng.Schedule(Microsecond, fn), eng.Schedule(Microsecond, fn)
	_, _ = a, b
	eng.Run(MaxTime)
	// Tail fast path: cancel the most recently scheduled event.
	allocs := testing.AllocsPerRun(1000, func() {
		h := eng.Schedule(Microsecond, fn)
		eng.Cancel(h)
	})
	if allocs != 0 {
		t.Fatalf("tail cancel allocates %v/op, want 0", allocs)
	}
	// Lazy path: cancel an event pinned off the tail slot by a later one,
	// then drain both — the full mark/drain/compact cycle must not
	// allocate either (the free-list absorbs the churn).
	allocs = testing.AllocsPerRun(1000, func() {
		victim := eng.Schedule(Microsecond, fn)
		eng.Schedule(2*Microsecond, fn)
		eng.Cancel(victim)
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("lazy cancel+drain allocates %v/op, want 0", allocs)
	}
}

func TestTimerResetZeroAlloc(t *testing.T) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	tm.Reset(Microsecond)
	eng.Run(MaxTime)
	// Re-arm churn without firing: the RTO pattern (every ACK resets).
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("timer re-arm allocates %v/op, want 0", allocs)
	}
	tm.Stop()
	// Arm-fire-rearm cycle.
	allocs = testing.AllocsPerRun(1000, func() {
		tm.Reset(Microsecond)
		eng.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("timer arm+fire allocates %v/op, want 0", allocs)
	}
}
