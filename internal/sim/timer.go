package sim

// Timer is a restartable one-shot timer bound to an Engine, analogous to
// the retransmission timers inside a TCP implementation. The zero value is
// not usable; create timers with NewTimer.
//
// Timer rides the typed event path: it implements Target and pre-binds
// itself at arm time, so Reset/Stop churn neither allocates (no capturing
// closure per arm) nor sifts the calendar (Stop is a lazy O(1) cancel).
type Timer struct {
	eng   *Engine
	h     Handle
	armed bool
	fn    func()
}

// NewTimer returns a stopped timer that will invoke fn when it expires.
func NewTimer(eng *Engine, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer function")
	}
	return &Timer{eng: eng, fn: fn}
}

// OnEvent implements Target: the timer expired. Not for direct use.
func (t *Timer) OnEvent(Op, any) {
	t.armed = false
	t.h = Handle{}
	t.fn()
}

// Reset (re)arms the timer to fire after d, replacing any pending
// expiration.
func (t *Timer) Reset(d Duration) {
	t.Stop()
	t.h = t.eng.ScheduleTarget(d, t, 0, nil)
	t.armed = true
}

// Stop cancels any pending expiration. Stopping a stopped timer is a no-op.
func (t *Timer) Stop() {
	if t.armed {
		t.eng.Cancel(t.h)
		t.armed = false
		t.h = Handle{}
	}
}

// Armed reports whether the timer has a pending expiration.
func (t *Timer) Armed() bool { return t.armed }

// Deadline returns the time the timer will fire; valid only when Armed.
func (t *Timer) Deadline() Time {
	if !t.armed {
		return 0
	}
	return t.h.At()
}
