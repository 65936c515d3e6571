package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	eng := NewEngine()
	var got []Time
	for _, d := range []Duration{5 * Millisecond, Millisecond, 3 * Millisecond} {
		d := d
		eng.Schedule(d, func() { got = append(got, eng.Now()) })
	}
	eng.Run(MaxTime)
	want := []Time{Time(Millisecond), Time(3 * Millisecond), Time(5 * Millisecond)}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(Millisecond, func() { order = append(order, i) })
	}
	eng.Run(MaxTime)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: got %v", order)
		}
	}
}

func TestEngineRunHorizon(t *testing.T) {
	eng := NewEngine()
	fired := 0
	eng.Schedule(Millisecond, func() { fired++ })
	eng.Schedule(2*Millisecond, func() { fired++ })
	eng.Schedule(3*Millisecond, func() { fired++ })
	n := eng.Run(Time(2 * Millisecond))
	if n != 2 || fired != 2 {
		t.Fatalf("ran %d events (fired=%d), want 2; boundary event must run", n, fired)
	}
	if eng.Now() != Time(2*Millisecond) {
		t.Fatalf("clock at %v, want 2ms", eng.Now())
	}
	if eng.Pending() != 1 {
		t.Fatalf("pending %d, want 1", eng.Pending())
	}
	eng.Run(MaxTime)
	if fired != 3 {
		t.Fatalf("resumed run fired %d total, want 3", fired)
	}
}

func TestEngineClockAdvancesToHorizonWhenDrained(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(Millisecond, func() {})
	eng.Run(Time(10 * Millisecond))
	if eng.Now() != Time(10*Millisecond) {
		t.Fatalf("clock at %v, want horizon 10ms", eng.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine()
	fired := false
	ev := eng.Schedule(Millisecond, func() { fired = true })
	eng.Cancel(ev)
	eng.Cancel(ev) // double-cancel is a no-op
	eng.Run(MaxTime)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineCancelFromWithinEvent(t *testing.T) {
	eng := NewEngine()
	fired := false
	var victim Handle
	eng.Schedule(Millisecond, func() { eng.Cancel(victim) })
	victim = eng.Schedule(2*Millisecond, func() { fired = true })
	eng.Run(MaxTime)
	if fired {
		t.Fatal("event cancelled from within an earlier event still fired")
	}
}

func TestEngineStop(t *testing.T) {
	eng := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		eng.Schedule(Duration(i)*Millisecond, func() {
			count++
			if count == 2 {
				eng.Stop()
			}
		})
	}
	eng.Run(MaxTime)
	if count != 2 {
		t.Fatalf("Stop did not halt the run: %d events executed", count)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		eng.ScheduleAt(0, func() {})
	})
	eng.Run(MaxTime)
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewEngine().Schedule(-Millisecond, func() {})
}

func TestEngineRunAllGuard(t *testing.T) {
	eng := NewEngine()
	var loop func()
	loop = func() { eng.Schedule(Millisecond, loop) }
	loop()
	defer func() {
		if recover() == nil {
			t.Error("runaway loop did not trip the RunAll guard")
		}
	}()
	eng.RunAll(100)
}

// TestEngineDrainStopsAtDeadline: Drain runs the events up to its deadline
// and leaves the clock at the last one it ran, not at the deadline; the
// rest stay pending, and a zero-delay loop trips the event guard.
func TestEngineDrainStopsAtDeadline(t *testing.T) {
	eng := NewEngine()
	for _, at := range []Duration{1, 5, 10} {
		eng.Schedule(at*Millisecond, func() {})
	}
	if n := eng.Drain(Time(7*Millisecond), 100); n != 2 || eng.Now() != Time(5*Millisecond) || eng.Pending() != 1 {
		t.Fatalf("Drain to 7 ms ran %d events, clock %v, %d pending; want 2, 5 ms, 1", n, eng.Now(), eng.Pending())
	}
	if n := eng.Drain(MaxTime, 100); n != 1 || eng.Now() != Time(10*Millisecond) || eng.Pending() != 0 {
		t.Fatalf("Drain to the end ran %d events, clock %v, %d pending; want 1, 10 ms, 0", n, eng.Now(), eng.Pending())
	}
	var loop func()
	loop = func() { eng.Schedule(0, loop) }
	loop()
	defer func() {
		if recover() == nil {
			t.Error("a zero-delay loop did not trip the Drain guard")
		}
	}()
	eng.Drain(MaxTime, 100)
}

func TestEventsFireAtScheduledTimesProperty(t *testing.T) {
	// Property: for arbitrary delay sets, each event observes exactly its
	// scheduled time and the engine visits times in nondecreasing order.
	f := func(raw []uint32) bool {
		eng := NewEngine()
		want := make([]Time, 0, len(raw))
		for _, r := range raw {
			d := Duration(r % 1_000_000_000)
			want = append(want, eng.Now().Add(d))
			eng.Schedule(d, func() {})
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		last := Time(-1)
		ok := true
		eng2 := NewEngine()
		got := make([]Time, 0, len(raw))
		for _, r := range raw {
			d := Duration(r % 1_000_000_000)
			eng2.Schedule(d, func() {
				got = append(got, eng2.Now())
				if eng2.Now() < last {
					ok = false
				}
				last = eng2.Now()
			})
		}
		eng2.Run(MaxTime)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTimerResetReplacesDeadline(t *testing.T) {
	eng := NewEngine()
	fired := make([]Time, 0, 2)
	tm := NewTimer(eng, func() { fired = append(fired, eng.Now()) })
	tm.Reset(5 * Millisecond)
	eng.Schedule(Millisecond, func() { tm.Reset(10 * Millisecond) })
	eng.Run(MaxTime)
	if len(fired) != 1 || fired[0] != Time(11*Millisecond) {
		t.Fatalf("timer fired at %v, want exactly once at 11ms", fired)
	}
}

func TestTimerStop(t *testing.T) {
	eng := NewEngine()
	tm := NewTimer(eng, func() { t.Error("stopped timer fired") })
	tm.Reset(Millisecond)
	if !tm.Armed() {
		t.Fatal("timer not armed after Reset")
	}
	tm.Stop()
	if tm.Armed() {
		t.Fatal("timer armed after Stop")
	}
	tm.Stop() // idempotent
	eng.Run(MaxTime)
}

func TestTimerRearmFromCallback(t *testing.T) {
	eng := NewEngine()
	count := 0
	var tm *Timer
	tm = NewTimer(eng, func() {
		count++
		if count < 3 {
			tm.Reset(Millisecond)
		}
	})
	tm.Reset(Millisecond)
	eng.Run(MaxTime)
	if count != 3 {
		t.Fatalf("periodic rearm fired %d times, want 3", count)
	}
	if eng.Now() != Time(3*Millisecond) {
		t.Fatalf("clock %v, want 3ms", eng.Now())
	}
}

func TestTimerDeadline(t *testing.T) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	tm.Reset(7 * Millisecond)
	if got := tm.Deadline(); got != Time(7*Millisecond) {
		t.Fatalf("deadline %v, want 7ms", got)
	}
}

// opRecorder records every typed dispatch it receives.
type opRecorder struct {
	eng  *Engine
	ops  []Op
	args []any
	at   []Time
}

func (r *opRecorder) OnEvent(op Op, arg any) {
	r.ops = append(r.ops, op)
	r.args = append(r.args, arg)
	r.at = append(r.at, r.eng.Now())
}

func TestScheduleTargetDispatch(t *testing.T) {
	eng := NewEngine()
	r := &opRecorder{eng: eng}
	payload := &struct{ v int }{v: 7}
	eng.ScheduleTarget(2*Millisecond, r, 5, payload)
	eng.ScheduleTarget(Millisecond, r, 3, nil)
	eng.Run(MaxTime)
	if len(r.ops) != 2 {
		t.Fatalf("dispatched %d typed events, want 2", len(r.ops))
	}
	if r.ops[0] != 3 || r.at[0] != Time(Millisecond) || r.args[0] != nil {
		t.Fatalf("first dispatch op=%d at=%v arg=%v", r.ops[0], r.at[0], r.args[0])
	}
	if r.ops[1] != 5 || r.at[1] != Time(2*Millisecond) || r.args[1] != any(payload) {
		t.Fatalf("second dispatch op=%d at=%v arg=%v", r.ops[1], r.at[1], r.args[1])
	}
}

func TestTypedAndFuncEventsInterleaveFIFO(t *testing.T) {
	// Typed and func events at the same instant keep schedule order: the
	// (time, seq) tiebreak is kind-agnostic.
	eng := NewEngine()
	var order []int
	r := &opRecorder{eng: eng}
	eng.Schedule(Millisecond, func() { order = append(order, 0) })
	eng.ScheduleTarget(Millisecond, r, 1, nil)
	eng.Schedule(Millisecond, func() { order = append(order, 2) })
	eng.ScheduleTarget(Millisecond, r, 3, nil)
	eng.Run(MaxTime)
	if len(order) != 2 || order[0] != 0 || order[1] != 2 {
		t.Fatalf("func events out of order: %v", order)
	}
	if len(r.ops) != 2 || r.ops[0] != 1 || r.ops[1] != 3 {
		t.Fatalf("typed events out of order: %v", r.ops)
	}
}

func TestScheduleTargetCancel(t *testing.T) {
	eng := NewEngine()
	r := &opRecorder{eng: eng}
	h := eng.ScheduleTarget(Millisecond, r, 1, nil)
	eng.ScheduleTarget(2*Millisecond, r, 2, nil)
	eng.Cancel(h)
	eng.Run(MaxTime)
	if len(r.ops) != 1 || r.ops[0] != 2 {
		t.Fatalf("cancel of typed event wrong: dispatched %v", r.ops)
	}
}

func TestScheduleTargetNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil target did not panic")
		}
	}()
	NewEngine().ScheduleTarget(Millisecond, nil, 0, nil)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	g := NewRNG(1)
	f1 := g.Fork(1)
	f2 := g.Fork(2)
	equal := 0
	for i := 0; i < 100; i++ {
		if f1.Float64() == f2.Float64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("forked streams correlated: %d/100 equal draws", equal)
	}
}

func TestParetoBoundsAndMean(t *testing.T) {
	g := NewRNG(7)
	const (
		alpha = 1.5
		mean  = 192.0
		min   = 1.0
		max   = 768.0
	)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := g.Pareto(alpha, mean, min, max)
		if v < min || v > max {
			t.Fatalf("sample %v outside [%v,%v]", v, min, max)
		}
		sum += v
	}
	got := sum / n
	// Truncation pulls the realized mean below the nominal 192; it should
	// land in a plausible band.
	if got < mean*0.5 || got > mean*1.1 {
		t.Fatalf("realized mean %.1f implausible for nominal %v", got, mean)
	}
}

func TestUniformHelpers(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 1000; i++ {
		d := g.UniformDuration(Millisecond, 2*Millisecond)
		if d < Millisecond || d > 2*Millisecond {
			t.Fatalf("duration %v out of range", d)
		}
		b := g.UniformBytes(64, 512)
		if b < 64 || b > 512 {
			t.Fatalf("bytes %v out of range", b)
		}
	}
	if g.UniformBytes(10, 10) != 10 {
		t.Fatal("degenerate byte range")
	}
	if g.UniformDuration(Millisecond, Millisecond) != Millisecond {
		t.Fatal("degenerate duration range")
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(1500 * Microsecond)
	if t0.Seconds() != 0.0015 {
		t.Fatalf("Seconds() = %v", t0.Seconds())
	}
	if t0.Sub(Time(Microsecond)) != 1499*Microsecond {
		t.Fatal("Sub wrong")
	}
	if !Time(1).Before(Time(2)) || !Time(2).After(Time(1)) {
		t.Fatal("ordering predicates wrong")
	}
	if Time(1500000).String() != "0.001500s" {
		t.Fatalf("String() = %q", Time(1500000).String())
	}
}

func TestEngineDeterministicUnderLoad(t *testing.T) {
	// Two identical runs with randomized schedules must execute identical
	// event sequences (regression guard for heap tie-breaking).
	run := func() []Time {
		eng := NewEngine()
		r := rand.New(rand.NewSource(5))
		var seq []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			seq = append(seq, eng.Now())
			if depth < 4 {
				for i := 0; i < 3; i++ {
					eng.Schedule(Duration(r.Intn(1000))*Microsecond, func() { spawn(depth + 1) })
				}
			}
		}
		eng.Schedule(0, func() { spawn(0) })
		eng.Run(MaxTime)
		return seq
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEngineDeterministicUnderCancelChurn(t *testing.T) {
	// Same property as above with heavy cancellation mixed in: lazy
	// deletion, tail reclamation, and compaction must not perturb the
	// (time, seq) firing order — the invariant the byte-identical golden
	// campaign outputs rest on.
	run := func() []Time {
		eng := NewEngine()
		r := rand.New(rand.NewSource(9))
		var seq []Time
		var handles []Handle
		var spawn func(depth int)
		spawn = func(depth int) {
			seq = append(seq, eng.Now())
			if depth < 5 {
				for i := 0; i < 3; i++ {
					h := eng.Schedule(Duration(r.Intn(1000))*Microsecond, func() { spawn(depth + 1) })
					handles = append(handles, h)
				}
				// Cancel pseudo-random handles; stale ones no-op.
				for i := 0; i < 2 && len(handles) > 0; i++ {
					eng.Cancel(handles[r.Intn(len(handles))])
				}
			}
		}
		eng.Schedule(0, func() { spawn(0) })
		eng.Run(MaxTime)
		return seq
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts under cancel churn: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}
