// Package chaos injects scripted faults into a running simulation: link
// flaps, whole-switch failures, loss bursts and asymmetric extra
// delay/jitter. Fault events are ordinary calendar events on the same
// sim.Engine as the traffic they disturb, so a (schedule, seed) pair pins
// the interleaving of faults and packets exactly — every run is
// bit-reproducible, which is what lets the robustness campaign shard,
// dispatch and golden-diff like the steady-state ones.
package chaos

import (
	"encoding/json"
	"fmt"
	"math"

	"xmp/internal/sim"
)

// Kind names a fault event type. The string values are the JSON encoding,
// chosen to read well in declarative scenario files (ROADMAP item 4).
type Kind string

// Supported fault kinds. Every event lasts Dur (> 0) and heals itself when
// its window closes, so a schedule can never leave a fault standing.
const (
	// LinkDown administratively downs one link (netem.Link.SetDown) for
	// Dur — a flap: the queue drains, in-flight serializations die, sends
	// are discarded, and the link re-opens when the window closes.
	LinkDown Kind = "link-down"
	// SwitchDown fails a whole switch for Dur by downing every link
	// attached to it, ingress and egress.
	SwitchDown Kind = "switch-down"
	// LossBurst re-arms the drop probability of the link's netem.Lossy
	// queue wrapper to P for Dur, then restores the previous probability.
	// The target link's queue must be (or wrap to) a *netem.Lossy.
	LossBurst Kind = "loss-burst"
	// ExtraDelay adds Extra to the link's propagation delay for Dur — the
	// asymmetric-path fault: applied to one direction of a pair, it skews
	// RTT and reordering on that path only.
	ExtraDelay Kind = "extra-delay"
	// Jitter resamples the link's extra delay uniformly in [0, Extra] every
	// Period for Dur, from the schedule-seeded RNG. Requires Period > 0.
	Jitter Kind = "jitter"
)

// Event is one scripted fault. At is the offset from Injector.Install;
// which other fields apply depends on Kind (see the Kind docs).
type Event struct {
	At     sim.Duration `json:"at"`
	Kind   Kind         `json:"kind"`
	Target string       `json:"target"`
	Dur    sim.Duration `json:"dur,omitempty"`
	P      float64      `json:"p,omitempty"`
	Extra  sim.Duration `json:"extra,omitempty"`
	Period sim.Duration `json:"period,omitempty"`
}

// Schedule is a deterministic fault script: a seed for the chaos layer's
// own randomness (jitter resampling) and the ordered event list. It is
// plain data — JSON-serializable for declarative campaign specs.
type Schedule struct {
	Seed   int64   `json:"seed"`
	Events []Event `json:"events"`
}

// Validate checks every event for structural problems: unknown kinds,
// negative times, a window that is not positive (every fault heals after
// its dur, so one without dur would stand for the rest of the run and a
// flow crossing it could never finish), out-of-range probabilities,
// jitter without a period, and an end past the simulation clock's int64
// nanoseconds — at + dur, and for jitter at + dur + period, which bounds
// its last resample — where the calendar would wrap into the past. Target
// names are resolved later, against a concrete network, by New.
func (s Schedule) Validate() error {
	for i, e := range s.Events {
		if e.At < 0 {
			return fmt.Errorf("chaos: event %d: negative at %v", i, e.At)
		}
		if e.Dur <= 0 {
			return fmt.Errorf("chaos: event %d (%s %s): dur %v, want > 0", i, e.Kind, e.Target, e.Dur)
		}
		if e.Target == "" {
			return fmt.Errorf("chaos: event %d: empty target", i)
		}
		switch e.Kind {
		case LinkDown, SwitchDown:
		case LossBurst:
			if e.P < 0 || e.P >= 1 {
				return fmt.Errorf("chaos: event %d: loss probability %v out of [0,1)", i, e.P)
			}
		case ExtraDelay:
			if e.Extra < 0 {
				return fmt.Errorf("chaos: event %d: negative extra %v", i, e.Extra)
			}
		case Jitter:
			if e.Extra <= 0 || e.Period <= 0 {
				return fmt.Errorf("chaos: event %d: jitter needs extra and period > 0", i)
			}
		default:
			return fmt.Errorf("chaos: event %d: unknown kind %q", i, e.Kind)
		}
		end, ok := sum(e.At, e.Dur)
		what := "at + dur"
		if ok && e.Kind == Jitter {
			_, ok = sum(end, e.Period)
			what = "at + dur + period"
		}
		if !ok {
			return fmt.Errorf("chaos: event %d: %s overflows the int64 nanosecond clock", i, what)
		}
	}
	return nil
}

// sum adds two non-negative durations, reporting false if the sum
// overflows.
func sum(a, b sim.Duration) (sim.Duration, bool) {
	if b > math.MaxInt64-a {
		return 0, false
	}
	return a + b, true
}

// MarshalJSON/ParseSchedule round-trip the schedule through its JSON form.
func (s Schedule) MarshalJSON() ([]byte, error) {
	type plain Schedule // avoid recursing into this method
	return json.Marshal(plain(s))
}

// ParseSchedule decodes and validates a JSON schedule.
func ParseSchedule(data []byte) (Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return Schedule{}, fmt.Errorf("chaos: %v", err)
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}
