// Package sim provides the discrete-event simulation engine that underpins
// the XMP reproduction: a 64-bit nanosecond clock, an event calendar of
// constant-delay lanes plus one heap, cancellable timers and deterministic
// random-number streams.
//
// The engine is intentionally single-threaded: every experiment is a pure
// function of (configuration, seed), which makes runs reproducible and lets
// the test-suite assert exact packet-level behaviour.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulated point in time, in nanoseconds since the start of the
// run. It is a distinct type so that wall-clock time.Time and simulated time
// cannot be confused.
type Time int64

// Duration is a span of simulated time in nanoseconds. It converts freely
// to and from time.Duration (also nanoseconds).
type Duration = time.Duration

// Common durations re-exported for readability at call sites.
const (
	Nanosecond  Duration = time.Nanosecond
	Microsecond Duration = time.Microsecond
	Millisecond Duration = time.Millisecond
	Second      Duration = time.Second
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// String formats the time as seconds with microsecond precision, e.g.
// "12.000345s".
func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}
