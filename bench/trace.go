package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer was created
	parent     int           // index of the enclosing span, -1 at top level
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the end-to-end passes run with tracing off through
// the same code as the traced pass. Single goroutine only: spans wrap the
// calls the benchmark itself makes, never the workers' goroutines.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of open span indices
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: spans must close innermost first")
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// dur returns a closed span's duration.
func (t *tracer) dur(id int) time.Duration { return t.spans[id].end - t.spans[id].start }

// selfTimes returns, per span, its duration minus the part its direct
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// write dumps the spans in Chrome trace-event format (chrome://tracing,
// https://ui.perfetto.dev): one complete ("X") event per span, with the
// parent index, the workload id and the self time in args.
func (t *tracer) write(out string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := t.selfTimes()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{
				"id": i, "parent": s.parent, "workload": t.workload,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		}
	}
	data, err := json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(out, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
