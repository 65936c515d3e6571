package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func smokeOptions(t *testing.T) options {
	return options{dir: ".", out: t.TempDir(), seed: 1, smoke: true}
}

// readDeclared decodes ../BENCHMARK.json strictly: an unknown key anywhere
// is an error, as it is for the driver.
func readDeclared(t *testing.T) (raw map[string]json.RawMessage, bf *benchmarkFile) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var strict struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		benchmarkFile
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&strict); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(strict.Paths) != 1 || strict.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", strict.Paths)
	}
	if strict.RunSeconds < 1 || strict.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", strict.RunSeconds)
	}
	if len(strict.Command) == 0 || len(strict.Command) > 32 {
		t.Errorf("command has %d elements, want 1..32", len(strict.Command))
	}
	return raw, &strict.benchmarkFile
}

func TestBenchmarkFileSchema(t *testing.T) {
	raw, bf := readDeclared(t)
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bf.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json but not in the benchmark", i, w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	setup := false
	for _, list := range [][]metricDecl{bf.EndToEnd, bf.PerLayer} {
		for _, m := range list {
			use(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q breaks the unit rule", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range bf.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// emitted checks that a report carries exactly the declared metrics, each
// with its declared unit and a finite value.
func emitted(t *testing.T, what string, rep *report, declared []metricDecl) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%t failed=%d attempted=%d: %v", what, rep.Correct, rep.Failed, rep.Attempted, rep.notes)
	}
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, m := range rep.Metrics {
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: emits %s, which BENCHMARK.json does not declare", what, name)
		case unit != m.Unit:
			t.Errorf("%s: %s in %q, declared in %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, name, m.Value)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s: declared metric %s is not emitted", what, name)
	}
}

// The same code path as the real run — load, stamp, warm-up, timed pass,
// digest check, fold — for all four workloads, in process and at smoke
// scale.
func TestSmokeEndToEnd(t *testing.T) {
	_, bf := readDeclared(t)
	for _, w := range workloads {
		res, err := runChild(w, smokeOptions(t), 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.Passes) != 1 {
			t.Errorf("%s: %d timed passes at budget 0, want 1", w.name, len(res.Passes))
		}
		rep := foldEndToEnd([]childResult{res})
		emitted(t, w.name, rep, bf.EndToEnd)
		for name, m := range rep.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Value)
			}
		}
	}
}

// One traced run, on the workload with the most code behind it (dispatch):
// every per-layer metric exactly once, the trace file, and the phase and
// share invariants the acceptance criteria name.
func TestSmokeTraced(t *testing.T) {
	_, bf := readDeclared(t)
	opt := smokeOptions(t)
	w := workloadByName("harness-k4")
	rep, err := runTraced(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	emitted(t, "traced "+w.name, rep, bf.PerLayer)

	var share float64
	for _, pkg := range sharePackages {
		share += rep.Metrics["cpu_share."+pkg].Value
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("cpu_share.* sums to %v, want 1", share)
	}
	if rep.Metrics["workload.launch_flow_allocs"].Value != 0 {
		t.Errorf("warm-arena launch allocates %v per flow, want 0", rep.Metrics["workload.launch_flow_allocs"].Value)
	}

	data, err := os.ReadFile(opt.out + "/trace-harness-k4.json")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Dur  float64
			Args struct {
				ID, Parent int
				Workload   string
			}
		}
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	var cell float64
	phases := map[string]float64{}
	for _, e := range trace.TraceEvents {
		if e.Args.Workload != w.name {
			t.Errorf("span %s carries workload %q", e.Name, e.Args.Workload)
		}
		if e.Name == "canonical_cell" {
			cell = e.Dur
		}
		if e.Args.Parent >= 0 && trace.TraceEvents[e.Args.Parent].Name == "canonical_cell" {
			phases[e.Name] += e.Dur
		}
	}
	var covered float64
	for _, name := range []string{"topo.build", "workload.start", "sim.run", "exp.reduce"} {
		if phases[name] == 0 {
			t.Errorf("canonical cell has no %s span", name)
		}
		covered += phases[name]
	}
	if cell == 0 || covered < 0.95*cell {
		t.Errorf("phase spans cover %.0f of the canonical cell's %.0f µs, want >= 95%%", covered, cell)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(v, n=4) for these inputs.
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{3.1, 2.2, 5.5, 1.0, 9.3, 4.4, 7.1, 6.0, 2.9, 8.8}, [3]float64{2.725, 4.95, 7.525}},
		{[]float64{3.1, 2.2, 5.5}, [3]float64{2.2, 3.1, 5.5}},
		{[]float64{3.1, 2.2, 5.5, 1.0, 9.3, 4.4}, [3]float64{1.9, 3.75, 6.45}},
	} {
		q1, q2, q3 := quartiles(tc.v)
		for i, got := range [3]float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", tc.v, i, got, tc.want[i])
			}
		}
	}
}

func TestFoldTop(t *testing.T) {
	top := `File: bench
Type: cpu
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      500ms 50.00%  xmp/internal/sim.(*Engine).Run
     200ms 20.00% 60.00%      200ms 20.00%  xmp/internal/netem.(*Link).OnEvent
     200ms 20.00% 80.00%      200ms 20.00%  encoding/json.(*encodeState).marshal
     100ms 10.00% 90.00%      100ms 10.00%  runtime.mallocgc
      50ms  5.00% 95.00%       50ms  5.00%  internal/runtime/maps.(*Map).getWithKey
      50ms  5.00%   100%       50ms  5.00%  xmp/internal/topo.NewFatTree
`
	got, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.4, "netem": 0.2, "encoding_json": 0.2, "runtime": 0.15, "other": 0.05}
	for pkg, share := range want {
		if math.Abs(got[pkg]-share) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", pkg, got[pkg], share)
		}
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer("w")
	outer := tr.begin("outer")
	tr.end(tr.begin("inner"))
	tr.end(outer)
	self := tr.selfTimes()
	if got, want := self[outer], tr.dur(outer)-tr.dur(outer+1); got != want {
		t.Errorf("outer self time %v, want span minus child = %v", got, want)
	}
	var off *tracer
	off.end(off.begin("ignored")) // tracing off records nothing and does not panic
}
