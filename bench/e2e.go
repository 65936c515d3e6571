package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"xmp/internal/scenario"
)

// childResult is what one measuring process reports to its parent.
type childResult struct {
	SetupS     float64   `json:"setup_s"`     // process start to first timed pass
	Passes     []float64 `json:"passes"`      // wall seconds of each timed pass
	Cells      int       `json:"cells"`       // cells per pass
	SimMS      float64   `json:"sim_ms"`      // cells x resolved duration_ms, per pass
	Mallocs    uint64    `json:"mallocs"`     // runtime.MemStats delta over the timed passes
	AllocBytes uint64    `json:"alloc_bytes"` // likewise TotalAlloc
	PeakRSSKB  int64     `json:"peak_rss_kb"` // VmHWM at exit
	Failed     int       `json:"failed"`      // cells of failed passes
	Notes      []string  `json:"notes,omitempty"`
}

// runChild measures one workload in this process: set-up (spec load,
// resolve, pins, warm-up pass), then timed passes until budget seconds of
// them have run. Tracing is off throughout. A set-up that cannot complete
// is an error — there is nothing to measure; a pass that fails, or renders
// something other than the pin (or, unpinned, the warm-up), fails its cells.
func runChild(w *workloadDef, opt options, budget float64) (childResult, error) {
	var res childResult
	r, err := w.loadSpec(opt)
	if err != nil {
		return res, err
	}
	c, err := scenario.Compile(r, "")
	if err != nil {
		return res, err
	}
	res.Cells = c.Cells()
	res.SimMS = float64(res.Cells) * r.DurationMS
	want, err := w.expectedDigest(opt)
	if err != nil {
		return res, err
	}

	// Warm-up: untimed, fills the heap, the pools and the page cache. For
	// the dispatched workload it is the in-process render the dispatched
	// passes must reproduce.
	how := w.execution(opt.smoke)
	warmUp := how
	if w.dispatched {
		warmUp = inProcessPool
	}
	warm, err := runPass(r, warmUp, nil)
	if err != nil {
		return res, fmt.Errorf("warm-up pass: %v", err)
	}
	if want == "" {
		want = digest(warm)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res.SetupS = time.Since(processStart).Seconds()
	start := time.Now()
	for {
		t0 := time.Now()
		text, err := runPass(r, how, nil)
		wall := time.Since(t0).Seconds()
		res.Passes = append(res.Passes, wall)
		switch {
		case err != nil:
			res.Failed += res.Cells
			res.Notes = append(res.Notes, fmt.Sprintf("pass %d: %v", len(res.Passes), err))
		case digest(text) != want:
			res.Failed += res.Cells
			res.Notes = append(res.Notes, fmt.Sprintf("pass %d: render %.12s differs from expected %.12s", len(res.Passes), digest(text), want))
		}
		// Stop once another pass would overshoot the budget by more than it
		// undershoots now.
		if time.Since(start).Seconds()+wall/2 >= budget {
			break
		}
	}
	runtime.ReadMemStats(&after)
	res.Mallocs = after.Mallocs - before.Mallocs
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.PeakRSSKB = peakRSSKB()
	return res, nil
}

// peakRSSKB reads this process's resident-set high-water mark.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 { // "  31232 kB"
				kb, _ := strconv.ParseInt(fields[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// runEndToEnd measures one workload in fresh child processes and folds
// their results into the end-to-end metrics.
func runEndToEnd(w *workloadDef, opt options) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := make([]childResult, 0, children)
	for i := 0; i < children; i++ {
		args := []string{"-child", "-workload", w.name, "-dir", opt.dir,
			"-seed", strconv.FormatInt(opt.seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds/children, 'g', -1, 64)}
		if opt.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		var out bytes.Buffer
		cmd.Stdout = &out
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("child %d: %v", i, err)
		}
		var res childResult
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("child %d: bad result %q: %v", i, out.String(), err)
		}
		results = append(results, res)
	}
	return foldEndToEnd(results), nil
}

// foldEndToEnd turns the children's samples into the end-to-end metrics.
// wall_s is the fastest timed pass, not the median: passes are
// deterministic repeats of the same work, so everything above the minimum is
// the machine — GC phase, the other tenants of a shared box — and on the
// machine this was sized on the minimum of nine passes is two to three
// times steadier from run to run than their median. The median and the
// IQR are printed beside it.
func foldEndToEnd(results []childResult) *report {
	rep := &report{Metrics: map[string]metric{}}
	var setups, passes, rss []float64
	var mallocs, allocBytes uint64
	var cellsRun int
	for _, res := range results {
		setups = append(setups, res.SetupS)
		passes = append(passes, res.Passes...)
		rss = append(rss, float64(res.PeakRSSKB)/1024)
		mallocs += res.Mallocs
		allocBytes += res.AllocBytes
		cellsRun += res.Cells * len(res.Passes)
		rep.Failed += res.Failed
		rep.notes = append(rep.notes, res.Notes...)
	}
	rep.Attempted = cellsRun
	rep.passes = passes
	rep.Correct = rep.Failed == 0
	wall := slices.Min(passes)
	rep.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups), IQR: iqr(setups)}
	rep.Metrics["wall_s"] = metric{Value: wall, Unit: "s", N: len(passes), IQR: iqr(passes), Median: median(passes)}
	rep.Metrics["sim_ms_per_wall_s"] = metric{Value: results[0].SimMS / wall, Unit: "ms/s", N: len(passes)}
	rep.Metrics["peak_rss_mb"] = metric{Value: median(rss), Unit: "MB", N: len(rss), IQR: iqr(rss)}
	rep.Metrics["allocs_per_cell"] = metric{Value: float64(mallocs) / float64(cellsRun), Unit: "count"}
	rep.Metrics["alloc_mb_per_cell"] = metric{Value: float64(allocBytes) / float64(cellsRun) / (1 << 20), Unit: "MB"}
	return rep
}
