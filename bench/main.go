// Command bench is the repository benchmark: four scenario-spec workloads
// driven through the path `xmpsim run` takes (scenario load/compile →
// RunShard → Encode → MergeShardBlobs → Render, or dispatch.Dispatch for
// the harness workload), reporting end-to-end metrics with tracing off and,
// in a separate traced run, per-layer metrics measured from outside by
// timing calls into the layers' public functions.
//
//	go run ./bench                                  every workload, end to end
//	go run ./bench -workload bulk-k8 -seed 2        one workload, one seed
//	go run ./bench -workload bulk-k8 -trace 1       per-layer metrics + bench/out/trace-bulk-k8.json
//	go run ./bench -selfcheck -runs 10              two sets of runs against the bounds in BENCHMARK.json
//	go run ./bench -update-expected -seed 1         re-pin bench/expected/*.seed1.sha256
//
// The last line of standard output is one JSON object (correct, attempted,
// failed, metrics); everything above it is for people. BENCHMARK.json at
// the repository root declares the workloads, metrics and bounds; README.md
// beside this file says what each metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// processStart anchors setup_s: package initialization is the closest the
// program gets to its own exec.
var processStart = time.Now()

// options are the knobs shared by every mode.
type options struct {
	dir     string  // the bench directory (workloads/, expected/)
	out     string  // where traces, profiles and selfcheck records go
	seed    int64   // stamped into scale.seed and chaos.seed
	seconds float64 // timed measurement per workload, split across the children
	smoke   bool    // k=4, 5 ms horizons, tiny rigs: the bench_test.go scale
}

// children is how many fresh processes measure one workload. Each sets up
// once (load, compile, probe, warm-up pass) and then runs timed passes for
// its share of -seconds, so one run yields several set-up samples and
// peak_rss_mb is per process.
const children = 3

func main() {
	var (
		opt            options
		workload       = flag.String("workload", "", "workload to run (default: all): "+strings.Join(workloadNames(), ", "))
		trace          = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, spans written to bench/out/trace-<workload>.json")
		child          = flag.Bool("child", false, "internal: measure one workload in this process and print a childResult")
		selfcheck      = flag.Bool("selfcheck", false, "run the end-to-end set twice and compare against the bounds in BENCHMARK.json")
		runs           = flag.Int("runs", 1, "selfcheck: runs per set, each with its own seed (10 reproduces the acceptance procedure)")
		updateExpected = flag.Bool("update-expected", false, "write bench/expected/<workload>.seed<N>.sha256 for -seed")
	)
	flag.StringVar(&opt.dir, "dir", "", "bench directory (default: ./bench, or . when run from inside it)")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed, written into scale.seed and chaos.seed")
	flag.Float64Var(&opt.seconds, "seconds", 18, "seconds of timed passes per workload")
	flag.BoolVar(&opt.smoke, "smoke", false, "smoke scale: k=4, 5 ms horizons, one pass, tiny rigs")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if opt.dir == "" {
		opt.dir = findBenchDir()
	}
	opt.out = filepath.Join(opt.dir, "out")

	selected := workloads
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fatalf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
		}
		selected = []*workloadDef{w}
	}

	switch {
	case *child:
		if len(selected) != 1 {
			fatalf("-child needs -workload")
		}
		res, err := runChild(selected[0], opt, opt.seconds)
		if err != nil {
			fatalf("%s: %v", selected[0].name, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
	case *updateExpected:
		for _, w := range selected {
			if err := pinExpected(w, opt); err != nil {
				fatalf("%s: %v", w.name, err)
			}
		}
	case *selfcheck:
		if !runSelfcheck(selected, opt, *runs) {
			os.Exit(1)
		}
	default:
		// A failed operation is a result (correct: false on the last line),
		// not a crash: the exit code stays 0 once a result is printed.
		for _, w := range selected {
			stamp := newMachineStamp()
			var rep *report
			var err error
			if *trace != 0 {
				rep, err = runTraced(w, opt)
			} else {
				rep, err = runEndToEnd(w, opt)
			}
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			stamp.finish()
			rep.print(os.Stdout, w, opt, *trace != 0, stamp)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// findBenchDir locates the directory holding workloads/: ./bench from the
// repository root (how the driver and `go run ./bench` start it), or the
// working directory itself under `go test`.
func findBenchDir() string {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(dir, "workloads")); err == nil {
			return dir
		}
	}
	fatalf("cannot find bench/workloads from the working directory; pass -dir")
	return ""
}

// metric is one reported number. N, IQR and Median describe the samples
// behind it; they stay zero for counts and single measurements.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"-"`
	IQR    float64 `json:"-"`
	Median float64 `json:"-"` // set only where Value is not the median
}

// report is what one workload's run prints. Its JSON form is the contract's
// last line: exactly correct, attempted, failed and metrics.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes  []string  // why a pass failed, for the human part of the output
	passes []float64 // every timed pass's wall seconds, in order
}

func (r *report) print(out *os.File, w *workloadDef, opt options, traced bool, stamp *machineStamp) {
	fmt.Fprintf(out, "# bench workload=%s seed=%d seconds=%g trace=%t smoke=%t\n", w.name, opt.seed, opt.seconds, traced, opt.smoke)
	fmt.Fprintf(out, "# %s\n", stamp)
	if stamp.noisy() {
		fmt.Fprintf(os.Stderr, "bench: noisy_host: 1-min load %.2f at start, %.2f at end on %d cores; something else is using this machine and timings are suspect\n",
			stamp.loadStart, stamp.loadEnd, stamp.nproc)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-32s %16s %-8s %3s %s\n", "metric", "value", "unit", "n", "iqr")
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-32s %16.6g %-8s", name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" %3d %.4g", m.N, m.IQR)
		}
		if m.Median != 0 {
			line += fmt.Sprintf("  (median %.6g)", m.Median)
		}
		fmt.Fprintln(out, line)
	}
	if len(r.passes) > 0 {
		fmt.Fprintf(out, "timed_pass_wall_s=%.4f\n", r.passes)
	}
	fmt.Fprintf(out, "ops_attempted=%d ops_failed=%d failed_frac=%g\n", r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, n := range r.notes {
		fmt.Fprintf(out, "FAILED: %s\n", n)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(out, "%s\n", line)
}
