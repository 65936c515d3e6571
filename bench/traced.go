package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"xmp/internal/exp"
	"xmp/internal/scenario"
)

// runTraced is the traced run of one workload: every per-layer metric,
// spans kept in memory and written to out/trace-<workload>.json at the end.
// Nothing here runs during the end-to-end passes. Stages, in order:
//
//	warm-up + one untraced pass   the reference render and the untraced wall
//	traced pass                   the same pass with spans; GC and heap deltas
//	cells                         every cell as its own shard, serially: per-cell
//	                              wall from outside, encode/merge/render costs
//	pool, dispatch                in-process jobs=2 and dispatched walls against Σcell
//	canonical cell                hand-composed, a span per phase, layer counters
//	chaos                         the chaos workload's cell with and without faults
//	rigs                          workload-independent per-layer micro-rigs
//	profile                       one pass under the CPU profiler, folded by package
func runTraced(w *workloadDef, opt options) (*report, error) {
	rep := &report{Metrics: map[string]metric{}}
	g := &rigs{metrics: rep.Metrics, smoke: opt.smoke}
	tr := newTracer(w.name)

	r, err := w.loadSpec(opt)
	if err != nil {
		return nil, err
	}
	c, err := scenario.Compile(r, "")
	if err != nil {
		return nil, err
	}
	cells := c.Cells()
	how := w.execution(opt.smoke)
	want, err := w.expectedDigest(opt)
	if err != nil {
		return nil, err
	}
	// verify counts one checked render as cells operations. Errors are
	// fatal to a traced run — it is a diagnostic, and a program that cannot
	// finish a pass is reported by the end-to-end run — but a render that
	// differs is a result worth printing.
	verify := func(stage string, text []byte) {
		rep.Attempted += cells
		switch {
		case want == "":
			want = digest(text)
		case digest(text) != want:
			rep.Failed += cells
			rep.notes = append(rep.notes, fmt.Sprintf("%s: render %.12s differs from expected %.12s", stage, digest(text), want))
		}
	}

	text, err := runPass(r, how, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %v", err)
	}
	verify("warm-up pass", text)
	t0 := time.Now()
	text, err = runPass(r, how, nil)
	untraced := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %v", err)
	}
	verify("untraced pass", text)

	gc0 := readGC()
	sp := tr.begin("pass")
	text, err = runPass(r, how, tr)
	tr.end(sp)
	gc1 := readGC()
	if err != nil {
		return nil, fmt.Errorf("traced pass: %v", err)
	}
	verify("traced pass", text)
	g.set("trace.overhead_frac", tr.dur(sp).Seconds()/untraced.Seconds()-1, "ratio")
	g.set("runtime.gc_cpu_frac", ratio(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU), "ratio")
	g.set("runtime.num_gc", float64(gc1.numGC-gc0.numGC), "count")
	g.set("runtime.heap_peak_mb", float64(gc1.heapSys)/(1<<20), "MB")

	text, err = harnessStages(g, r, how.shards, tr)
	if err != nil {
		return nil, err
	}
	verify("per-cell shards, jobs=2 pool and dispatch", text)

	sp = tr.begin("canonical_cell")
	st := runCanonicalCell(r, true, tr)
	tr.end(sp)
	g.cellMetrics(st)

	if err := g.chaosStage(opt); err != nil {
		return nil, err
	}
	g.runAll()

	shares, err := cpuShares(w.name, r, how, opt)
	if err != nil {
		return nil, err
	}
	for _, pkg := range sharePackages {
		g.set("cpu_share."+pkg, shares[pkg], "ratio")
	}

	path, err := tr.write(opt.out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d spans)\n", path, len(tr.spans))
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// gcSample is the runtime's own accounting at one instant.
type gcSample struct {
	gcCPU, totalCPU float64 // cumulative CPU seconds
	numGC           uint32
	heapSys         uint64
}

func readGC() gcSample {
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSample{
		gcCPU:    samples[0].Value.Float64(),
		totalCPU: samples[1].Value.Float64(),
		numGC:    ms.NumGC,
		heapSys:  ms.HeapSys,
	}
}

// harnessStages measures exp, scenario and dispatch from outside. Running
// every cell as its own single-cell shard gives per-cell wall without
// touching the runners; their sum is the yardstick the in-process pool and
// the dispatcher are held against (two simulating goroutines each).
func harnessStages(g *rigs, r *scenario.Spec, shards int, tr *tracer) (text []byte, err error) {
	stage := tr.begin("cells")
	var c *scenario.Compiled
	g.set("scenario.compile_us", perOp(1, func(int) {
		if c, err = scenario.Compile(r, ""); err != nil {
			panic(err)
		}
	})/1e3, "us")
	params := exp.RunParams{Jobs: 1, Scenario: c.JSON}
	g.set("scenario.probe_us", perOp(1, func(int) {
		if _, _, _, err := exp.CampaignProbe(exp.CampaignScenario, params); err != nil {
			panic(err)
		}
	})/1e3, "us")

	n := c.Cells()
	cellWall := make([]float64, n) // milliseconds
	blobs := make([]exp.ShardBlob, n)
	var cellSum, encode time.Duration
	var bytesOut int
	for i := 0; i < n; i++ {
		sp := tr.begin("exp.run_shard")
		enc, err := c.RunShard(exp.ShardSpec{Index: i, Count: n}, 1, nil)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		cellWall[i] = tr.dur(sp).Seconds() * 1e3
		cellSum += tr.dur(sp)
		sp = tr.begin("exp.encode")
		var buf bytes.Buffer
		err = enc.Encode(&buf)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		encode += tr.dur(sp)
		bytesOut += buf.Len()
		blobs[i] = exp.ShardBlob{Name: fmt.Sprintf("shard-%03d.json", i), Data: buf.Bytes()}
	}
	sp := tr.begin("exp.merge")
	merged, err := exp.MergeShardBlobs(blobs)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	g.set("exp.merge_ms", tr.dur(sp).Seconds()*1e3, "ms")
	sp = tr.begin("exp.render")
	var out bytes.Buffer
	merged.Render(&out)
	tr.end(sp)
	g.set("exp.render_ms", tr.dur(sp).Seconds()*1e3, "ms")
	tr.end(stage)

	g.set("exp.cell_ms_p50", median(cellWall), "ms")
	g.set("exp.cell_ms_max", slices.Max(cellWall), "ms")
	g.set("exp.cell_ms_sum", cellSum.Seconds()*1e3, "ms")
	g.set("exp.encode_ms", encode.Seconds()*1e3, "ms")
	g.set("exp.shard_bytes", float64(bytesOut), "bytes")

	// The in-process pool at jobs=2.
	sp = tr.begin("pool_jobs2")
	ref, err := runPass(r, inProcessPool, nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(ref, out.Bytes()) {
		return nil, fmt.Errorf("jobs=2 render differs from the per-cell shards' merge")
	}
	g.set("exp.pool_efficiency", cellSum.Seconds()/(2*tr.dur(sp).Seconds()), "ratio")

	// The dispatcher: same spec, 2 loopback workers.
	sp = tr.begin("dispatch.dispatch")
	res, err := dispatchCompiled(c, dispatchWorkers, shards)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var dtext bytes.Buffer
	res.Merged.Render(&dtext)
	if !bytes.Equal(dtext.Bytes(), out.Bytes()) {
		return nil, fmt.Errorf("dispatched render differs from the in-process render")
	}
	var resultBytes int
	for _, b := range res.Blobs {
		resultBytes += len(b.Data)
	}
	g.set("dispatch.overhead_frac", 1-cellSum.Seconds()/(2*tr.dur(sp).Seconds()), "ratio")
	g.set("dispatch.result_bytes", float64(resultBytes), "bytes")
	g.set("dispatch.reassigned", float64(res.Reassigned), "count")

	// One single-cell task, submit to result, minus that cell's own time:
	// the spec cut down to its first cell, which is cell 0 above.
	one := *r
	if one.Family != scenario.FamilyRobustness {
		one.Workloads = one.Workloads[:1]
	}
	if one.Family != scenario.FamilyFCT {
		one.Schemes = one.Schemes[:1]
	}
	c1, err := scenario.Compile(&one, "")
	if err != nil {
		return nil, err
	}
	sp = tr.begin("dispatch.roundtrip")
	_, err = dispatchCompiled(c1, 1, 1)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	g.set("dispatch.roundtrip_ms", tr.dur(sp).Seconds()*1e3-cellWall[0], "ms")
	return out.Bytes(), nil
}

// chaosStage runs the chaos workload's canonical cell with its fault
// schedule and with none. It is fixed to that workload's spec so the three
// chaos metrics mean the same thing in every traced run.
func (g *rigs) chaosStage(opt options) error {
	r, err := workloadByName("chaos-k8").loadSpec(opt)
	if err != nil {
		return err
	}
	g.chaosInstall(r.Chaos.Schedule())
	with := runCanonicalCell(r, true, nil)
	without := runCanonicalCell(r, false, nil)
	g.set("chaos.applied", float64(with.applied), "count")
	g.set("chaos.tax_frac", with.wall().Seconds()/without.wall().Seconds()-1, "ratio")
	return nil
}

// sharePackages are the buckets of the CPU budget; everything not named
// lands in "other".
var sharePackages = []string{"sim", "netem", "transport", "cc", "core", "mptcp", "workload", "metrics", "exp", "runtime", "encoding_json", "other"}

// cpuShares runs one pass under the CPU profiler at 500 Hz and folds the
// leaf samples by package, from the text `go tool pprof -top` prints. The
// shares sum to 1.
func cpuShares(name string, r *scenario.Spec, how execution, opt options) (map[string]float64, error) {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(opt.out, "cpu-"+name+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// StartCPUProfile insists on 100 Hz unless a rate is already set; the
	// runtime then logs that it "cannot set cpu profile rate" and keeps
	// ours. A pass is seconds long, and 100 Hz would give the small layers
	// a handful of samples each.
	runtime.SetCPUProfileRate(500)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	_, passErr := runPass(r, how, nil)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if passErr != nil {
		return nil, fmt.Errorf("profiled pass: %v", passErr)
	}
	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v", err)
	}
	return foldTop(string(top))
}

// foldTop sums the flat column of pprof's -top table per package bucket.
func foldTop(top string) (map[string]float64, error) {
	_, table, ok := strings.Cut(top, "flat%")
	if !ok {
		return nil, fmt.Errorf("go tool pprof: no -top table in %q", top)
	}
	flat := map[string]float64{}
	var total float64
	for _, line := range strings.Split(table, "\n")[1:] {
		fields := strings.Fields(line)
		if len(fields) < 6 {
			continue
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: flat time %q: %v", fields[0], err)
		}
		flat[shareBucket(fields[5])] += d.Seconds()
		total += d.Seconds()
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: the profile holds no samples")
	}
	for pkg := range flat {
		flat[pkg] /= total
	}
	return flat, nil
}

// shareBucket maps a pprof symbol such as xmp/internal/sim.(*Engine).Run
// or encoding/json.(*encodeState).marshal to its budget bucket.
func shareBucket(symbol string) string {
	pkg := symbol
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		// Cut the package path's last element at its first dot: what
		// follows is the receiver or function name.
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, "xmp/internal/"); ok {
		for _, known := range sharePackages {
			if name == known {
				return name
			}
		}
	}
	return "other"
}
