// Command xmpsim regenerates the tables and figures of "Explicit
// Multipath Congestion Control for Data Center Networks" (CoNEXT 2013)
// on the library's discrete-event simulator.
//
// Usage:
//
//	xmpsim fig1|fig4|fig6|fig7|table1|table2|table3|fig8|fig9|fig10|fig11|ablation|sweep|all [flags]
//
// Experiments run at a reduced default scale (see EXPERIMENTS.md); use
// -timescale and -sizescale to move toward the paper's magnitudes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"xmp/internal/dispatch"
	"xmp/internal/exp"
	"xmp/internal/scenario"
	"xmp/internal/sim"
)

func usage() {
	fmt.Fprintf(os.Stderr, `xmpsim — reproduce the XMP (CoNEXT'13) evaluation

Subcommands:
  fig1      DCTCP vs fixed halving under threshold marking (4-flow bottleneck)
  fig4      TraSh traffic shifting on the two-DN testbed (beta 4 vs 6)
  fig6      fairness across subflow counts on one bottleneck (beta 4 vs 6)
  fig7      rate compensation on the 5-bottleneck torus (3 beta/K settings)
  table1    average goodput: 5 schemes x 3 fat-tree patterns
  table2    coexistence goodput: XMP vs LIA/TCP/DCTCP at queue 50/100
  table3    incast job completion times (avg, >300ms)
  fig8      goodput CDFs and locality percentiles
  fig9      job completion time CDFs
  fig10     RTT distributions by locality
  fig11     link utilization by layer
  matrix    run the full pattern x scheme matrix once; print tables 1,3 + figs 8-11
  ablation  marking-rule / echo-mode / cwr-guard ablations
  sweep     XMP goodput vs subflow count (1,2,4,8)
  params    (beta, K) sensitivity grid (the paper's future-work study)
  incastsweep  job completion vs fan-in (4..32 servers)
  sack      SACK vs NewReno ablation for the loss-based schemes
  vl2       scheme comparison on a VL2 Clos fabric (generalization)
  fct       short-flow FCT percentiles: Pareto web-search/data-mining loops
            and a 10,240-sender incast burst under TCP/DCTCP/XMP-2
  robustness  scheme comparison under a deterministic fault schedule (link
            flap, switch failure, loss burst, delay, jitter)
  all       everything above
  run       execute a declarative scenario spec (xmpsim run [flags] FILE.json);
            -validate dry-runs it (parse, validate, resolve chaos targets,
            print the cell enumeration and config hash)
  campaigns list registered campaigns (cells, config hash, description);
            scenario spec files named as arguments are compiled and listed too
  merge     reassemble per-shard -json exports into the full campaign output
  worker    serve the shard-task API for "xmpsim dispatch" (-listen :port)
  dispatch  run a campaign across workers (-workers h:p,h:p -campaign NAME
            -shards N); with no -workers, spawns -local N local workers;
            -campaign FILE.json dispatches a declarative scenario

Campaign subcommands (matrix, table2, ablation, sweep, params,
incastsweep, sack, vl2, fct, robustness) and "run" accept -shard i/n to run only the cells owned by
shard i of n; the shard file written by -json is the output, and
"xmpsim merge shard-*.json" rebuilds tables byte-identical to an
unsharded run. merge also accepts glob patterns and directories (every
*.json inside, e.g. the dispatch -outdir).

matrix, fct and robustness are the specs scenarios/<name>.json, embedded
in the binary: "xmpsim matrix" is "xmpsim run scenarios/matrix.json" with
-timescale, -sizescale, -seed and -k overlaid (fct and robustness take
-timescale only), and at default flags their shard files merge with the
spec file's. table1, table3 and fig8-11 are that spec with one table
selected.

Flags (after the subcommand):
`)
	flag.PrintDefaults()
}

var (
	timescale = flag.Float64("timescale", 1, "multiply run durations (10 approaches the paper's)")
	sizescale = flag.Int64("sizescale", 16, "divide the paper's flow sizes by this factor")
	seed      = flag.Int64("seed", 1, "workload random seed")
	kary      = flag.Int("k", 8, "fat-tree arity")
	quiet     = flag.Bool("q", false, "suppress per-run progress lines")
	jobs      = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel workers for independent experiment cells")
	jsonOut   = flag.String("json", "", "also write machine-readable results to this file (matrix/table1/table2/fig8-11)")
	shardStr  = flag.String("shard", "", "run only shard i/n of a campaign's cells (e.g. 1/4); requires -json, which then receives the shard file for `xmpsim merge`")

	// worker flags.
	listenAddr = flag.String("listen", "127.0.0.1:0", "worker: address to serve the shard-task API on")
	exitAfter  = flag.Int("exit-after", 0, "worker: fault injection — exit the process when task number N completes its first cell")

	// dispatch flags.
	workersStr   = flag.String("workers", "", "dispatch: comma-separated worker addresses (host:port); empty spawns -local workers")
	localWorkers = flag.Int("local", 2, "dispatch: local worker subprocesses to spawn when -workers is empty")
	campaignName = flag.String("campaign", "", "dispatch: campaign to run (matrix, table2, ablation, sweep, params, incastsweep, sack, vl2, fct, robustness)")
	shardCount   = flag.Int("shards", 0, "dispatch: shard tasks to partition the campaign into (default: one per worker)")
	outDir       = flag.String("outdir", "", "dispatch: also write the per-shard artifacts (shard-N.json) into this directory")
	taskTimeout  = flag.Duration("task-timeout", 0, "dispatch: per-attempt timeout (default: derived from campaign scale)")
	stallTimeout = flag.Duration("stall-timeout", 0, "dispatch: heartbeat stall timeout (default: derived from campaign scale)")

	// Profiling hooks for the hot-path work: point any of these at a file
	// and inspect with `go tool pprof` / `go tool trace`.
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile (after GC, at exit) to this file")
	execTrace  = flag.String("trace", "", "write a runtime execution trace of the run to this file")
)

// startProfiling begins CPU profiling and execution tracing when requested
// and returns the matching teardown. The heap profile is captured in the
// teardown so it reflects end-of-run live memory.
func startProfiling() func() {
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmpsim: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "xmpsim: %v\n", err)
			os.Exit(1)
		}
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmpsim: %v\n", err)
			os.Exit(1)
		}
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "xmpsim: %v\n", err)
			os.Exit(1)
		}
	}
	return func() {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
			fmt.Fprintf(os.Stderr, "wrote %s\n", *cpuprofile)
		}
		if *execTrace != "" {
			rtrace.Stop()
			fmt.Fprintf(os.Stderr, "wrote %s\n", *execTrace)
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xmpsim: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "xmpsim: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *memprofile)
		}
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	flag.CommandLine.Parse(os.Args[2:])
	flag.Usage = usage

	stopProfiling := startProfiling()
	start := time.Now()
	// run's campaign comes from the spec file, not the subcommand name, so
	// it applies -shard itself (runCompiled) instead of through the registry
	// dispatch below.
	if cmd == "run" {
		runRun()
		stopProfiling()
		fmt.Fprintf(os.Stderr, "\n[%s completed in %v]\n", cmd, time.Since(start).Round(time.Millisecond))
		return
	}
	if spec, sharded := shardSpec(cmd); sharded {
		runShardCampaign(cmd, spec)
		stopProfiling()
		fmt.Fprintf(os.Stderr, "\n[%s completed in %v]\n", cmd, time.Since(start).Round(time.Millisecond))
		return
	}
	switch cmd {
	case "fig1":
		runFig1()
	case "fig4":
		runFig4()
	case "fig6":
		runFig6()
	case "fig7":
		runFig7()
	case "table1", "table3", "fig8", "fig9", "fig10", "fig11", "matrix", "fct", "robustness":
		runSpecCampaign(cmd)
	case "table2":
		runTable2()
	case "ablation":
		runAblation()
	case "sweep":
		runSweep()
	case "params":
		exp.RenderParamSweep(os.Stdout, exp.RunParamSweep(nil, nil, scaleT(100*sim.Millisecond), *jobs, progress()))
	case "incastsweep":
		exp.RenderIncastSweep(os.Stdout, exp.RunIncastSweep(nil, scaleT(200*sim.Millisecond), *jobs, progress()))
	case "sack":
		exp.RenderSACKAblation(os.Stdout, exp.RunSACKAblation(scaleT(100*sim.Millisecond), *jobs, progress()))
	case "vl2":
		exp.RenderVL2(os.Stdout, exp.RunVL2Comparison(nil, scaleT(100*sim.Millisecond), *jobs, progress()))
	case "campaigns":
		runCampaigns()
	case "merge":
		runMerge()
	case "worker":
		runWorker()
	case "dispatch":
		runDispatch()
	case "all":
		runFig1()
		runFig4()
		runFig6()
		runFig7()
		runSpecCampaign("matrix")
		runTable2()
		runAblation()
		runSweep()
		exp.RenderParamSweep(os.Stdout, exp.RunParamSweep(nil, nil, scaleT(100*sim.Millisecond), *jobs, progress()))
		exp.RenderIncastSweep(os.Stdout, exp.RunIncastSweep(nil, scaleT(200*sim.Millisecond), *jobs, progress()))
		exp.RenderSACKAblation(os.Stdout, exp.RunSACKAblation(scaleT(100*sim.Millisecond), *jobs, progress()))
		exp.RenderVL2(os.Stdout, exp.RunVL2Comparison(nil, scaleT(100*sim.Millisecond), *jobs, progress()))
		runSpecCampaign("fct")
		runSpecCampaign("robustness")
	default:
		usage()
		os.Exit(2)
	}
	stopProfiling()
	fmt.Fprintf(os.Stderr, "\n[%s completed in %v]\n", cmd, time.Since(start).Round(time.Millisecond))
}

func scaleT(d sim.Duration) sim.Duration {
	return sim.Duration(float64(d) * *timescale)
}

func progress() *os.File {
	if *quiet {
		return nil
	}
	return os.Stderr
}

func runFig1() {
	for _, panel := range []struct {
		mode exp.Fig1Mode
		k    int
	}{
		{exp.Fig1DCTCP, 10}, {exp.Fig1DCTCP, 20},
		{exp.Fig1Halving, 10}, {exp.Fig1Halving, 20},
	} {
		r := exp.RunFig1(exp.Fig1Config{Mode: panel.mode, K: panel.k, Interval: scaleT(sim.Second)})
		r.Render(os.Stdout)
		fmt.Println()
	}
}

func runFig4() {
	for _, beta := range []int{4, 6} {
		r := exp.RunFig4(exp.Fig4Config{Beta: beta, Phase: scaleT(2 * sim.Second)})
		r.Render(os.Stdout)
		fmt.Println()
	}
}

func runFig6() {
	for _, beta := range []int{4, 6} {
		r := exp.RunFig6(exp.Fig6Config{Beta: beta, Unit: scaleT(sim.Second)})
		r.Render(os.Stdout)
		fmt.Println()
	}
}

func runFig7() {
	for _, setting := range exp.Fig7Settings {
		r := exp.RunFig7(exp.Fig7Config{Setting: setting, Unit: scaleT(sim.Second)})
		r.Render(os.Stdout)
		fmt.Println()
	}
}

func runTable2() {
	// Both switch models for non-ECT traffic: the coexistence outcome
	// hinges on whether loss-based flows may fill the buffer past K (see
	// EXPERIMENTS.md). The campaign spans both variants; rendering is
	// shared with `xmpsim merge`, which must reproduce it byte for byte.
	f := exp.RunTable2Campaign(exp.Table2Config{
		KAry:      *kary,
		SizeScale: *sizescale,
		Seed:      *seed,
		Duration:  scaleT(200 * sim.Millisecond),
		Jobs:      *jobs,
	}, exp.Unsharded, progress())
	rs, err := exp.MergeTable2Shards([]*exp.ShardFile[exp.Table2Cell]{f})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim: %v\n", err)
		os.Exit(1)
	}
	// -json keeps exporting the RED-strict variant, as before.
	writeJSON(func(w *os.File) error { return rs[1].WriteJSON(w) })
	exp.RenderTable2Campaign(os.Stdout, rs)
}

// writeJSON emits machine-readable results when -json is set.
func writeJSON(write func(*os.File) error) {
	if *jsonOut == "" {
		return
	}
	f, err := os.Create(*jsonOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
}

func runAblation() {
	exp.RenderAblations(os.Stdout, exp.RunAblations(10, *jobs))
}

// shardSpec parses -shard. It rejects the flag on subcommands that are
// neither campaigns nor run (one-off figures, the derived table1/fig8-11
// views, all, merge) and insists on -json: a shard run's product is the shard file,
// not a partial table.
func shardSpec(cmd string) (exp.ShardSpec, bool) {
	if *shardStr == "" {
		return exp.Unsharded, false
	}
	switch cmd {
	case "matrix", "table2", "ablation", "sweep", "params", "incastsweep", "sack", "vl2", "fct", "robustness", "run":
	default:
		fmt.Fprintf(os.Stderr, "xmpsim: -shard applies to campaign subcommands (matrix, table2, ablation, sweep, params, incastsweep, sack, vl2, fct, robustness), not %q\n", cmd)
		os.Exit(2)
	}
	spec, err := exp.ParseShardSpec(*shardStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut == "" {
		fmt.Fprintln(os.Stderr, "xmpsim: -shard requires -json FILE to receive the shard file")
		os.Exit(2)
	}
	return spec, true
}

// campaignParams packages the CLI flags into the campaign registry's
// parameter struct — the same struct a dispatch coordinator ships to
// remote workers, so a local -shard run and a dispatched one execute
// identical configurations.
func campaignParams() exp.RunParams {
	return exp.RunParams{
		Timescale: *timescale,
		SizeScale: *sizescale,
		Seed:      *seed,
		K:         *kary,
		Jobs:      *jobs,
	}
}

// runShardCampaign runs one shard of a campaign through the registry and
// writes its shard file to -json. Flags shape the campaign exactly as the
// unsharded subcommand's, so merged output matches an unsharded run byte
// for byte.
func runShardCampaign(cmd string, spec exp.ShardSpec) {
	data, _, err := exp.RunCampaignShard(cmd, campaignParams(), spec, progress())
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim: %v\n", err)
		os.Exit(1)
	}
	writeJSON(func(w *os.File) error {
		_, err := w.Write(data)
		return err
	})
}

// runWorker serves the dispatch shard-task API until killed. The
// announcement line on stdout carries the bound address so a coordinator
// spawning local workers on :0 can find them.
func runWorker() {
	w := dispatch.NewWorker()
	w.Log = progress()
	if *exitAfter > 0 {
		w.KillAfterTasks = *exitAfter
		w.Kill = func() {
			fmt.Fprintf(os.Stderr, "xmpsim worker: -exit-after %d reached, exiting mid-shard\n", *exitAfter)
			os.Exit(3)
		}
	}
	if err := dispatch.Serve(*listenAddr, w, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim worker: %v\n", err)
		os.Exit(1)
	}
}

// runDispatch distributes a campaign across workers and prints the merged
// output — byte-identical to the unsharded subcommand. With no -workers it
// spawns -local worker subprocesses of this same binary.
func runDispatch() {
	if *campaignName == "" {
		fmt.Fprintln(os.Stderr, "xmpsim dispatch: -campaign is required (one of matrix, table2, ablation, sweep, params, incastsweep, sack, vl2, fct, robustness, or a scenario FILE.json)")
		os.Exit(2)
	}
	name := *campaignName
	params := campaignParams()
	if strings.HasSuffix(name, ".json") {
		// A scenario spec: compile it here and ship the resolved spec
		// inline, so workers need no access to the file (or to any chaos
		// schedule it references).
		c, err := scenario.CompileFile(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmpsim dispatch: %v\n", err)
			os.Exit(1)
		}
		name = exp.CampaignScenario
		params.Scenario = c.JSON
	}
	var workers []string
	for _, w := range strings.Split(*workersStr, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, w)
		}
	}
	if len(workers) == 0 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmpsim dispatch: %v\n", err)
			os.Exit(1)
		}
		var stop func()
		workers, stop, err = dispatch.StartLocalWorkers(exe, *localWorkers, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmpsim dispatch: %v\n", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "xmpsim dispatch: spawned %d local workers: %s\n", len(workers), strings.Join(workers, ", "))
	}
	res, err := dispatch.Dispatch(name, params, dispatch.Options{
		Workers:      workers,
		Shards:       *shardCount,
		TaskTimeout:  *taskTimeout,
		StallTimeout: *stallTimeout,
		Log:          progress(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim dispatch: %v\n", err)
		os.Exit(1)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "xmpsim dispatch: %v\n", err)
			os.Exit(1)
		}
		for _, blob := range res.Blobs {
			path := filepath.Join(*outDir, blob.Name)
			if err := os.WriteFile(path, blob.Data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "xmpsim dispatch: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	if res.Reassigned > 0 || res.Deduped > 0 {
		fmt.Fprintf(os.Stderr, "xmpsim dispatch: %d task(s) reassigned, %d duplicate completion(s) deduplicated\n",
			res.Reassigned, res.Deduped)
	}
	if *jsonOut != "" {
		writeJSON(func(w *os.File) error { return res.Merged.WriteJSON(w) })
	}
	res.Merged.Render(os.Stdout)
}

// runMerge reads the shard files named on the command line — literal
// files, glob patterns, or directories of *.json artifacts (e.g. the
// dispatch -outdir) — validates that they form an exact partition of one
// campaign, and prints the full campaign output to stdout —
// byte-identical to the unsharded subcommand. -json additionally emits
// the matrix plot schema.
func runMerge() {
	names := flag.Args()
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "xmpsim merge: no shard files given (usage: xmpsim merge [flags] shard-*.json | DIR)")
		os.Exit(2)
	}
	blobs, err := exp.CollectShardBlobs(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim merge: %v\n", err)
		os.Exit(1)
	}
	res, err := exp.MergeShardBlobs(blobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim merge: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		writeJSON(func(w *os.File) error { return res.WriteJSON(w) })
	}
	res.Render(os.Stdout)
}

func runSweep() {
	rs := exp.RunSubflowSweep([]int{1, 2, 4, 8}, scaleT(50*sim.Millisecond), *jobs)
	exp.RenderSubflowSweep(os.Stdout, rs)
}
