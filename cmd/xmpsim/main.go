// Command xmpsim regenerates the tables and figures of "Explicit
// Multipath Congestion Control for Data Center Networks" (CoNEXT 2013)
// on the library's discrete-event simulator.
//
// Usage:
//
//	xmpsim fig1|fig4|fig6|fig7|matrix|table2|ablation|sweep|params|incastsweep|sack|vl2|fct|robustness|all [flags]
//	xmpsim table1|table3|fig8|fig9|fig10|fig11 [flags]
//	xmpsim run [flags] FILE.json
//	xmpsim campaigns|merge|worker|dispatch [flags] [args]
//
// The first line is declared in internal/exp's campaign table; run xmpsim
// with no arguments for the list generated from it.
//
// Experiments run at a reduced default scale (see EXPERIMENTS.md); use
// -timescale and -sizescale to move toward the paper's magnitudes.
package main

import (
	"flag"
	"fmt"
	"io"
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
)

func usage() {
	fmt.Fprint(os.Stderr, `xmpsim — reproduce the XMP (CoNEXT'13) evaluation

Subcommands:
`)
	for _, c := range exp.Campaigns() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", c.Name, c.Doc)
	}
	fmt.Fprintf(os.Stderr, `  all          everything above
  table1       matrix, printing only: average goodput, 5 schemes x 3 patterns
  table3       matrix, printing only: incast job completion times (avg, >300ms)
  fig8         matrix, printing only: goodput CDFs and locality percentiles
  fig9         matrix, printing only: job completion time CDFs
  fig10        matrix, printing only: RTT distributions by locality
  fig11        matrix, printing only: link utilization by layer
  run          execute a declarative scenario spec (xmpsim run [flags] FILE.json);
               -validate dry-runs it (parse, validate, resolve chaos targets,
               print the cell enumeration and config hash)
  campaigns    list registered campaigns (cells, config hash, description);
               scenario spec files named as arguments are compiled and listed too
  merge        reassemble per-shard -json exports into the full campaign output
  worker       serve the shard-task API for "xmpsim dispatch" (-listen :port)
  dispatch     run a campaign across workers (-workers h:p,h:p -campaign NAME
               -shards N); with no -workers, spawns -local N local workers;
               -campaign FILE.json dispatches a declarative scenario

Campaign subcommands (%s)
and "run" accept -shard i/n to run only the cells owned by shard i of n;
the shard file written by -json is the output, and "xmpsim merge
shard-*.json" rebuilds tables byte-identical to an unsharded run. merge also accepts glob patterns and directories (every
*.json inside, e.g. the dispatch -outdir). Unsharded, and on merge and
dispatch, -json receives the campaign's plot export (%s have one).

matrix, fct and robustness are the specs scenarios/<name>.json, embedded
in the binary: "xmpsim matrix" is "xmpsim run scenarios/matrix.json" with
the scale flags overlaid, and at default flags their shard files merge
with the spec file's.

Scale flags: -timescale reaches every campaign; -seed, -k and -sizescale
reach the fabric campaigns, but not the figures or ablation, vl2 takes no
-k, and fct and robustness no -sizescale (their sizes are bytes). A run
refuses a flag it does not read (exit 2); run and dispatch FILE.json refuse
all four (the spec's scale block sets them); all names who ignores one.

Flags (after the subcommand):
`, campaignList(false), campaignList(true))
	flag.PrintDefaults()
}

// campaignList names the campaigns of the table in internal/exp — every
// one, or those with a -json plot export — for help and error text.
func campaignList(plotOnly bool) string {
	var names []string
	for _, c := range exp.Campaigns() {
		if c.Plot || !plotOnly {
			names = append(names, c.Name)
		}
	}
	return strings.Join(names, ", ")
}

var (
	timescale = flag.Float64("timescale", 1, "multiply run durations (10 approaches the paper's)")
	sizescale = flag.Int64("sizescale", 16, "divide the paper's flow sizes by this factor")
	seed      = flag.Int64("seed", 1, "workload random seed")
	kary      = flag.Int("k", 8, "fat-tree arity")
	quiet     = flag.Bool("q", false, "suppress per-run progress lines")
	jobs      = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel workers for independent experiment cells")
	jsonOut   = flag.String("json", "", "write machine-readable results to this file: the plot export of "+campaignList(true)+" and the matrix views; the shard file with -shard and on run")
	shardStr  = flag.String("shard", "", "run only shard i/n of a campaign's cells (e.g. 1/4); requires -json, which then receives the shard file for `xmpsim merge`")

	// worker flags.
	listenAddr = flag.String("listen", "127.0.0.1:0", "worker: address to serve the shard-task API on")
	exitAfter  = flag.Int("exit-after", 0, "worker: fault injection — exit the process when task number N completes its first cell")

	// dispatch flags.
	workersStr   = flag.String("workers", "", "dispatch: comma-separated worker addresses (host:port); empty spawns -local workers")
	localWorkers = flag.Int("local", 2, "dispatch: local worker subprocesses to spawn when -workers is empty")
	campaignName = flag.String("campaign", "", "dispatch: campaign to run ("+campaignList(false)+") or a scenario FILE.json")
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
		check(err)
		check(pprof.StartCPUProfile(f))
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		check(err)
		check(rtrace.Start(f))
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
			check(err)
			defer f.Close()
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
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

	if _, ok := exp.LookupCampaign(cmd); *shardStr != "" && !ok && cmd != "run" {
		// The derived matrix views, all, merge.
		die(2, "-shard applies to campaign subcommands (%s) and run", campaignList(false))
	}
	stopProfiling := startProfiling()
	start := time.Now()
	switch cmd {
	case "run":
		runRun()
	case "campaigns":
		runCampaigns()
	case "merge":
		runMerge()
	case "worker":
		runWorker()
	case "dispatch":
		runDispatch()
	case "all":
		if *jsonOut != "" {
			die(2, "-json names one file; run the campaign that should write it by itself")
		}
		warnIgnoredKnobs()
		for _, c := range exp.Campaigns() {
			runCampaign(c.Name, campaignParams(), true)
		}
	default:
		if !runCampaignCmd(cmd) {
			usage()
			os.Exit(2)
		}
	}
	stopProfiling()
	fmt.Fprintf(os.Stderr, "\n[%s completed in %v]\n", cmd, time.Since(start).Round(time.Millisecond))
}

// progress is where per-cell progress lines go: stderr, or nowhere with -q.
func progress() io.Writer {
	if *quiet {
		return nil
	}
	return os.Stderr
}

// writeJSON emits machine-readable results when -json is set.
func writeJSON(write func(io.Writer) error) {
	if *jsonOut == "" {
		return
	}
	f, err := os.Create(*jsonOut)
	check(err)
	defer f.Close()
	check(write(f))
	fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
}

// shardSpec parses -shard, which main has already refused on subcommands
// that are neither campaigns nor run. It insists on -json: a shard run's
// product is the shard file, not a partial table.
func shardSpec() (exp.ShardSpec, bool) {
	if *shardStr == "" {
		return exp.Unsharded, false
	}
	spec, err := exp.ParseShardSpec(*shardStr)
	if err != nil {
		die(2, "%v", err)
	}
	if *jsonOut == "" {
		die(2, "-shard requires -json FILE to receive the shard file")
	}
	return spec, true
}

// campaignParams packages the CLI flags into the campaign table's
// parameter struct — the same struct a dispatch coordinator ships to
// remote workers, so a local run and a dispatched one execute identical
// configurations.
func campaignParams() exp.RunParams {
	if *timescale < 0 || *sizescale < 0 || *kary != 0 && (*kary < 4 || *kary%2 != 0) {
		die(2, "-timescale and -sizescale must not be negative, -k must be even and at least 4")
	}
	return exp.RunParams{
		Timescale: *timescale,
		SizeScale: *sizescale,
		Seed:      *seed,
		K:         *kary,
		Jobs:      *jobs,
	}
}

// refuseIgnoredKnobs exits 2 when campaign name, run under p, does not
// read one of -timescale, -sizescale, -seed and -k that the command line
// sets. A spec run (the scenario runner) reads none of them.
func refuseIgnoredKnobs(name string, p exp.RunParams) {
	ignored, err := exp.IgnoredKnobs(name, p, flagsSet())
	check(err)
	what := "campaign " + name + " does not read"
	if name == exp.CampaignScenario {
		what = "a spec sets its scale in its scale block, not with"
	}
	if len(ignored) > 0 {
		die(2, "%s -%s", what, strings.Join(ignored, ", -"))
	}
}

// warnIgnoredKnobs prints, for `all`, one line per scale flag set on the
// command line that some campaign does not read, naming those campaigns.
func warnIgnoredKnobs() {
	by := map[string][]string{}
	for _, c := range exp.Campaigns() {
		ignored, err := exp.IgnoredKnobs(c.Name, campaignParams(), flagsSet())
		check(err)
		for _, knob := range ignored {
			by[knob] = append(by[knob], c.Name)
		}
	}
	for _, knob := range flagsSet() {
		if names := by[knob]; names != nil {
			fmt.Fprintf(os.Stderr, "xmpsim all: -%s is not read by %s\n", knob, strings.Join(names, ", "))
		}
	}
}

// flagsSet names the flags the command line sets, in lexical order.
func flagsSet() (names []string) {
	flag.Visit(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

// requirePlot refuses -json up front for a campaign without a plot
// export, before any cell runs or shard file is decoded.
func requirePlot(campaign string) {
	if c, _ := exp.LookupCampaign(campaign); !c.Plot {
		die(2, "campaign %s has no -json plot export (%s have one); with -shard, -json receives the shard file",
			campaign, campaignList(true))
	}
}

// die prints a message attributed to the subcommand and exits: 2 for a
// usage error, 1 for a failed run.
func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xmpsim "+os.Args[1]+": "+format+"\n", args...)
	os.Exit(code)
}

func check(err error) {
	if err != nil {
		die(1, "%v", err)
	}
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
	check(dispatch.Serve(*listenAddr, w, os.Stdout))
}

// runDispatch distributes a campaign across workers and prints the merged
// output — byte-identical to the unsharded subcommand. With no -workers it
// spawns -local worker subprocesses of this same binary.
func runDispatch() {
	if *campaignName == "" {
		die(2, "-campaign is required (one of %s, or a scenario FILE.json)", campaignList(false))
	}
	name, family := *campaignName, *campaignName
	params := campaignParams()
	if strings.HasSuffix(name, ".json") {
		// A scenario spec: compile it here and ship the resolved spec
		// inline, so workers need no access to the file (or to any chaos
		// schedule it references).
		c, err := scenario.CompileFile(name)
		check(err)
		name, family = exp.CampaignScenario, c.Campaign
		params.Scenario = c.JSON
	}
	refuseIgnoredKnobs(name, params)
	if *jsonOut != "" {
		requirePlot(family)
	}
	var workers []string
	for _, w := range strings.Split(*workersStr, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, w)
		}
	}
	if len(workers) == 0 {
		exe, err := os.Executable()
		check(err)
		var stop func()
		workers, stop, err = dispatch.StartLocalWorkers(exe, *localWorkers, os.Stderr)
		check(err)
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
	check(err)
	if *outDir != "" {
		check(os.MkdirAll(*outDir, 0o755))
		for _, blob := range res.Blobs {
			path := filepath.Join(*outDir, blob.Name)
			check(os.WriteFile(path, blob.Data, 0o644))
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	if res.Reassigned > 0 || res.Deduped > 0 {
		fmt.Fprintf(os.Stderr, "xmpsim dispatch: %d task(s) reassigned, %d duplicate completion(s) deduplicated\n",
			res.Reassigned, res.Deduped)
	}
	writeJSON(res.Merged.WriteJSON)
	res.Merged.Render(os.Stdout)
}

// runMerge reads the shard files named on the command line — literal
// files, glob patterns, or directories of *.json artifacts (e.g. the
// dispatch -outdir) — validates that they form an exact partition of one
// campaign, and prints the full campaign output to stdout —
// byte-identical to the unsharded subcommand. -json additionally emits
// the campaign's plot export.
func runMerge() {
	names := flag.Args()
	if len(names) == 0 {
		die(2, "no shard files given (usage: xmpsim merge [flags] shard-*.json | DIR)")
	}
	blobs, err := exp.CollectShardBlobs(names)
	check(err)
	if *jsonOut != "" {
		m, err := exp.PeekManifest(blobs[0].Data)
		if err != nil {
			die(1, "%s: %v", blobs[0].Name, err)
		}
		requirePlot(m.Campaign)
	}
	res, err := exp.MergeShardBlobs(blobs)
	check(err)
	writeJSON(res.WriteJSON)
	res.Render(os.Stdout)
}
