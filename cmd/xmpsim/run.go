package main

// xmpsim run / matrix / fct / robustness / campaigns: the declarative
// scenario entry points. `run` compiles a JSON spec (internal/scenario)
// and executes it; the three campaign subcommands are aliases for running
// their embedded spec, through the same function. `campaigns` lists
// everything the registry can execute, probing each campaign's config hash
// and cell count without running simulations.

import (
	"flag"
	"fmt"
	"os"

	"xmp/internal/exp"
	"xmp/internal/scenario"
)

var validateRun = flag.Bool("validate", false, "run: dry-run — parse, validate, resolve chaos targets, print the cell enumeration and config hash without executing")

// runRun executes `xmpsim run [flags] scenario.json`. Unsharded, it
// renders the scenario's tables to stdout and -json receives the 0/1 shard
// file. With -shard i/n the product is the -json shard file, mergeable by
// `xmpsim merge`.
func runRun() {
	args := flag.Args()
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "xmpsim run: usage: xmpsim run [flags] scenario.json")
		os.Exit(2)
	}
	c, err := scenario.CompileFile(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim run: %v\n", err)
		os.Exit(1)
	}
	if *validateRun {
		if err := c.CheckTargets(); err != nil {
			fmt.Fprintf(os.Stderr, "xmpsim run: %v\n", err)
			os.Exit(1)
		}
		renderCompiled(c)
		return
	}
	runCompiled("run", c, false)
}

// runSpecCampaign executes matrix, fct or robustness — aliases for `xmpsim
// run scenarios/<cmd>.json` with the scale flags overlaid on the embedded
// spec (scenario.CompileCampaign) — or one of the matrix table views,
// which are the matrix spec with a one-table metrics selection. It is the
// unsharded path: main sends -shard runs through the campaign registry,
// which compiles the same spec the same way. -json receives what it always
// has on these subcommands: the matrix plot schema (nothing for fct and
// robustness).
func runSpecCampaign(cmd string) {
	name := cmd
	if cmd != "fct" && cmd != "robustness" {
		name = "matrix"
	}
	c, err := scenario.CompileCampaign(name, campaignParams())
	if err == nil && cmd != name {
		view := *c.Spec
		view.Metrics = []string{cmd}
		c, err = scenario.Compile(&view, "")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim %s: %v\n", cmd, err)
		os.Exit(1)
	}
	runCompiled(cmd, c, true)
}

// runCompiled is the one execution path of every spec-backed subcommand:
// run the cells -shard owns and — unsharded — render the tables to stdout.
// -json receives the shard file, or with plotJSON the matrix plot schema.
func runCompiled(cmd string, c *scenario.Compiled, plotJSON bool) {
	shard, sharded := shardSpec(cmd)
	enc, err := c.RunShard(shard, *jobs, progress())
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim %s: %v\n", cmd, err)
		os.Exit(1)
	}
	if !plotJSON {
		writeJSON(func(w *os.File) error { return enc.Encode(w) })
	}
	if sharded {
		// A shard run's product is the shard file, not a partial table.
		return
	}
	res, err := exp.MergeShards([]exp.ShardEncoder{enc})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmpsim %s: %v\n", cmd, err)
		os.Exit(1)
	}
	if plotJSON && res.Matrix != nil {
		writeJSON(func(w *os.File) error { return res.WriteJSON(w) })
	}
	res.Render(os.Stdout)
}

// renderCompiled prints the -validate dry-run report: identity, resolved
// config hash, chaos resolution and the full cell enumeration.
func renderCompiled(c *scenario.Compiled) {
	fmt.Printf("scenario:    %s\n", c.Spec.Name)
	if c.Spec.Description != "" {
		fmt.Printf("description: %s\n", c.Spec.Description)
	}
	fmt.Printf("family:      %s (campaign %q)\n", c.Spec.Family, c.Campaign)
	fmt.Printf("config hash: %s\n", c.Hash)
	if c.Spec.Chaos != nil {
		fmt.Printf("chaos:       %d events, all targets resolve\n", len(c.Spec.Chaos.Events))
	}
	if len(c.Spec.Metrics) > 0 {
		fmt.Printf("metrics:     %v\n", c.Spec.Metrics)
	}
	fmt.Printf("cells:       %d\n", c.Cells())
	for i, label := range c.Labels {
		fmt.Printf("  [%3d] %s\n", i, label)
	}
}

// runCampaigns lists every registered campaign — name, cell count, config
// hash and canonical config description under the current flags — plus a
// compiled entry for each scenario spec file named on the command line.
// Everything comes from CampaignProbe, the exact code path a real shard
// stamps manifests through, so the listing cannot drift from execution.
func runCampaigns() {
	p := campaignParams()
	for _, name := range exp.CampaignNames() {
		if name == exp.CampaignScenario {
			// Probing needs a spec; name files on the command line to list
			// compiled scenarios.
			fmt.Printf("%-12s %5s  %-12s  compiles scenario specs (xmpsim campaigns FILE.json...)\n",
				name, "-", "-")
			continue
		}
		desc, hash, cells, err := exp.CampaignProbe(name, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmpsim campaigns: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("%-12s %5d  %-12s  %s\n", name, cells, hash[:12], desc)
	}
	for _, path := range flag.Args() {
		c, err := scenario.CompileFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmpsim campaigns: %v\n", err)
			os.Exit(1)
		}
		// Probe through the registry with the compiled spec inline — the
		// same round-trip a dispatch coordinator and its workers perform.
		_, hash, cells, err := exp.CampaignProbe(exp.CampaignScenario, exp.RunParams{Scenario: c.JSON, Jobs: *jobs})
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmpsim campaigns: %s: %v\n", path, err)
			os.Exit(1)
		}
		desc := c.Spec.Description
		if desc == "" {
			desc = "scenario spec"
		}
		fmt.Printf("%-12s %5d  %-12s  %s: %s (%s family) — %s\n",
			exp.CampaignScenario, cells, hash[:12], path, c.Spec.Name, c.Spec.Family, desc)
	}
}
