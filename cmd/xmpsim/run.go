package main

// xmpsim <campaign> / <matrix view> / run / campaigns: everything that
// executes or lists campaigns, all through the table in internal/exp.
// `run` compiles a JSON spec (internal/scenario) and ships it inline to
// the scenario runner; a campaign subcommand names its table entry;
// `campaigns` probes each entry's config hash and cell count without
// running simulations.

import (
	"flag"
	"fmt"
	"os"
	"slices"

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
		die(2, "usage: xmpsim run [flags] scenario.json")
	}
	c, err := scenario.CompileFile(args[0])
	check(err)
	if *validateRun {
		check(c.CheckTargets())
		renderCompiled(c)
		return
	}
	p := exp.RunParams{Jobs: *jobs, Scenario: c.JSON}
	refuseIgnoredKnobs(exp.CampaignScenario, p)
	runCampaign(exp.CampaignScenario, p, false)
}

// runCampaignCmd runs cmd if it names a campaign or one of the matrix
// table views — the embedded matrix spec with a one-table metrics
// selection, shipped inline like any other spec.
func runCampaignCmd(cmd string) bool {
	p := campaignParams()
	if _, ok := exp.LookupCampaign(cmd); ok {
		refuseIgnoredKnobs(cmd, p)
		runCampaign(cmd, p, true)
		return true
	}
	matrix, _ := exp.LookupCampaign(exp.CampaignMatrix)
	if !slices.Contains(matrix.Tables, cmd) {
		return false
	}
	refuseIgnoredKnobs(matrix.Name, p)
	c, err := scenario.CompileCampaign(matrix.Name, p)
	check(err)
	view := *c.Spec
	view.Metrics = []string{cmd}
	c, err = scenario.Compile(&view, "")
	check(err)
	p.Scenario = c.JSON
	runCampaign(matrix.Name, p, true)
	return true
}

// runCampaign is the one execution path of every campaign subcommand,
// sharded or not: run the cells -shard owns through the campaign table
// and — unsharded — merge that one shard file and render it to stdout.
// -json receives the shard file, or unsharded with plotJSON the campaign's
// plot export.
func runCampaign(name string, p exp.RunParams, plotJSON bool) {
	shard, sharded := shardSpec()
	plotJSON = plotJSON && !sharded && *jsonOut != ""
	if plotJSON {
		requirePlot(name)
	}
	enc, err := exp.RunCampaign(name, p, shard, progress())
	check(err)
	if !plotJSON {
		writeJSON(enc.Encode)
	}
	if sharded {
		// A shard run's product is the shard file, not a partial table.
		return
	}
	res, err := exp.MergeShards([]exp.ShardEncoder{enc})
	check(err)
	if plotJSON {
		writeJSON(res.WriteJSON)
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
			die(1, "%s: %v", name, err)
		}
		fmt.Printf("%-12s %5d  %-12s  %s\n", name, cells, hash[:12], desc)
	}
	for _, path := range flag.Args() {
		c, err := scenario.CompileFile(path)
		check(err)
		// Probe through the registry with the compiled spec inline — the
		// same round-trip a dispatch coordinator and its workers perform.
		_, hash, cells, err := exp.CampaignProbe(exp.CampaignScenario, exp.RunParams{Scenario: c.JSON, Jobs: *jobs})
		if err != nil {
			die(1, "%s: %v", path, err)
		}
		desc := c.Spec.Description
		if desc == "" {
			desc = "scenario spec"
		}
		fmt.Printf("%-12s %5d  %-12s  %s: %s (%s family) — %s\n",
			exp.CampaignScenario, cells, hash[:12], path, c.Spec.Name, c.Spec.Family, desc)
	}
}
