package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"xmp/internal/sim"
)

// This file is the API over the campaign table (table.go): the params
// that shape a run, and running, probing and listing campaigns by name. A
// remote shard task (internal/dispatch) names its runner the same way, so
// a shard executed on a worker host is indistinguishable from one run by
// `xmpsim <campaign> -shard i/n`.

// RunParams carries the CLI-level knobs that shape a campaign's
// results, in a JSON-serializable form a coordinator can ship to workers.
// Zero fields mean the defaults: Timescale 1, and CellConfig's for the
// rest. Jobs caps the per-process worker pool and does not shape results.
type RunParams struct {
	Timescale float64 `json:"timescale,omitempty"`
	SizeScale int64   `json:"sizescale,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	K         int     `json:"k,omitempty"`
	Jobs      int     `json:"jobs,omitempty"`
	// Scenario, when non-empty, is a fully-resolved declarative scenario
	// spec (internal/scenario) and is the entire configuration of the
	// spec-backed runners (CampaignScenario, and every spec campaign in
	// place of its embedded spec), which then ignore the scalar knobs
	// above except Jobs. Carrying the spec inline is what lets a dispatch
	// coordinator ship a scenario to workers that have no access to the
	// spec file.
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// WithDefaults resolves zero fields to the defaults.
func (p RunParams) WithDefaults() RunParams {
	if p.Timescale == 0 {
		p.Timescale = 1
	}
	c := CellConfig{K: p.K, Seed: p.Seed, SizeScale: p.SizeScale}.WithDefaults()
	p.SizeScale, p.Seed, p.K = c.SizeScale, c.Seed, c.K
	return p
}

func (p RunParams) scaleT(d sim.Duration) sim.Duration {
	return sim.Duration(float64(d) * p.Timescale)
}

// Campaign names: the xmpsim subcommands, and what shard manifests carry.
const (
	CampaignFig1       = "fig1"
	CampaignFig4       = "fig4"
	CampaignFig6       = "fig6"
	CampaignFig7       = "fig7"
	CampaignMatrix     = "matrix"
	CampaignTable2     = "table2"
	CampaignAblation   = "ablation"
	CampaignSubflow    = "sweep"
	CampaignParams     = "params"
	CampaignIncast     = "incastsweep"
	CampaignSACK       = "sack"
	CampaignVL2        = "vl2"
	CampaignFCT        = "fct"
	CampaignRobustness = "robustness"
	// CampaignScenario names the declarative scenario runner. The spec
	// rides in RunParams.Scenario and shard files carry its family
	// ("matrix", ...), so it has a runner but no shard format of its own.
	CampaignScenario = "scenario"
)

func lookup(name string) *campaign {
	for _, c := range campaigns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ShardEncoder is a shard file with its cell type erased: what a campaign
// runner and DecodeShard return.
type ShardEncoder interface {
	ShardManifest() ShardManifest
	Encode(io.Writer) error
}

// CampaignRunner executes one shard of a campaign shaped by p. The Go
// plans never fail (their params cannot be malformed), but the
// declarative scenario runner must be able to reject a bad spec without
// panicking a worker process.
type CampaignRunner func(p RunParams, shard ShardSpec, progress io.Writer) (ShardEncoder, error)

// RegisterCampaign attaches a runner to a declared campaign that has none:
// the spec-backed campaigns and scenario, whose cells internal/scenario
// compiles from specs. An undeclared name or a second runner panics: two
// runners answering to one name would hash different configs under the
// same key and poison every manifest check downstream.
func RegisterCampaign(name string, run CampaignRunner) {
	c := lookup(name)
	if c == nil {
		panic(fmt.Sprintf("exp: campaign %q is not declared", name))
	}
	if c.run != nil {
		panic(fmt.Sprintf("exp: campaign %q registered twice", name))
	}
	c.run = run
}

// Campaigns lists the declared campaigns in the order `xmpsim all` runs
// them. The scenario runner is not one: what it runs is a campaign of the
// spec's family.
func Campaigns() []CampaignInfo {
	var out []CampaignInfo
	for _, c := range campaigns {
		if c.Name != CampaignScenario {
			out = append(out, c.info())
		}
	}
	return out
}

// LookupCampaign returns the named entry of Campaigns.
func LookupCampaign(name string) (CampaignInfo, bool) {
	if c := lookup(name); c != nil && c.Name != CampaignScenario {
		return c.info(), true
	}
	return CampaignInfo{}, false
}

// CampaignNames returns every name a runner answers to — Campaigns plus
// the scenario runner — sorted.
func CampaignNames() []string {
	var names []string
	for _, c := range campaigns {
		if c.run != nil {
			names = append(names, c.Name)
		}
	}
	sort.Strings(names)
	return names
}

// probeSpec owns no cell of any real campaign (a campaign would need 2^30
// cells for cell probeCount-1 to exist), so running it executes zero
// simulations while still stamping the manifest — the config description,
// its hash and the total cell count come from exactly the code path a real
// shard runs, with no separately-maintained copy to drift.
const probeCount = 1 << 30

var probeSpec = ShardSpec{Index: probeCount - 1, Count: probeCount}

// ProbeManifest stamps the manifest a shard of the named campaign would
// carry for the given params, without running any simulation. Its
// Campaign field is the name shard files carry, which for the "scenario"
// registry name is the inline spec's family.
func ProbeManifest(name string, p RunParams) (ShardManifest, error) {
	enc, err := RunCampaign(name, p, probeSpec, nil)
	if err != nil {
		return ShardManifest{}, err
	}
	return enc.ShardManifest(), nil
}

// CampaignProbe resolves a campaign's canonical config description, its
// SHA-256 hash and the campaign-wide cell count for the given params,
// without running any simulation.
func CampaignProbe(name string, p RunParams) (desc, hash string, cells int, err error) {
	m, err := ProbeManifest(name, p)
	return m.Config, m.ConfigHash, m.TotalCells, err
}

// IgnoredKnobs returns the knobs among names — "timescale", "sizescale",
// "seed" and "k", the RunParams fields the xmpsim flags of those names set;
// other names are skipped — that the named campaign does not read under p:
// changing that knob alone leaves the config hash where it is. A knob whose
// change makes the probe fail is read.
func IgnoredKnobs(name string, p RunParams, names []string) ([]string, error) {
	_, hash, _, err := CampaignProbe(name, p)
	if err != nil {
		return nil, err
	}
	var ignored []string
	for _, knob := range names {
		q := p.WithDefaults()
		switch knob {
		case "timescale":
			q.Timescale *= 2
		case "sizescale":
			q.SizeScale *= 2
		case "seed":
			q.Seed++
		case "k":
			q.K += 2
		default:
			continue
		}
		if _, h, _, err := CampaignProbe(name, q); err == nil && h == hash {
			ignored = append(ignored, knob)
		}
	}
	return ignored, nil
}

// RunCampaign executes one shard of the named campaign. progress, if
// non-nil, receives the per-cell progress lines in cell order.
func RunCampaign(name string, p RunParams, shard ShardSpec, progress io.Writer) (ShardEncoder, error) {
	c := lookup(name)
	if c == nil || c.run == nil {
		return nil, fmt.Errorf("unknown campaign %q (have %v)", name, CampaignNames())
	}
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	return c.run(p.WithDefaults(), shard, progress)
}

// RunCampaignShard is RunCampaign with the shard file encoded — the bytes
// `xmpsim <name> -shard i/n -json` writes — plus its manifest.
func RunCampaignShard(name string, p RunParams, shard ShardSpec, progress io.Writer) ([]byte, ShardManifest, error) {
	f, err := RunCampaign(name, p, shard, progress)
	if err != nil {
		return nil, ShardManifest{}, err
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		return nil, ShardManifest{}, err
	}
	return buf.Bytes(), f.ShardManifest(), nil
}
