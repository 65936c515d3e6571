package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"xmp/internal/sim"
)

// This file is the campaign registry: every sharded campaign is reachable
// by its string name with one uniform signature, so a remote shard task
// (internal/dispatch) can name its runner without carrying Go code across
// the wire. The registry replicates exactly the flag-to-config mapping of
// the xmpsim subcommands — which themselves now run through it — so a
// shard executed on a worker host is indistinguishable from one run by
// `xmpsim <campaign> -shard i/n`. The campaigns below exist only as Go
// runners; matrix, robustness and fct exist only as the specs in
// scenarios/ and are registered by internal/scenario.

// RunParams carries the CLI-level knobs that shape a campaign's
// results, in a JSON-serializable form a coordinator can ship to workers.
// Zero fields mean the xmpsim defaults (Timescale 1, SizeScale 16, Seed 1,
// K 8). Jobs caps the per-process worker pool and does not shape results.
type RunParams struct {
	Timescale float64 `json:"timescale,omitempty"`
	SizeScale int64   `json:"sizescale,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	K         int     `json:"k,omitempty"`
	Jobs      int     `json:"jobs,omitempty"`
	// Scenario, when non-empty, is a fully-resolved declarative scenario
	// spec (internal/scenario) and is the entire configuration of the
	// spec-backed runners (CampaignScenario, and matrix/robustness/fct in
	// place of their embedded spec), which then ignore the scalar knobs
	// above except Jobs. Carrying the spec inline is what lets a dispatch
	// coordinator ship a scenario to workers that have no access to the
	// spec file.
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// CampaignScenario is the registry name of the declarative scenario
// runner; the compiled spec rides in RunParams.Scenario, and shard files
// carry the spec's family ("matrix", ...) as their campaign. It is
// registered by internal/scenario's init — with the spec-backed matrix,
// robustness and fct — so it exists in any binary that imports that
// package (cmd/xmpsim does).
const CampaignScenario = "scenario"

// WithDefaults resolves zero fields to the xmpsim flag defaults.
func (p RunParams) WithDefaults() RunParams {
	if p.Timescale == 0 {
		p.Timescale = 1
	}
	if p.SizeScale == 0 {
		p.SizeScale = 16
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.K == 0 {
		p.K = 8
	}
	return p
}

func (p RunParams) scaleT(d sim.Duration) sim.Duration {
	return sim.Duration(float64(d) * p.Timescale)
}

// ShardEncoder is what every Run*Shard runner and DecodeShard return: a
// shard file, its cell type erased, that can report its manifest and
// encode itself.
type ShardEncoder interface {
	ShardManifest() ShardManifest
	Encode(io.Writer) error
}

// CampaignRunner executes one shard of a campaign shaped by p. It is the
// uniform signature behind the registry: the built-in campaigns never
// fail (their params cannot be malformed), but registered extensions —
// the declarative scenario runner — must be able to reject a bad spec
// without panicking a worker process.
type CampaignRunner func(p RunParams, shard ShardSpec, progress io.Writer) (ShardEncoder, error)

// infallible adapts the built-in runners, whose construction cannot fail.
func infallible(run func(p RunParams, shard ShardSpec, progress io.Writer) ShardEncoder) CampaignRunner {
	return func(p RunParams, shard ShardSpec, progress io.Writer) (ShardEncoder, error) {
		return run(p, shard, progress), nil
	}
}

// RegisterCampaign adds a runner under name, making it reachable by every
// layer that resolves campaigns by string — the xmpsim subcommand path,
// CampaignProbe, and the dispatch workers. Registering a duplicate name
// panics: two runners answering to one name would hash different configs
// under the same key and poison every manifest check downstream.
func RegisterCampaign(name string, run CampaignRunner) {
	if _, dup := campaignRunners[name]; dup {
		panic(fmt.Sprintf("exp: campaign %q registered twice", name))
	}
	campaignRunners[name] = run
}

// campaignRunners maps campaign names to their shard runners. Each entry
// mirrors the corresponding xmpsim subcommand's flag handling; changing
// one without the other shifts the config hash and makes merges refuse the
// mix, so drift fails loudly rather than silently.
var campaignRunners = map[string]CampaignRunner{
	CampaignTable2: infallible(func(p RunParams, shard ShardSpec, progress io.Writer) ShardEncoder {
		return RunTable2Campaign(Table2Config{
			KAry:      p.K,
			SizeScale: p.SizeScale,
			Seed:      p.Seed,
			Duration:  p.scaleT(200 * sim.Millisecond),
			Jobs:      p.Jobs,
		}, shard, progress)
	}),
	CampaignAblation: infallible(func(p RunParams, shard ShardSpec, progress io.Writer) ShardEncoder {
		return RunAblationsShard(10, shard, p.Jobs, progress)
	}),
	CampaignSubflow: infallible(func(p RunParams, shard ShardSpec, progress io.Writer) ShardEncoder {
		return RunSubflowSweepShard(nil, p.scaleT(50*sim.Millisecond), shard, p.Jobs, progress)
	}),
	CampaignParams: infallible(func(p RunParams, shard ShardSpec, progress io.Writer) ShardEncoder {
		return RunParamSweepShard(nil, nil, p.scaleT(100*sim.Millisecond), shard, p.Jobs, progress)
	}),
	CampaignIncast: infallible(func(p RunParams, shard ShardSpec, progress io.Writer) ShardEncoder {
		return RunIncastSweepShard(nil, p.scaleT(200*sim.Millisecond), shard, p.Jobs, progress)
	}),
	CampaignSACK: infallible(func(p RunParams, shard ShardSpec, progress io.Writer) ShardEncoder {
		return RunSACKAblationShard(p.scaleT(100*sim.Millisecond), shard, p.Jobs, progress)
	}),
	CampaignVL2: infallible(func(p RunParams, shard ShardSpec, progress io.Writer) ShardEncoder {
		return RunVL2ComparisonShard(nil, p.scaleT(100*sim.Millisecond), shard, p.Jobs, progress)
	}),
}

// CampaignNames returns the registered campaign names, sorted.
func CampaignNames() []string {
	names := make([]string, 0, len(campaignRunners))
	for n := range campaignRunners {
		names = append(names, n)
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
	run, ok := campaignRunners[name]
	if !ok {
		return ShardManifest{}, fmt.Errorf("unknown campaign %q (have %v)", name, CampaignNames())
	}
	enc, err := run(p.WithDefaults(), probeSpec, nil)
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

// RunCampaignShard executes one shard of the named campaign and returns
// the encoded shard file — the same bytes `xmpsim <name> -shard i/n -json`
// writes — plus its manifest. progress, if non-nil, receives the
// campaign's per-cell progress lines in deterministic cell order.
func RunCampaignShard(name string, p RunParams, shard ShardSpec, progress io.Writer) ([]byte, ShardManifest, error) {
	run, ok := campaignRunners[name]
	if !ok {
		return nil, ShardManifest{}, fmt.Errorf("unknown campaign %q (have %v)", name, CampaignNames())
	}
	if err := shard.Validate(); err != nil {
		return nil, ShardManifest{}, err
	}
	f, err := run(p.WithDefaults(), shard, progress)
	if err != nil {
		return nil, ShardManifest{}, err
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		return nil, ShardManifest{}, err
	}
	return buf.Bytes(), f.ShardManifest(), nil
}

// HashConfig returns the hex SHA-256 of a canonical campaign config
// description — the hash stamped into shard manifests and verified by the
// dispatch layer on every task and result.
func HashConfig(desc string) string { return configHash(desc) }
