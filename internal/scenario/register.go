package scenario

import (
	"fmt"
	"io"

	"xmp/internal/exp"
	"xmp/scenarios"
)

// Spec-backed campaigns are rows of exp's campaign table like any Go
// campaign — which is what gives them sharded workers, JSON shard export,
// merge and dispatch for free — with the runner attached here.
// "matrix", "robustness" and "fct" run the spec of that name embedded from
// scenarios/ — their only definition — and "scenario" runs whatever spec
// rides inline in RunParams.Scenario. All four go through CompileCampaign,
// so a dispatch task, the worker's probe and every returned manifest name
// the same campaign: the spec's family.
func init() {
	for _, name := range []string{exp.CampaignScenario, FamilyMatrix, FamilyRobustness, FamilyFCT} {
		exp.RegisterCampaign(name, func(p exp.RunParams, shard exp.ShardSpec, progress io.Writer) (exp.ShardEncoder, error) {
			c, err := CompileCampaign(name, p)
			if err != nil {
				return nil, err
			}
			return c.RunShard(shard, p.Jobs, progress)
		})
	}
}

// CompileCampaign compiles the spec a registry name and its params stand
// for.
//
// An inline p.Scenario is the whole configuration, under any of the four
// names. It is already resolved (chaos inlined, defaults explicit), so
// re-resolving needs no spec directory and is the identity — a worker
// re-derives the canonical JSON and hash the coordinator stamped into the
// task. Under a family name the spec must be of that family.
//
// Otherwise name is a family and the embedded scenarios/<name>.json runs,
// with the scalar params overlaid: -timescale, -seed and -k on every
// family, -sizescale on matrix alone, the one family whose flow sizes
// derive from it (fct and robustness size theirs in bytes). With
// all-default params the result is CompileFile("scenarios/<name>.json") —
// same canonical JSON, same hash — which is why `xmpsim matrix -shard 0/2`
// and `xmpsim run -shard 1/2 scenarios/matrix.json` shard files merge.
func CompileCampaign(name string, p exp.RunParams) (*Compiled, error) {
	if len(p.Scenario) > 0 {
		s, err := Parse(p.Scenario)
		if err != nil {
			return nil, err
		}
		c, err := Compile(s, "")
		if err != nil {
			return nil, err
		}
		if name != exp.CampaignScenario && name != c.Campaign {
			return nil, fmt.Errorf("scenario %s: a %s-family spec cannot run as campaign %q", c.Spec.Name, c.Campaign, name)
		}
		return c, nil
	}
	if name == exp.CampaignScenario {
		return nil, fmt.Errorf("scenario: campaign %q needs an inline spec in params.scenario", name)
	}
	data, err := scenarios.FS.ReadFile(name + ".json")
	if err != nil {
		return nil, fmt.Errorf("scenario: no embedded spec for campaign %q: %v", name, err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenarios/%s.json: %v", name, err)
	}
	if s.Scale == nil {
		s.Scale = &ScaleSpec{}
	}
	if s.Topology == nil {
		s.Topology = &TopologySpec{}
	}
	s.Scale.Timescale, s.Scale.Seed, s.Topology.K = p.Timescale, p.Seed, p.K
	if name == FamilyMatrix {
		s.Scale.SizeScale = p.SizeScale
	}
	r, err := resolve(s, scenarios.FS.ReadFile)
	if err != nil {
		return nil, err
	}
	return lower(r)
}
