package exp

import "testing"

// TestRunsAreDeterministic pins that every Go fabric plan is a pure
// function of its params, seed included: one small cell of each, run twice
// under equal params, encodes to the same bytes, and under seed 2 to other
// bytes — the seed reaches the cells, not only the config hash.
func TestRunsAreDeterministic(t *testing.T) {
	for _, tc := range []struct {
		campaign string
		run      func(RunParams) any
	}{
		{CampaignSubflow, func(p RunParams) any { return SubflowSweepPlan(p).Run(nil, 1) }},
		{CampaignParams, func(p RunParams) any { return ParamSweepPlan(p).Run(nil, 9) }},
		{CampaignIncast, func(p RunParams) any { return IncastSweepPlan(p).Run(nil, 1) }},
		{CampaignSACK, func(p RunParams) any { return SACKAblationPlan(p).Run(nil, 0) }},
		{CampaignVL2, func(p RunParams) any { return VL2Plan(p).Run(nil, 3) }},
		{CampaignTable2, func(p RunParams) any { return Table2Plan(p).Run(nil, 7) }},
	} {
		t.Run(tc.campaign, func(t *testing.T) {
			p := RunParams{Timescale: 0.1, SizeScale: 256, Seed: 1, K: 4}
			a, b := mustJSON(t, tc.run(p)), mustJSON(t, tc.run(p))
			if a != b {
				t.Fatalf("equal params, two cells:\n%s\n%s", a, b)
			}
			p.Seed = 2
			if c := mustJSON(t, tc.run(p)); c == a {
				t.Fatalf("seeds 1 and 2 ran the same cell: %s", a)
			}
		})
	}
}
