package exp_test

import (
	"encoding/json"
	"testing"

	"xmp/internal/exp"
)

// TestRunsAreDeterministic pins that every fabric campaign the claims read
// beyond the matrix is a pure function of its params, seed included: one
// small cell of each, run twice under equal params, encodes to the same
// bytes, and under seed 2 to other bytes — the seed reaches the cells, not
// only the config hash. The cell is run through the campaign table as a
// shard owning it alone, spec-backed campaigns and Go plans alike.
func TestRunsAreDeterministic(t *testing.T) {
	for _, tc := range []struct {
		campaign string
		cell     int
	}{
		{exp.CampaignSubflow, 1}, // XMP-2
		{exp.CampaignParams, 7},  // K=10, beta=4
		{exp.CampaignIncast, 1},  // fan-in 8
		{exp.CampaignSACK, 3},    // TCP with SACK
		{exp.CampaignVL2, 3},     // XMP-2
		{exp.CampaignTable2, 7},
	} {
		t.Run(tc.campaign, func(t *testing.T) {
			p := exp.RunParams{Timescale: 0.1, SizeScale: 256, Seed: 1, K: 4}
			run := func() string {
				t.Helper()
				_, _, cells, err := exp.CampaignProbe(tc.campaign, p)
				if err != nil {
					t.Fatal(err)
				}
				data, _, err := exp.RunCampaignShard(tc.campaign, p, exp.ShardSpec{Index: tc.cell, Count: cells}, nil)
				if err != nil {
					t.Fatal(err)
				}
				var f struct{ Cells json.RawMessage }
				if err := json.Unmarshal(data, &f); err != nil {
					t.Fatal(err)
				}
				return string(f.Cells)
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("equal params, two cells:\n%.300s\n%.300s", a, b)
			}
			p.Seed = 2
			if c := run(); c == a {
				t.Fatalf("seeds 1 and 2 ran the same cell: %.300s", a)
			}
		})
	}
}
