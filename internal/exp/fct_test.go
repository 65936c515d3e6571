package exp

import (
	"testing"
)

// soleCell runs shard i/count of a spec-backed campaign that owns exactly
// one cell and returns its payload.
func soleCell[T any](t *testing.T, campaign string, i, count int) T {
	t.Helper()
	data, _, err := RunCampaignShard(campaign, RunParams{}, ShardSpec{Index: i, Count: count}, nil)
	if err != nil {
		t.Fatalf("%s shard %d/%d: %v", campaign, i, count, err)
	}
	enc, err := DecodeShard(ShardBlob{Name: campaign, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	f := enc.(*ShardFile[T])
	if len(f.Cells) != 1 {
		t.Fatalf("%s shard %d/%d owns %d cells, want 1", campaign, i, count, len(f.Cells))
	}
	return f.Cells[0].Data
}

// TestFCTIncastBurstScale pins the headline acceptance numbers of the
// incast cell: at least 10,000 concurrent senders, every one of them
// completing, with real loss on the fan-in port.
func TestFCTIncastBurstScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 10k-sender incast cell")
	}
	pt := soleCell[FCTPoint](t, CampaignFCT, 2, 5)
	if pt.Cell != "incast10k" {
		t.Fatalf("cell 2 of the FCT campaign is %q, want incast10k", pt.Cell)
	}
	if pt.Launched < 10000 {
		t.Errorf("incast burst launched %d senders, want >= 10000", pt.Launched)
	}
	if pt.Flows != pt.Launched {
		t.Errorf("only %d of %d incast flows completed", pt.Flows, pt.Launched)
	}
	if pt.Drops == 0 {
		t.Error("a 10k-sender synchronized burst produced zero drops; fan-in congestion is not being modeled")
	}
	if pt.P999Ms <= pt.P50Ms || pt.P50Ms <= 0 {
		t.Errorf("implausible FCT percentiles: p50=%v p999=%v", pt.P50Ms, pt.P999Ms)
	}
}
