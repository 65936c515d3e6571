package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestRunParamsWithDefaults(t *testing.T) {
	// RunParams carries a json.RawMessage and so is not ==-comparable;
	// reflect.DeepEqual covers the scalar fields the same way.
	got := RunParams{}.WithDefaults()
	want := RunParams{Timescale: 1, SizeScale: 16, Seed: 1, K: 8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WithDefaults() = %+v, want %+v", got, want)
	}
	// Explicit values survive.
	set := RunParams{Timescale: 0.5, SizeScale: 8, Seed: 3, K: 4, Jobs: 2}
	if got := set.WithDefaults(); !reflect.DeepEqual(got, set) {
		t.Fatalf("WithDefaults() clobbered explicit values: %+v", got)
	}
}

func TestCampaignNamesComplete(t *testing.T) {
	names := CampaignNames()
	for _, want := range []string{
		CampaignMatrix, CampaignTable2, CampaignAblation, CampaignSubflow,
		CampaignParams, CampaignIncast, CampaignSACK, CampaignVL2, CampaignFCT,
		CampaignRobustness, CampaignScenario,
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("campaign %q missing from registry %v", want, names)
		}
	}
}

func TestCampaignUnknownName(t *testing.T) {
	if _, _, _, err := CampaignProbe("nope", RunParams{}); err == nil || !strings.Contains(err.Error(), "unknown campaign") {
		t.Fatalf("probe of unknown campaign: %v", err)
	}
	if _, _, err := RunCampaignShard("nope", RunParams{}, Unsharded, nil); err == nil || !strings.Contains(err.Error(), "unknown campaign") {
		t.Fatalf("run of unknown campaign: %v", err)
	}
}

// TestCampaignProbeMatchesRun pins the core dispatch invariant: the probe
// (which runs zero cells) stamps exactly the config description, hash, and
// cell count that a real shard of the same campaign and params produces.
func TestCampaignProbeMatchesRun(t *testing.T) {
	p := RunParams{}
	desc, hash, cells, err := CampaignProbe(CampaignAblation, p)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if hash != HashConfig(desc) {
		t.Fatalf("probe hash %s is not the hash of its own desc", hash)
	}
	if cells != 5 {
		t.Fatalf("ablation cell count = %d, want 5", cells)
	}
	data, m, err := RunCampaignShard(CampaignAblation, p, ShardSpec{Index: 0, Count: 4}, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("empty shard file")
	}
	if m.Config != desc || m.ConfigHash != hash || m.TotalCells != cells {
		t.Fatalf("manifest (%q, %s, %d) disagrees with probe (%q, %s, %d)",
			m.Config, m.ConfigHash, m.TotalCells, desc, hash, cells)
	}
}

// TestCampaignShardMatchesDirectRunner pins that the registry's ablation
// entry produces byte-for-byte the same shard file as calling the runner
// the way the xmpsim subcommand does. The registry plumbing is the same for
// every Go campaign, so these tests use the cheapest one (5 dumbbell
// cells); TestSubflowSweep and TestSweepShardMergeByteIdentical still run
// the k=8 sweep itself.
func TestCampaignShardMatchesDirectRunner(t *testing.T) {
	p := RunParams{}.WithDefaults()
	shard := ShardSpec{Index: 1, Count: 4}
	got, _, err := RunCampaignShard(CampaignAblation, p, shard, nil)
	if err != nil {
		t.Fatalf("registry run: %v", err)
	}
	var want bytes.Buffer
	direct := RunAblationsShard(10, shard, p.Jobs, nil)
	if err := direct.Encode(&want); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("registry shard file diverges from direct runner (%d vs %d bytes)", len(got), want.Len())
	}
}

func TestCampaignProgressCountsCells(t *testing.T) {
	var progress bytes.Buffer
	_, m, err := RunCampaignShard(CampaignAblation, RunParams{}, Unsharded, &progress)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Count(progress.String(), "\n")
	if lines != m.TotalCells {
		t.Fatalf("progress lines = %d, want one per cell (%d):\n%s", lines, m.TotalCells, progress.String())
	}
}
