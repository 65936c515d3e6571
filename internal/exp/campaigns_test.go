package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
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
		CampaignFig1, CampaignFig4, CampaignFig6, CampaignFig7, CampaignMatrix, CampaignTable2, CampaignAblation, CampaignSubflow,
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

// TestCampaignShardMatchesDirectRunner pins that there is one runner: the
// ablation campaign in four shards through the table and the JSON encoding
// renders what its one unsharded shard file renders straight from memory.
// The plumbing is the same for every campaign, so these tests use the
// cheapest one (5 dumbbell cells); TestGoldens/sweep runs the k=8 sweep
// itself through a 2-shard merge.
func TestCampaignShardMatchesDirectRunner(t *testing.T) {
	whole, err := RunCampaign(CampaignAblation, RunParams{}, Unsharded, nil)
	if err != nil {
		t.Fatalf("unsharded run: %v", err)
	}
	want := rendered(t, whole)
	const count = 4
	blobs := make([]ShardBlob, count)
	for i := range blobs {
		data, _, err := RunCampaignShard(CampaignAblation, RunParams{}, ShardSpec{Index: i, Count: count}, nil)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, count, err)
		}
		blobs[i] = ShardBlob{Name: fmt.Sprintf("shard-%d.json", i), Data: data}
	}
	res, err := MergeShardBlobs(blobs)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var got bytes.Buffer
	res.Render(&got)
	if got.String() != want || want == "" {
		t.Fatalf("4 shards through JSON diverge from the unsharded shard file:\n--- unsharded ---\n%s\n--- merged ---\n%s", want, got.String())
	}
	// What the CLI checks to refuse -json before any work is exactly
	// whether the export exists.
	if info, _ := LookupCampaign(CampaignAblation); info.Plot || res.WriteJSON(io.Discard) == nil {
		t.Error("ablation declares no plot export, yet has one")
	}
}

// TestEleventhCampaign declares a throw-away campaign — one descriptor
// appended to the table, nothing else — and gets every derived capability:
// a name, a runner, probe, shard files, decode, merge, render, table
// selection and the plot export.
func TestEleventhCampaign(t *testing.T) {
	type square struct{ N, Sq int }
	const name = "squares"
	desc := "squares"
	campaigns = append(campaigns, listOf(descriptor[square, []square]{
		Name: name,
		Doc:  "test campaign",
		Plan: func(p RunParams) Plan[square] {
			return Plan[square]{
				Desc:     desc,
				Cells:    p.K,
				Run:      func(_ *Worker, i int) square { return square{i, i * i} },
				Progress: func(w io.Writer, s square) { fmt.Fprintf(w, "square %d\n", s.N) },
			}
		},
		Tables: []view[[]square]{
			{"ns", func(w io.Writer, ss []square) { fmt.Fprintln(w, "n:", len(ss)) }},
			{"sum", func(w io.Writer, ss []square) {
				sum := 0
				for _, s := range ss {
					sum += s.Sq
				}
				fmt.Fprintln(w, "sum:", sum)
			}},
		},
		Plot: func(w io.Writer, ss []square) error { return json.NewEncoder(w).Encode(ss[len(ss)-1]) },
	}))
	t.Cleanup(func() { campaigns = campaigns[:len(campaigns)-1] })

	if !slices.Contains(CampaignNames(), name) {
		t.Fatalf("CampaignNames() = %v, missing %q", CampaignNames(), name)
	}
	info, ok := LookupCampaign(name)
	if !ok || !info.Plot || !slices.Equal(info.Tables, []string{"ns", "sum"}) {
		t.Fatalf("LookupCampaign = %+v, %v", info, ok)
	}
	if all := Campaigns(); all[len(all)-1].Name != name {
		t.Fatalf("Campaigns() does not end with the new campaign: %+v", all)
	}
	p := RunParams{K: 5}
	if _, _, cells, err := CampaignProbe(name, p); err != nil || cells != 5 {
		t.Fatalf("probe: %d cells, %v", cells, err)
	}
	var progress bytes.Buffer
	merged := func() *MergeResult {
		blobs := make([]ShardBlob, 2)
		for i := range blobs {
			data, m, err := RunCampaignShard(name, p, ShardSpec{Index: i, Count: 2}, &progress)
			if err != nil || m.Campaign != name {
				t.Fatalf("shard %d/2: campaign %q, %v", i, m.Campaign, err)
			}
			blobs[i] = ShardBlob{Name: fmt.Sprintf("shard-%d.json", i), Data: data}
		}
		res, err := MergeShardBlobs(blobs)
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		return res
	}
	res := merged()
	if got, want := progress.String(), "square 0\nsquare 2\nsquare 4\nsquare 1\nsquare 3\n"; got != want {
		t.Errorf("progress = %q, want %q", got, want)
	}
	var out, plot bytes.Buffer
	res.Render(&out)
	if got, want := out.String(), "n: 5\n\nsum: 30\n"; got != want {
		t.Errorf("render = %q, want %q", got, want)
	}
	if err := res.WriteJSON(&plot); err != nil || plot.String() != "{\"N\":4,\"Sq\":16}\n" {
		t.Errorf("plot = %q, %v", plot.String(), err)
	}
	// A scenario-style config selects tables by name, in its own order.
	desc = `scenario {"metrics": ["sum"]}`
	out.Reset()
	merged().Render(&out)
	if got, want := out.String(), "sum: 30\n"; got != want {
		t.Errorf("render with a metric selection = %q, want %q", got, want)
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
