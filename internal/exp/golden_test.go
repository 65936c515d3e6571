package exp

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// The golden files at the repo root are the full-scale `xmpsim <campaign>
// -q` outputs (stdout plus the stderr timing trailer). TestGoldens
// regenerates every one through the sharded path — run in shards through
// the campaign table, exported through the real JSON encoding, merged —
// and fails with a line-level diff on drift. It then evaluates the
// campaign's claims (claims_test.go) on the same merged result, so the
// conclusions EXPERIMENTS.md draws are checked on the run its numbers come
// from. The spec-backed campaigns exist only as the specs in scenarios/,
// which register_test.go links into this test binary. TestFigureGoldens
// does the same for the four figure campaigns. The four slowest (matrix
// 35 s, fig7 26 s, params 23 s, table2 18 s on a 2-core box) only run when
// XMP_GOLDEN=1 is set, as CI's slow-goldens job sets it; CI's golden and
// merge jobs cover the byte contract from the CLI.

// stripTrailer drops the stderr timing trailer — the final blank line and
// "[<cmd> completed in <dur>]" — which is not reproducible.
func stripTrailer(golden string) string {
	lines := strings.Split(golden, "\n")
	for len(lines) > 0 {
		last := lines[len(lines)-1]
		if last == "" || strings.HasPrefix(last, "[") {
			lines = lines[:len(lines)-1]
			continue
		}
		break
	}
	return strings.Join(lines, "\n") + "\n"
}

// diffLines reports the first few differing lines, 1-indexed.
func diffLines(t *testing.T, name, want, got string) {
	t.Helper()
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	var diffs []string
	for i := 0; i < n && len(diffs) < 10; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			diffs = append(diffs, fmt.Sprintf("line %d:\n  golden: %q\n  merged: %q", i+1, w, g))
		}
	}
	if len(diffs) > 0 {
		t.Errorf("%s drifted from golden (%d/%d lines; first %d diffs):\n%s",
			name, len(wl), len(gl), len(diffs), strings.Join(diffs, "\n"))
	}
}

// slowGoldens are the campaigns the golden tests run only under
// XMP_GOLDEN=1.
var slowGoldens = map[string]bool{CampaignMatrix: true, CampaignFig7: true, CampaignParams: true, CampaignTable2: true}

// figureGoldens are the testbed-figure campaigns, pinned by
// TestFigureGoldens; TestGoldens pins the rest of the campaign table.
var figureGoldens = map[string]bool{CampaignFig1: true, CampaignFig4: true, CampaignFig6: true, CampaignFig7: true}

// TestGoldens ranges over the campaign table: a declared campaign without
// a results_<name>.txt fails, so a new campaign cannot ship unpinned.
func TestGoldens(t *testing.T) {
	for _, c := range Campaigns() {
		if figureGoldens[c.Name] {
			continue
		}
		t.Run(c.Name, func(t *testing.T) { checkGolden(t, c.Name) })
	}
}

// TestFigureGoldens pins the four figure campaigns through the same
// 2-shard merge; fig7 (26 s) only runs under XMP_GOLDEN=1.
func TestFigureGoldens(t *testing.T) {
	for _, c := range Campaigns() {
		if !figureGoldens[c.Name] {
			continue
		}
		t.Run(c.Name, func(t *testing.T) { checkGolden(t, c.Name) })
	}
}

// checkGolden runs campaign name in two shards, merges them, diffs the
// rendered result against results_<name>.txt and checks the campaign's
// claims on the merged result.
func checkGolden(t *testing.T, name string) {
	t.Helper()
	goldenName := "results_" + name + ".txt"
	golden, err := os.ReadFile("../../" + goldenName)
	if err != nil {
		t.Fatalf("every declared campaign needs a golden: %v", err)
	}
	if testing.Short() || slowGoldens[name] && os.Getenv("XMP_GOLDEN") != "1" {
		t.Skip("full-scale campaign (~45 s for the ten fast ones); the four slow ones need XMP_GOLDEN=1")
	}
	const count = 2 // every golden crosses a merge
	blobs := make([]ShardBlob, count)
	for i := range blobs {
		data, _, err := RunCampaignShard(name, RunParams{}, ShardSpec{Index: i, Count: count}, nil)
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
	diffLines(t, goldenName, stripTrailer(string(golden)), stripTrailer(got.String()))
	checkClaims(t, name, res.value)
}
