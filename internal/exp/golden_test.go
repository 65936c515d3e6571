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
// and fails with a line-level diff on drift. matrix, fct and robustness
// exist only as the specs in scenarios/, which register_test.go links into
// this test binary. The three slowest (matrix 35 s, params 23 s, table2
// 18 s on a 2-core box) only run when XMP_GOLDEN=1 is set; CI's golden and
// merge jobs cover the same contract from the CLI. TestFigureGoldens pins
// the figure table's four files the same way, minus the sharding.

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

// slowGoldens are the campaigns TestGoldens runs only under XMP_GOLDEN=1.
var slowGoldens = map[string]bool{CampaignMatrix: true, CampaignParams: true, CampaignTable2: true}

// TestGoldens ranges over the campaign table: a declared campaign without
// a results_<name>.txt fails, so a new campaign cannot ship unpinned.
func TestGoldens(t *testing.T) {
	for _, c := range Campaigns() {
		t.Run(c.Name, func(t *testing.T) {
			goldenName := "results_" + c.Name + ".txt"
			golden, err := os.ReadFile("../../" + goldenName)
			if err != nil {
				t.Fatalf("every declared campaign needs a golden: %v", err)
			}
			if testing.Short() || slowGoldens[c.Name] && os.Getenv("XMP_GOLDEN") != "1" {
				t.Skip("full-scale campaign (~40 s for the seven fast ones); the three slow ones need XMP_GOLDEN=1")
			}
			const count = 2 // every golden crosses a merge
			blobs := make([]ShardBlob, count)
			for i := range blobs {
				data, _, err := RunCampaignShard(c.Name, RunParams{}, ShardSpec{Index: i, Count: count}, nil)
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
		})
	}
}

// TestFigureGoldens ranges over the figure table as TestGoldens does over
// the campaign table: a declared figure without a results_<name>.txt fails.
// fig7 (26 s) only runs under XMP_GOLDEN=1; CI's golden job diffs it from
// the CLI.
func TestFigureGoldens(t *testing.T) {
	for _, f := range Figures {
		t.Run(f.Name, func(t *testing.T) {
			goldenName := "results_" + f.Name + ".txt"
			golden, err := os.ReadFile("../../" + goldenName)
			if err != nil {
				t.Fatalf("every declared figure needs a golden: %v", err)
			}
			if testing.Short() || f.Name == "fig7" && os.Getenv("XMP_GOLDEN") != "1" {
				t.Skip("full-scale figure (~5 s for fig1, fig4 and fig6); fig7 needs XMP_GOLDEN=1")
			}
			var got bytes.Buffer
			f.Render(&got, RunParams{Timescale: 1})
			diffLines(t, goldenName, stripTrailer(string(golden)), stripTrailer(got.String()))
		})
	}
}
