package exp

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// The golden files at the repo root are the full-scale `xmpsim <campaign>
// -q` outputs (stdout plus the stderr timing trailer). These tests
// regenerate them through the sharded path — run in shards through the
// campaign registry, exported through the real JSON encoding, merged — and
// fail with a line-level diff on drift. There is one golden test per
// campaign: matrix, fct and robustness exist only as the specs in
// scenarios/, which register_test.go links into this test binary. A
// full-scale matrix or table2 takes minutes, so those two only run when
// XMP_GOLDEN=1 is set (CI's merge job covers the same contract by diffing
// merged shard artifacts against the goldens).

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

func goldenEnabled(t *testing.T) {
	t.Helper()
	if os.Getenv("XMP_GOLDEN") != "1" {
		t.Skip("full-scale golden regeneration; set XMP_GOLDEN=1 to run (~minutes)")
	}
}

// goldenViaRegistry runs the named campaign at default params in count
// shards through the registry, merges the shard files and diffs the render
// against the golden file at the repo root.
func goldenViaRegistry(t *testing.T, campaign string, count int, goldenName string) {
	t.Helper()
	golden, err := os.ReadFile("../../" + goldenName)
	if err != nil {
		t.Fatal(err)
	}
	blobs := make([]ShardBlob, count)
	for i := range blobs {
		data, _, err := RunCampaignShard(campaign, RunParams{}, ShardSpec{Index: i, Count: count}, nil)
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
}

func TestGoldenMatrixViaShards(t *testing.T) {
	goldenEnabled(t)
	goldenViaRegistry(t, CampaignMatrix, 2, "results_matrix.txt")
}

func TestGoldenTable2ViaShards(t *testing.T) {
	goldenEnabled(t)
	golden, err := os.ReadFile("../../results_table2.txt")
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*ShardFile[Table2Cell], 2)
	for i := range files {
		files[i] = RunTable2Campaign(Table2Config{}, ShardSpec{i, 2}, nil)
	}
	res, err := MergeShardBlobs(encodeBlobs(t, files))
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var got bytes.Buffer
	res.Render(&got)
	diffLines(t, "results_table2.txt", stripTrailer(string(golden)), stripTrailer(got.String()))
}
