package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"xmp/internal/sim"
	"xmp/internal/workload"
)

func TestParseShardSpec(t *testing.T) {
	good := map[string]ShardSpec{
		"0/1":   {0, 1},
		"2/4":   {2, 4},
		" 1 /3": {1, 3},
	}
	for in, want := range good {
		got, err := ParseShardSpec(in)
		if err != nil {
			t.Errorf("ParseShardSpec(%q): %v", in, err)
		} else if got != want {
			t.Errorf("ParseShardSpec(%q) = %v, want %v", in, got, want)
		}
	}
	for _, in := range []string{"", "3", "a/b", "4/4", "-1/2", "1/0", "1/-2"} {
		if _, err := ParseShardSpec(in); err == nil {
			t.Errorf("ParseShardSpec(%q): want error", in)
		}
	}
}

func TestShardSpecPartition(t *testing.T) {
	// For any cell count, the shards of a count partition the cell space:
	// each cell owned by exactly one shard, round-robin by index, and
	// Owned agrees with Owns.
	for _, count := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{0, 1, 5, 12, 17} {
			owner := make([]int, n)
			for i := range owner {
				owner[i] = -1
			}
			for idx := 0; idx < count; idx++ {
				s := ShardSpec{Index: idx, Count: count}
				owned := s.Owned(n)
				seen := map[int]bool{}
				for _, c := range owned {
					seen[c] = true
					if !s.Owns(c) {
						t.Fatalf("%v.Owned(%d) lists %d but Owns is false", s, n, c)
					}
					if owner[c] != -1 {
						t.Fatalf("cell %d owned by shards %d and %d of %d", c, owner[c], idx, count)
					}
					owner[c] = idx
				}
				for c := 0; c < n; c++ {
					if s.Owns(c) != seen[c] {
						t.Fatalf("%v: Owns(%d)=%v but Owned(%d)=%v", s, c, s.Owns(c), n, owned)
					}
					if s.Owns(c) && c%count != idx {
						t.Fatalf("%v owns cell %d: not round-robin", s, c)
					}
				}
			}
			for c, o := range owner {
				if o == -1 {
					t.Fatalf("count=%d n=%d: cell %d unowned", count, n, c)
				}
			}
		}
	}
}

func TestShardManifest(t *testing.T) {
	m := newManifest(CampaignParams, "params betas=[2 4] ks=[10]", ShardSpec{1, 3}, 8)
	if m.SchemaVersion != ShardSchemaVersion || m.Campaign != CampaignParams {
		t.Fatalf("manifest header: %+v", m)
	}
	if m.ShardIndex != 1 || m.ShardCount != 3 || m.TotalCells != 8 {
		t.Fatalf("manifest spec: %+v", m)
	}
	if want := []int{1, 4, 7}; fmt.Sprint(m.CellIndices) != fmt.Sprint(want) {
		t.Fatalf("cell indices %v, want %v", m.CellIndices, want)
	}
	if m.ConfigHash == "" || m.ConfigHash == HashConfig("something else") {
		t.Fatalf("config hash not a function of the config: %q", m.ConfigHash)
	}
}

func TestRunShardMatchesRunAll(t *testing.T) {
	// The shards of any count, pooled, must reproduce RunAll's results, and
	// each shard's done callbacks fire in ascending cell order.
	full := RunAll(10, 4, func(_ *Worker, i int) int { return i * i }, nil)
	for _, count := range []int{1, 2, 3} {
		got := make([]int, 10)
		for idx := 0; idx < count; idx++ {
			var doneOrder []int
			cells := RunShard(10, 2, ShardSpec{idx, count},
				func(_ *Worker, i int) int { return i * i },
				func(i int, r int) {
					if r != i*i {
						t.Fatalf("done(%d) got %d", i, r)
					}
					doneOrder = append(doneOrder, i)
				})
			for j, c := range cells {
				got[c.Cell] = c.Data
				if doneOrder[j] != c.Cell {
					t.Fatalf("shard %d/%d: done order %v vs cells %v", idx, count, doneOrder, cells)
				}
			}
		}
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("count=%d: cell %d = %d, want %d", count, i, got[i], full[i])
			}
		}
	}
}

// mutatedSet builds a valid 3-shard manifest set and applies f to one
// manifest.
func mutatedSet(f func(*ShardManifest)) []ShardManifest {
	ms := make([]ShardManifest, 3)
	for i := range ms {
		ms[i] = newManifest(CampaignSubflow, "sweep counts=[1 2 4] duration=1", ShardSpec{i, 3}, 3)
	}
	f(&ms[1])
	return ms
}

func TestValidateShardSet(t *testing.T) {
	if err := ValidateShardSet(mutatedSet(func(*ShardManifest) {})); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*ShardManifest)
		wantErr string
	}{
		{"schema", func(m *ShardManifest) { m.SchemaVersion = 99 }, "schema version"},
		{"campaign", func(m *ShardManifest) { m.Campaign = CampaignMatrix }, "campaign mismatch"},
		{"config", func(m *ShardManifest) { m.ConfigHash = HashConfig("other") }, "config mismatch"},
		{"count", func(m *ShardManifest) { m.ShardCount = 4 }, "mismatch"},
		{"cells", func(m *ShardManifest) { m.TotalCells = 5 }, "cell count mismatch"},
		{"duplicate", func(m *ShardManifest) {
			*m = newManifest(CampaignSubflow, "sweep counts=[1 2 4] duration=1", ShardSpec{0, 3}, 3)
		}, "given twice"},
		{"overlap", func(m *ShardManifest) { m.CellIndices = []int{0} }, "overlap"},
		{"range", func(m *ShardManifest) { m.CellIndices = []int{7} }, "outside"},
		{"gap", func(m *ShardManifest) { m.CellIndices = nil }, "missing (gap)"},
	}
	for _, tc := range cases {
		err := ValidateShardSet(mutatedSet(tc.mutate))
		if err == nil {
			t.Errorf("%s: invalid set accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
	if err := ValidateShardSet(nil); err == nil {
		t.Error("empty set accepted")
	}
}

// encodeBlobs round-trips shard files through their real JSON encoding,
// exactly as `xmpsim -shard -json` + `xmpsim merge` do.
func encodeBlobs[T any](t *testing.T, files []*ShardFile[T]) []ShardBlob {
	t.Helper()
	blobs := make([]ShardBlob, len(files))
	for i, f := range files {
		var buf bytes.Buffer
		if err := f.Encode(&buf); err != nil {
			t.Fatalf("encode shard %d: %v", i, err)
		}
		blobs[i] = ShardBlob{Name: fmt.Sprintf("shard-%d.json", i), Data: buf.Bytes()}
	}
	return blobs
}

// rendered merges shard files as the runner returned them — no JSON in
// between — and renders the campaign: the in-memory reference the
// through-JSON merges are compared against.
func rendered(t *testing.T, files ...ShardEncoder) string {
	t.Helper()
	res, err := MergeShards(files)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	return buf.String()
}

// miniMatrixPlan plans a small k=4 grid. MatrixPlan takes its config
// description from its caller — the scenario compiler in production — so
// each test describes its own grid; one constant suffices because no test
// merges shards of different grids.
func miniMatrixPlan(base CellConfig, patterns []Pattern, schemes []workload.Scheme) Plan[*MatrixCell] {
	rows := make([]Row, len(patterns))
	for i, p := range patterns {
		rows[i] = Row{Pattern: p}
	}
	return MatrixPlan("exp test mini-matrix", base, rows, schemes)
}

// miniMatrix runs a small grid unsharded and assembles the Matrix.
func miniMatrix(t *testing.T, base CellConfig, patterns []Pattern, schemes []workload.Scheme, jobs int, progress io.Writer) *Matrix {
	t.Helper()
	f := RunPlan(CampaignMatrix, miniMatrixPlan(base, patterns, schemes), Unsharded, jobs, progress)
	cells, err := MergeShardCells([]*ShardFile[*MatrixCell]{f})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	m, err := assembleMatrix(cells, matrixFamily.reads(nil))
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return m
}

// TestMatrixShardMergeByteIdentical pins the tentpole contract: running the
// matrix campaign in n shards, exporting each through the real JSON
// encoding, and merging must render byte-identically to the unsharded run —
// for n=1 and n=4.
func TestMatrixShardMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix runs are slow")
	}
	plan := miniMatrixPlan(CellConfig{K: 4, Duration: 40 * sim.Millisecond, SizeScale: 256},
		[]Pattern{Permutation, Incast}, []workload.Scheme{SchemeDCTCP, SchemeXMP2})
	whole := RunPlan(CampaignMatrix, plan, Unsharded, 4, nil)
	want := rendered(t, whole)

	for _, count := range []int{1, 4} {
		files := []*ShardFile[*MatrixCell]{whole}
		if count > 1 {
			files = make([]*ShardFile[*MatrixCell], count)
			for i := range files {
				files[i] = RunPlan(CampaignMatrix, plan, ShardSpec{i, count}, 2, nil)
			}
		}
		res, err := MergeShardBlobs(encodeBlobs(t, files))
		if err != nil {
			t.Fatalf("n=%d: merge: %v", count, err)
		}
		if res.Campaign != CampaignMatrix {
			t.Fatalf("n=%d: merged %q", count, res.Campaign)
		}
		var got bytes.Buffer
		res.Render(&got)
		if got.String() != want {
			t.Errorf("n=%d: merged render diverges from unsharded:\n--- unsharded ---\n%s\n--- merged ---\n%s",
				count, want, got.String())
		}
	}
}

// TestTable2ShardMergeByteIdentical does the same for the coexistence
// campaign through its spec — tables and the -json plot export alike, for
// n=1, 3 and 4 — and additionally pins that the rendered campaign is its
// two switch variants back to back.
func TestTable2ShardMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 runs are slow")
	}
	p := RunParams{K: 4, Timescale: 0.1, SizeScale: 256, Jobs: 4}
	whole, err := RunCampaign(CampaignTable2, p, Unsharded, nil)
	if err != nil {
		t.Fatal(err)
	}
	inMemory, err := MergeShards([]ShardEncoder{whole})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var want, wantPlot bytes.Buffer
	inMemory.Render(&want)
	if err := inMemory.WriteJSON(&wantPlot); err != nil {
		t.Fatalf("plot export: %v", err)
	}
	variants := strings.SplitAfter(want.String(), "\n\n")
	if len(variants) != 2 || !strings.Contains(variants[0], "(non-ECT uses full buffer)") ||
		!strings.Contains(variants[1], "(RED-strict: non-ECT dropped above K)") || !strings.HasPrefix(want.String(), "\nTable 2: ") {
		t.Errorf("campaign render is not its two variants back to back, each after a blank line:\n%s", want.String())
	}

	for _, count := range []int{1, 3, 4} {
		blobs := make([]ShardBlob, count)
		for i := range blobs {
			data, _, err := RunCampaignShard(CampaignTable2, p, ShardSpec{i, count}, nil)
			if err != nil {
				t.Fatalf("n=%d: shard %d: %v", count, i, err)
			}
			blobs[i] = ShardBlob{Name: fmt.Sprintf("shard-%d.json", i), Data: data}
		}
		res, err := MergeShardBlobs(blobs)
		if err != nil {
			t.Fatalf("n=%d: merge: %v", count, err)
		}
		var got, gotPlot bytes.Buffer
		res.Render(&got)
		if got.String() != want.String() {
			t.Errorf("n=%d: merged render diverges from unsharded:\n--- unsharded ---\n%s\n--- merged ---\n%s",
				count, want.String(), got.String())
		}
		if err := res.WriteJSON(&gotPlot); err != nil {
			t.Fatalf("n=%d: plot export: %v", count, err)
		}
		if !bytes.Equal(gotPlot.Bytes(), wantPlot.Bytes()) || wantPlot.Len() == 0 {
			t.Errorf("n=%d: merged plot JSON diverges from unsharded:\n--- unsharded ---\n%s\n--- merged ---\n%s",
				count, wantPlot.String(), gotPlot.String())
		}
	}
}

// TestMergeRejectsForeignCampaign pins the decode-side check that blobs
// from different campaigns refuse to merge.
func TestMergeRejectsForeignCampaign(t *testing.T) {
	ablation := &ShardFile[AblationResult]{
		Manifest: newManifest(CampaignAblation, "ablation", ShardSpec{0, 2}, 2),
		Cells:    []ShardCell[AblationResult]{{Cell: 0}},
	}
	matrix := &ShardFile[*MatrixCell]{
		Manifest: newManifest(CampaignMatrix, "matrix", ShardSpec{1, 2}, 2),
		Cells:    []ShardCell[*MatrixCell]{{Cell: 1}},
	}
	blobs := append(encodeBlobs(t, []*ShardFile[AblationResult]{ablation}),
		encodeBlobs(t, []*ShardFile[*MatrixCell]{matrix})...)
	if _, err := MergeShardBlobs(blobs); err == nil || !strings.Contains(err.Error(), "campaign mismatch") {
		t.Fatalf("foreign campaign accepted: %v", err)
	}
}

// TestMergeRejectsCellManifestDisagreement pins the file-level check that
// carried cells must match the manifest's claimed indices.
func TestMergeRejectsCellManifestDisagreement(t *testing.T) {
	f := &ShardFile[AblationResult]{
		Manifest: newManifest(CampaignAblation, "ablation", Unsharded, 2),
		Cells:    []ShardCell[AblationResult]{{Cell: 0}},
	}
	if _, err := MergeShardCells([]*ShardFile[AblationResult]{f}); err == nil ||
		!strings.Contains(err.Error(), "manifest lists") {
		t.Fatalf("short cell list accepted: %v", err)
	}
	f.Cells = []ShardCell[AblationResult]{{Cell: 1}, {Cell: 0}}
	if _, err := MergeShardCells([]*ShardFile[AblationResult]{f}); err == nil {
		t.Fatal("misordered cell list accepted")
	}
}

// TestMergeRefusesBadGrid pins that merge reads the matrix axes off the
// cells and refuses, naming the cell, a shard set whose cells do not form
// the row × scheme grid: transposed, short, or with a repeated row or
// column. Two β variants of one scheme are two columns. A matrix cell that
// lacks a selected metric, or carries one no selected table reads, is
// refused naming the cell and the metric.
func TestMergeRefusesBadGrid(t *testing.T) {
	mxWith := func(edit func(map[string]float64), cells ...string) ShardEncoder {
		f := &ShardFile[*MatrixCell]{Manifest: newManifest(CampaignMatrix, "grid", Unsharded, len(cells))}
		for i, c := range cells {
			p, s, _ := strings.Cut(c, "/")
			sch, err := workload.ParseScheme(s)
			if err != nil {
				t.Fatal(err)
			}
			metrics := map[string]float64{}
			for _, n := range matrixFamily.reads(nil) {
				metrics[n] = 1
			}
			if i == len(cells)-1 {
				edit(metrics)
			}
			f.Cells = append(f.Cells, ShardCell[*MatrixCell]{i, &MatrixCell{Row: Row{Pattern: Pattern(p)}, Scheme: sch, Metrics: metrics}})
		}
		return f
	}
	mx := func(cells ...string) ShardEncoder { return mxWith(func(map[string]float64) {}, cells...) }
	for _, tc := range []struct {
		name string
		set  ShardEncoder
		want string // "" for a grid
	}{
		{"matrix grid", mx("Permutation/DCTCP", "Permutation/XMP-2", "Incast/DCTCP", "Incast/XMP-2"), ""},
		{"matrix transposed", mx("Permutation/DCTCP", "Incast/DCTCP", "Permutation/XMP-2", "Incast/XMP-2"), "cell 2 "},
		{"matrix column out of place", mx("Permutation/DCTCP", "Permutation/XMP-2", "Incast/XMP-2", "Incast/DCTCP"), "cell 2 "},
		{"matrix repeated column", mx("Permutation/DCTCP", "Permutation/DCTCP"), "cell 1 "},
		{"matrix beta variants", mx("Permutation/XMP-2", "Permutation/XMP-2/b6", "Incast/XMP-2", "Incast/XMP-2/b6"), ""},
		{"matrix short row", mx("Permutation/DCTCP", "Permutation/XMP-2", "Incast/DCTCP"), "cell 2 "},
		{"matrix null cell", &ShardFile[*MatrixCell]{Manifest: newManifest(CampaignMatrix, "grid", Unsharded, 1),
			Cells: []ShardCell[*MatrixCell]{{0, nil}}}, "cell 0 is null"},
		{"matrix cell lacks a metric", mxWith(func(m map[string]float64) { delete(m, "jct.cdf@25ms") }, "Permutation/DCTCP", "Permutation/XMP-2"),
			`cell 1 (Permutation XMP-2 lacks metric "jct.cdf@25ms")`},
		{"matrix cell carries an unknown metric", mxWith(func(m map[string]float64) { m["goodput.p1"] = 0 }, "Permutation/DCTCP"),
			`cell 0 (Permutation DCTCP carries metric "goodput.p1", which no selected table reads)`},
		{"matrix cell carries an unselected metric", mxWith(func(m map[string]float64) { m["drops"] = 0 }, "Permutation/DCTCP"),
			`metric "drops"`},
	} {
		_, err := MergeShards([]ShardEncoder{tc.set})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: merged with error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestShardFileWirePin pins the bytes of a small fixed matrix shard file —
// a manifest and two cells of named metrics, among them the smallest
// subnormal, 1e21 and -0 — by SHA-256, and checks that decoding it and
// re-encoding changes nothing. A metric travels as encoding/json spells a
// float64, so the hash is the same on any CPU: run under GOARCH=386 it
// proves the wire does not depend on word size. A deliberate wire change
// re-pins the hash and bumps ShardSchemaVersion.
func TestShardFileWirePin(t *testing.T) {
	const want = "4601f7b8360adfb29b16fdcf924899659137c7165db2019f29d6e77a6873929e"
	f := &ShardFile[*MatrixCell]{Manifest: newManifest(CampaignMatrix, `scenario {"metrics":["vl2"]}`, Unsharded, 2)}
	for i, vs := range [][]float64{{5e-324, 1e21, math.Copysign(0, -1), 0.1 + 0.2}, {0.25, 1e-7, 123456.789e-3, 3}} {
		c := &MatrixCell{Row: Row{Pattern: Random, SACK: i == 1}, Scheme: SchemeLIA2, Metrics: map[string]float64{}}
		for j, n := range vl2Reads {
			c.Metrics[n] = vs[j]
		}
		f.Cells = append(f.Cells, ShardCell[*MatrixCell]{i, c})
	}
	data := encodeBlobs(t, []*ShardFile[*MatrixCell]{f})[0].Data
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("shard file hashes to %s, pinned %s:\n%s", got, want, data)
	}

	back, err := DecodeShard(ShardBlob{Name: "pin.json", Data: data})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var again bytes.Buffer
	if err := back.Encode(&again); err != nil || !bytes.Equal(again.Bytes(), data) {
		t.Errorf("decode + re-encode changed the shard file (%v):\n--- first ---\n%s\n--- second ---\n%s", err, data, again.Bytes())
	}
	if _, err := MergeShards([]ShardEncoder{back}); err != nil {
		t.Errorf("the pinned file does not merge: %v", err)
	}
}

// TestDecodeOnArrivalMatchesMergeShardBlobs pins the dispatch
// coordinator's merge path against the one `xmpsim merge` takes: shard
// files decoded one at a time, concurrently and out of order, then handed
// to MergeShards, render the same bytes as MergeShardBlobs over the set.
func TestDecodeOnArrivalMatchesMergeShardBlobs(t *testing.T) {
	plan := miniMatrixPlan(CellConfig{K: 4, Duration: 10 * sim.Millisecond, SizeScale: 1024},
		[]Pattern{Permutation}, []workload.Scheme{SchemeDCTCP, SchemeXMP2})
	const count = 2
	files := make([]*ShardFile[*MatrixCell], count)
	for i := range files {
		files[i] = RunPlan(CampaignMatrix, plan, ShardSpec{i, count}, 1, nil)
	}
	blobs := encodeBlobs(t, files)

	whole, err := MergeShardBlobs(blobs)
	if err != nil {
		t.Fatalf("MergeShardBlobs: %v", err)
	}
	var want bytes.Buffer
	whole.Render(&want)

	decoded := make([]ShardEncoder, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for i := range blobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Reversed: arrival order is not shard order.
			decoded[count-1-i], errs[i] = DecodeShard(blobs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("DecodeShard(%s): %v", blobs[i].Name, err)
		}
	}
	merged, err := MergeShards(decoded)
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	var got bytes.Buffer
	merged.Render(&got)
	if got.String() != want.String() || want.Len() == 0 {
		t.Errorf("decode-on-arrival render diverges from MergeShardBlobs:\n--- blobs ---\n%s\n--- on arrival ---\n%s", want.String(), got.String())
	}

	// What DecodeShard refuses, and how it names the file — and, for a
	// cell's content, the field.
	mean := regexp.MustCompile(`"goodput\.mean":[^,}]*`)
	for _, bad := range []struct {
		blob ShardBlob
		want string
	}{
		{ShardBlob{Name: "array.json", Data: []byte(`[]`)}, ""},
		{ShardBlob{Name: "truncated.json", Data: blobs[0].Data[:len(blobs[0].Data)/2]}, ""},
		{ShardBlob{Name: "nameless.json", Data: []byte(`{"cells": [], "manifest": {"campaign": "nope"}}`)}, ""},
		{ShardBlob{Name: "string-metric.json", Data: mean.ReplaceAll(blobs[1].Data, []byte(`"goodput.mean":"fast"`))},
			"Metrics"},
	} {
		_, err := DecodeShard(bad.blob)
		if err == nil || !strings.Contains(err.Error(), bad.blob.Name) || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("DecodeShard(%s) = %v, want an error naming the file and %q", bad.blob.Name, err, bad.want)
		}
	}
}

// TestDecodeShardRefusesUnknownField: a real sack shard with one key its
// result type does not have, in one cell's data, is refused naming the
// key — a renamed or retyped result field must not merge as its zero
// value — and so is one with an unknown manifest key, or with bytes after
// its object; trailing white space decodes.
func TestDecodeShardRefusesUnknownField(t *testing.T) {
	data, _, err := RunCampaignShard(CampaignSACK, RunParams{K: 4, Timescale: 0.05, SizeScale: 256}, ShardSpec{0, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeShard(ShardBlob{Name: "sack.json", Data: data}); err != nil {
		t.Fatalf("the shard as written is refused: %v", err)
	}
	extra := bytes.Replace(data, []byte(`"data":{`), []byte(`"data":{"GoodputRenamed":1,`), 1)
	if bytes.Equal(extra, data) {
		t.Fatal("the shard has no cell data to add a key to")
	}
	if _, err := DecodeShard(ShardBlob{Name: "extra.json", Data: extra}); err == nil || !strings.Contains(err.Error(), `"GoodputRenamed"`) {
		t.Fatalf("a cell with an unknown key decoded, or the error does not name it: %v", err)
	}
	top := bytes.Replace(data, []byte(`"manifest":{`), []byte(`"manifest":{"shard_total":3,`), 1)
	if _, err := DecodeShard(ShardBlob{Name: "top.json", Data: top}); err == nil || !strings.Contains(err.Error(), `"shard_total"`) {
		t.Fatalf("a manifest with an unknown key decoded, or the error does not name it: %v", err)
	}
	if _, err := DecodeShard(ShardBlob{Name: "trailing.json", Data: append(slices.Clip(data), " {}"...)}); err == nil {
		t.Fatal("a shard with a second value after its object decoded")
	}
	if _, err := DecodeShard(ShardBlob{Name: "space.json", Data: append(slices.Clip(data), " \n"...)}); err != nil {
		t.Fatalf("trailing white space refused: %v", err)
	}
}

// TestDecodeShardRefusesOtherSchema pins that a matrix file of schema v4,
// whose cells carried the whole result, is refused for its version, not for
// the first key a v5 cell does not have.
func TestDecodeShardRefusesOtherSchema(t *testing.T) {
	v4 := `{"manifest":{"schema_version":4,"campaign":"matrix","config":"c","config_hash":"h",` +
		`"shard_index":0,"shard_count":1,"total_cells":1,"cell_indices":[0]},` +
		`"cells":[{"cell":0,"data":{"Pattern":"Permutation","Scheme":{"Algorithm":7,"Subflows":1,"Beta":0},` +
		`"Collector":{"Goodput":{"sum":1,"samples":"AAAAAAAA8D8="}}}}]}`
	_, err := DecodeShard(ShardBlob{Name: "v4.json", Data: []byte(v4)})
	if want := fmt.Sprintf("v4.json: schema version 4, this binary reads %d", ShardSchemaVersion); err == nil || err.Error() != want {
		t.Fatalf("a v4 matrix file gave %v, want %q", err, want)
	}
}

// TestMergeAllocs bounds what merging a 4-cell k=4 matrix shard allocates:
// decoding each cell's named metrics, the grid and the metric check. At
// shard schema v4, whose cells carried every sample packed in a few strings,
// the same merge allocated 658 times; at v5 it allocates 633, most of them
// the metric names each cell's map decodes.
func TestMergeAllocs(t *testing.T) {
	plan := miniMatrixPlan(CellConfig{K: 4, Duration: 10 * sim.Millisecond, SizeScale: 1024},
		[]Pattern{Permutation, Incast}, []workload.Scheme{SchemeDCTCP, SchemeXMP2})
	blobs := encodeBlobs(t, []*ShardFile[*MatrixCell]{RunPlan(CampaignMatrix, plan, Unsharded, 1, nil)})
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := MergeShardBlobs(blobs); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 650
	if allocs > bound {
		t.Errorf("merging a 4-cell matrix shard allocates %v times, bound %d", allocs, bound)
	}
}
