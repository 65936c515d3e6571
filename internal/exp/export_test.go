package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"xmp/internal/sim"
	"xmp/internal/workload"
)

// TestMatrixWriteJSON pins the matrix plot export: a cell per (row,
// scheme), each with exactly the merged metrics — for an empty selection
// the six tables' names, Figure 8's quantiles and Figure 9's points among
// them.
func TestMatrixWriteJSON(t *testing.T) {
	base := CellConfig{K: 4, Duration: 30 * sim.Millisecond, SizeScale: 256}
	m := miniMatrix(t, base, []Pattern{Permutation}, []workload.Scheme{SchemeXMP2}, 1, nil)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Cells []struct {
			Pattern string             `json:"pattern"`
			Scheme  string             `json:"scheme"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"cells"`
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded.Cells) != 1 {
		t.Fatalf("cells %d", len(decoded.Cells))
	}
	c := decoded.Cells[0]
	if c.Scheme != "XMP-2" || c.Pattern != "Permutation" {
		t.Fatalf("cell identity %+v", c)
	}
	want := matrixFamily.reads(nil)
	if len(c.Metrics) != len(want) {
		t.Errorf("%d metrics, want the six tables' %d", len(c.Metrics), len(want))
	}
	for _, n := range want {
		if _, ok := c.Metrics[n]; !ok {
			t.Errorf("missing metric %q", n)
		}
	}
	for _, n := range []string{"goodput.mean", "goodput.p5", "goodput.p95", "rtt.inter-pod.mean", "util.core.p50"} {
		if c.Metrics[n] <= 0 {
			t.Errorf("%s = %v, want a positive reading", n, c.Metrics[n])
		}
	}
	if _, ok := c.Metrics["jct.cdf@25ms"]; !ok {
		t.Error("missing Figure 9's 25 ms point")
	}
}

// TestTable2WriteJSON: table2's plot export is the matrix cell export — a
// cell per (row, scheme) of its spec, row-major, each carrying exactly the
// two halves' goodputs the table2 view reads.
func TestTable2WriteJSON(t *testing.T) {
	f, err := RunCampaign(CampaignTable2, RunParams{K: 4, Timescale: 0.05, SizeScale: 256}, Unsharded, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MergeShards([]ShardEncoder{f})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Cells []struct {
			Pattern string             `json:"pattern"`
			Scheme  string             `json:"scheme"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"cells"`
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded.Cells) != 12 {
		t.Fatalf("%d cells, want 12", len(decoded.Cells))
	}
	for i, c := range decoded.Cells {
		want := fmt.Sprintf("%s/%s", []string{"Random(q=50,coexist=XMP-2)", "Random(q=100,coexist=XMP-2)",
			"Random(q=50,strict,coexist=XMP-2)", "Random(q=100,strict,coexist=XMP-2)"}[i/3], []string{"LIA-2", "TCP", "DCTCP"}[i%3])
		if got := c.Pattern + "/" + c.Scheme; got != want {
			t.Errorf("cell %d is %s, want %s", i, got, want)
		}
		if len(c.Metrics) != 2 || c.Metrics["goodput.mean"] <= 0 || c.Metrics["coexist.goodput.mean"] <= 0 {
			t.Errorf("cell %d carries %v, want the two halves' positive goodputs alone", i, c.Metrics)
		}
	}
}
