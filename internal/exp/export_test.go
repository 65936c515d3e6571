package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xmp/internal/sim"
	"xmp/internal/workload"
)

func TestMatrixWriteJSON(t *testing.T) {
	base := FatTreeConfig{K: 4, Duration: 30 * sim.Millisecond, SizeScale: 256}
	m := miniMatrix(t, base, []Pattern{Permutation}, []workload.Scheme{SchemeXMP2}, 1, nil)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Cells []CellJSON `json:"cells"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded.Cells) != 1 {
		t.Fatalf("cells %d", len(decoded.Cells))
	}
	c := decoded.Cells[0]
	if c.Scheme != "XMP-2" || c.Pattern != "Permutation" {
		t.Fatalf("cell identity %+v", c)
	}
	if c.Flows == 0 || c.GoodputMbps.N == 0 || c.GoodputMbps.Mean <= 0 {
		t.Fatalf("empty stats %+v", c)
	}
	if len(c.GoodputMbps.CDFX) == 0 || len(c.GoodputMbps.CDFX) != len(c.GoodputMbps.CDFY) {
		t.Fatal("missing CDF points")
	}
	if _, ok := c.UtilByLayer["core"]; !ok {
		t.Fatal("missing core layer utilization")
	}
	if _, ok := c.RTTMsByCat["Inter-Pod"]; !ok {
		t.Fatal("missing inter-pod RTT")
	}
}

func TestTable2WriteJSON(t *testing.T) {
	cfg := Table2Config{
		KAry:        4,
		Duration:    30 * sim.Millisecond,
		SizeScale:   256,
		QueueLimits: []int{100},
		Others:      []workload.Scheme{SchemeTCP},
	}
	r := &Table2Result{Config: cfg, Cells: []Table2Cell{Table2Plan(cfg).Run(nil, 0)}}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) || !strings.Contains(buf.String(), "xmp_goodput_mbps") {
		t.Fatalf("bad JSON: %s", buf.String())
	}
}
