package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xmp/internal/workload"
)

// TestMatrixViewsDeclareReads renders every matrix table and view against
// cells that carry exactly the metrics it declares: a read of an
// undeclared name panics naming it, and so does the render after each
// declared name is left out — a table declares what it reads, no less and
// no more. The metric table defines exactly the names the tables and views
// read, and a selection reads the union of its tables' names, the six
// paper tables' for an empty one.
func TestMatrixViewsDeclareReads(t *testing.T) {
	rows := []Row{{Pattern: Permutation}, {Pattern: Random}, {Pattern: Incast}, {Pattern: Random, SACK: true}}
	schemes := []workload.Scheme{SchemeDCTCP, SchemeXMP2}
	matrix := func(names []string) *Matrix {
		var cells []*MatrixCell
		for _, row := range rows {
			for _, s := range schemes {
				c := &MatrixCell{Row: row, Scheme: s, Metrics: map[string]float64{}}
				for _, n := range names {
					c.Metrics[n] = 1
				}
				cells = append(cells, c)
			}
		}
		m, err := assembleMatrix(cells, names)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	render := func(v view[*Matrix], m *Matrix) (msg string) {
		defer func() {
			if p := recover(); p != nil {
				msg = fmt.Sprint(p)
			}
		}()
		v.Render(io.Discard, m)
		return ""
	}

	read := map[string]bool{}
	for _, v := range append(slices.Clip(matrixFamily.Tables), matrixFamily.Views...) {
		if msg := render(v, matrix(v.Reads)); msg != "" {
			t.Errorf("%s reads a metric it does not declare: %s", v.Name, msg)
		}
		for i, n := range v.Reads {
			read[n] = true
			if _, ok := cellMetrics[n]; !ok {
				t.Errorf("%s declares %q, which the metric table does not define", v.Name, n)
			}
			short := slices.Delete(slices.Clone(v.Reads), i, i+1)
			if msg := render(v, matrix(short)); !strings.Contains(msg, strconv.Quote(n)) {
				t.Errorf("%s without %q renders with %q, want a panic naming it", v.Name, n, msg)
			}
		}
	}
	for n := range cellMetrics {
		if !read[n] {
			t.Errorf("the metric table defines %q, which no table or view reads", n)
		}
	}

	union := func(vs ...[]string) []string {
		out := slices.Concat(vs...)
		slices.Sort(out)
		return slices.Compact(out)
	}
	var six [][]string
	for _, v := range matrixFamily.Tables {
		six = append(six, v.Reads)
	}
	for _, tc := range []struct {
		selection []string
		want      []string
	}{
		{nil, union(six...)},
		{[]string{"fig9", "table3"}, union(fig9Reads, table3Reads)},
		{[]string{CampaignSACK, CampaignVL2}, union(sackReads, vl2Reads)},
	} {
		if got := matrixFamily.reads(tc.selection); !slices.Equal(union(got), tc.want) || len(got) != len(tc.want) {
			t.Errorf("selection %q reads %q, want each of %q once", tc.selection, got, tc.want)
		}
	}
}

// FuzzMetricsJSON holds Metrics.MarshalJSON to encoding/json's spelling of
// the same map[string]float64, byte for byte: two named floats per input,
// the seeds at every float format boundary and names that need escaping.
// A value JSON cannot carry must fail both ways.
func FuzzMetricsJSON(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 9.999999e-7, 1e-6, 0.1 + 0.2, 3, -123456.789,
		1e20, 999999999999999999999, 1e21, 1.5e300, math.MaxFloat64, math.NaN(), math.Inf(-1)} {
		f.Add("goodput.mean", v, "jct.cdf@25ms", -v)
	}
	f.Add("a<b>&c", 1.0, "é \x7f", 2.0)
	f.Add("\xff\"\\\n", 1.0, "", 0.5)
	f.Fuzz(func(t *testing.T, n1 string, v1 float64, n2 string, v2 float64) {
		m := Metrics{n1: v1, n2: v2}
		want, werr := json.Marshal(map[string]float64(m))
		got, gerr := json.Marshal(m)
		if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
			t.Errorf("Metrics encode to %s (%v), encoding/json's map to %s (%v)", got, gerr, want, werr)
		}
	})
}

// TestNilMetricsJSON: a nil Metrics encodes as encoding/json encodes a nil
// map.
func TestNilMetricsJSON(t *testing.T) {
	if got, err := json.Marshal(&MatrixCell{}); err != nil || !strings.Contains(string(got), `"Metrics":null`) {
		t.Errorf("a cell without metrics encodes to %s (%v)", got, err)
	}
}
