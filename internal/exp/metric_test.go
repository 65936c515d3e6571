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

// TestViewsDeclareReads renders every table and view of every family whose
// cells travel as named metrics against cells that carry exactly the
// metrics it declares: a read of an undeclared name panics naming it, and
// so does the render after each declared name is left out — a table
// declares what it reads, no less and no more. The metric table defines
// exactly the names the tables and views read, and a selection reads the
// union of its tables' names, all the family's tables' for an empty one.
func TestViewsDeclareReads(t *testing.T) {
	rows := []Row{{Pattern: Permutation}, {Pattern: Random}, {Pattern: Incast}, {Pattern: Random, SACK: true},
		{Pattern: Random, QueueLimit: 50, Coexist: "XMP-2"}, {Pattern: Random, QueueLimit: 100, StrictNonECT: true, Coexist: "XMP-2"}}
	schemes := []workload.Scheme{SchemeDCTCP, SchemeXMP2}
	matrix := func(names []string) *Matrix { return carryingMatrix(t, rows, schemes, names) }
	list := func(names []string) []*ListCell {
		return []*ListCell{{Label: "DCTCP", Metrics: carrying(names)}, {Label: "XMP-2", Metrics: carrying(names)}}
	}

	read := map[string]bool{}
	declaresReads(t, matrixFamily, matrix, read)
	declaresReads(t, fctFamily, list, read)
	declaresReads(t, robustnessFamily, list, read)
	for n := range cellMetrics {
		if !read[n] {
			t.Errorf("the metric table defines %q, which no table or view reads", n)
		}
	}

	var six [][]string
	for _, v := range matrixFamily.Tables {
		six = append(six, v.Reads)
	}
	for _, tc := range []struct {
		family    func([]string) []string
		selection []string
		want      []string
	}{
		{matrixFamily.reads, nil, union(six...)},
		{matrixFamily.reads, []string{"fig9", "table3"}, union(fig9Reads, table3Reads)},
		{matrixFamily.reads, []string{CampaignSACK, CampaignVL2}, union(sackReads, vl2Reads)},
		{fctFamily.reads, nil, union(fctSummaryReads, bySizeReads)},
		{fctFamily.reads, []string{"by-size"}, union(bySizeReads)},
		{robustnessFamily.reads, []string{"summary"}, union(robustnessSummaryReads)},
	} {
		if got := tc.family(tc.selection); !slices.Equal(union(got), tc.want) || len(got) != len(tc.want) {
			t.Errorf("selection %q reads %q, want each of %q once", tc.selection, got, tc.want)
		}
	}
}

// union is the names of vs, sorted, each once.
func union(vs ...[]string) []string {
	out := slices.Concat(vs...)
	slices.Sort(out)
	return slices.Compact(out)
}

// carryingMatrix is the matrix of rows x schemes whose cells carry exactly
// names.
func carryingMatrix(t *testing.T, rows []Row, schemes []workload.Scheme, names []string) *Matrix {
	t.Helper()
	var cells []*MatrixCell
	for _, row := range rows {
		for _, s := range schemes {
			cells = append(cells, &MatrixCell{Row: row, Scheme: s, Metrics: carrying(names)})
		}
	}
	m, err := assembleMatrix(cells, names)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRenderSpacing: a blank line precedes every selected table and view
// after the first, exactly one, and the first too where it leads with one
// (the paper's tables and table2); a column is widened to part a row label
// in its header from the next by a space, the cells below kept under it,
// and the matrix progress line parts a long row label too.
func TestRenderSpacing(t *testing.T) {
	rows := []Row{{Pattern: Random, QueueLimit: 50, Coexist: "XMP-2"}, {Pattern: Random, QueueLimit: 100, Coexist: "XMP-2"}}
	m := carryingMatrix(t, rows, []workload.Scheme{SchemeLIA2, SchemeDCTCP}, union(table1Reads, table2Reads))
	render := func(selection ...string) string {
		var b bytes.Buffer
		matrixFamily.render(&b, m, selection)
		return b.String()
	}
	table1, table2 := render("table1"), render("table2")
	if !strings.HasPrefix(table1, "\nTable 1: ") || !strings.HasPrefix(table2, "\nTable 2: ") || strings.HasPrefix(table2, "\n\n") {
		t.Errorf("table1 or table2 alone does not start with one blank line:\n%s\n%s", table1, table2)
	}
	for _, pair := range [][2]string{{"table1", "table2"}, {"table2", "table1"}} {
		got, want := render(pair[0], pair[1]), render(pair[0])+render(pair[1])
		if got != want || strings.Contains(got, "\n\n\n") {
			t.Errorf("selection %q renders\n%s\nwant each table after one blank line:\n%s", pair, got, want)
		}
	}

	r0, r1 := rows[0].String(), rows[1].String()
	want := "scheme    " + r0 + " " + r1 + "\n" + strings.Repeat("-", 10+len(r0)+len(r1)+2) + "\n" +
		"LIA-2     1.0" + strings.Repeat(" ", len(r0)-2) + "1.0\n"
	if !strings.Contains(table1, want) {
		t.Errorf("table1 does not widen its columns to part its row labels:\n%s\nwant it to hold\n%s", table1, want)
	}
	var line bytes.Buffer
	(&MatrixCell{Row: rows[1], Scheme: SchemeLIA2}).writeLine(&line)
	if want := rows[1].String() + " LIA-2        flows="; !strings.HasPrefix(line.String(), want) {
		t.Errorf("progress line %q does not start %q", line.String(), want)
	}
}

// carrying is metrics holding each of names.
func carrying(names []string) Metrics {
	m := Metrics{}
	for _, n := range names {
		m[n] = 1
	}
	return m
}

// declaresReads renders each table and view of d on the result result
// builds of cells carrying exactly the names it declares, then on each with
// one name left out, and marks the declared names read.
func declaresReads[T, R any](t *testing.T, d descriptor[T, R], result func(names []string) R, read map[string]bool) {
	t.Helper()
	render := func(v view[R], r R) (msg string) {
		defer func() {
			if p := recover(); p != nil {
				msg = fmt.Sprint(p)
			}
		}()
		v.Render(io.Discard, r)
		return ""
	}
	for _, v := range append(slices.Clip(d.Tables), d.Views...) {
		if msg := render(v, result(v.Reads)); msg != "" {
			t.Errorf("%s %s reads a metric it does not declare: %s", d.Name, v.Name, msg)
		}
		for i, n := range v.Reads {
			read[n] = true
			if _, ok := cellMetrics[n]; !ok {
				t.Errorf("%s %s declares %q, which the metric table does not define", d.Name, v.Name, n)
			}
			short := slices.Delete(slices.Clone(v.Reads), i, i+1)
			if msg := render(v, result(short)); !strings.Contains(msg, strconv.Quote(n)) {
				t.Errorf("%s %s without %q renders with %q, want a panic naming it", d.Name, v.Name, n, msg)
			}
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
