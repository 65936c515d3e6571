// Package exp contains one campaign per table and figure of the paper's
// evaluation (Section 4 experiments and Section 5 simulations), plus the
// ablations called out in DESIGN.md. Each campaign is one row of the
// campaign table (table.go): a spec embedded from scenarios/, or a plan
// that is a function of RunParams alone. Every fabric cell is a function
// of a CellConfig, whose defaults (CellConfig.WithDefaults) reproduce the
// paper's Section 5.2 set-up at a reduced scale (flow sizes and durations
// divided down; see EXPERIMENTS.md). A campaign's cells merge into a typed
// result that renders the text rows/series the paper reports.
package exp

import (
	"fmt"
	"io"
	"strings"

	"xmp/internal/mptcp"
	"xmp/internal/workload"
)

// Schemes of the fat-tree evaluation, in the paper's table order.
var (
	SchemeDCTCP = workload.Scheme{Algorithm: mptcp.AlgDCTCP, Subflows: 1}
	SchemeLIA2  = workload.Scheme{Algorithm: mptcp.AlgLIA, Subflows: 2}
	SchemeLIA4  = workload.Scheme{Algorithm: mptcp.AlgLIA, Subflows: 4}
	SchemeXMP2  = workload.Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2}
	SchemeXMP4  = workload.Scheme{Algorithm: mptcp.AlgXMP, Subflows: 4}
	SchemeTCP   = workload.Scheme{Algorithm: mptcp.AlgReno, Subflows: 1}
)

// table renders fixed-width rows.
type table struct {
	w      io.Writer
	widths []int
}

func newTable(w io.Writer, widths ...int) *table { return &table{w: w, widths: widths} }

func (t *table) row(cells ...string) {
	var b strings.Builder
	for i, c := range cells {
		width := 12
		if i < len(t.widths) {
			width = t.widths[i]
		}
		fmt.Fprintf(&b, "%-*s", width, c)
	}
	fmt.Fprintln(t.w, strings.TrimRight(b.String(), " "))
}

func (t *table) rule() {
	n := 0
	for _, w := range t.widths {
		n += w
	}
	fmt.Fprintln(t.w, strings.Repeat("-", n))
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals (sub-millisecond FCT tails).
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
