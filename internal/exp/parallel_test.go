package exp

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"xmp/internal/sim"
	"xmp/internal/workload"
)

func TestRunAllOrderAndCoverage(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 0} {
		var doneOrder []int
		results := RunAll(17, jobs,
			func(_ *Worker, i int) int { return i * i },
			func(i int, r int) {
				if r != i*i {
					t.Fatalf("jobs=%d: done(%d) got %d", jobs, i, r)
				}
				doneOrder = append(doneOrder, i)
			})
		if len(results) != 17 {
			t.Fatalf("jobs=%d: %d results", jobs, len(results))
		}
		for i, r := range results {
			if r != i*i {
				t.Fatalf("jobs=%d: results[%d]=%d", jobs, i, r)
			}
		}
		for i, d := range doneOrder {
			if d != i {
				t.Fatalf("jobs=%d: done fired out of order: %v", jobs, doneOrder)
			}
		}
	}
}

func TestRunAllEmpty(t *testing.T) {
	if got := RunAll(0, 4, func(_ *Worker, i int) int { return i }, nil); len(got) != 0 {
		t.Fatalf("want empty, got %v", got)
	}
}

func TestRunAllSerialPathUsesNoGoroutines(t *testing.T) {
	// jobs=1 must run inline: run(i) and done(i) strictly interleave.
	var phase atomic.Int32
	RunAll(5, 1,
		func(_ *Worker, i int) int {
			if int(phase.Load()) != i {
				t.Fatalf("run(%d) before done(%d)", i, i-1)
			}
			return i
		},
		func(i int, _ int) { phase.Add(1) })
}

func TestGridRC(t *testing.T) {
	// Row-major flattening must reproduce the historic nested-loop order.
	var want [][2]int
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			want = append(want, [2]int{r, c})
		}
	}
	for i, w := range want {
		r, c := gridRC(i, 4)
		if r != w[0] || c != w[1] {
			t.Fatalf("gridRC(%d,4) = (%d,%d), want (%d,%d)", i, r, c, w[0], w[1])
		}
	}
}

// TestMatrixParallelDeterministic pins the tentpole's determinism
// contract: a parallel campaign must render byte-identical tables and emit
// byte-identical progress lines to a serial one.
func TestMatrixParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix runs are slow")
	}
	base := CellConfig{K: 4, Duration: 40 * sim.Millisecond, SizeScale: 256}
	patterns := []Pattern{Permutation, Incast}
	schemes := []workload.Scheme{SchemeDCTCP, SchemeXMP2}

	render := func(jobs int) (tables, progress string) {
		var prog bytes.Buffer
		m := miniMatrix(t, base, patterns, schemes, jobs, &prog)
		var buf bytes.Buffer
		m.RenderTable1(&buf)
		m.RenderTable3(&buf)
		m.RenderFig8(&buf)
		// Every metric of every cell, beyond what the tables round.
		for _, p := range patterns {
			for _, s := range schemes {
				fmt.Fprintf(&buf, "%s/%s %v\n", p, s.Label(), m.Get(Row{Pattern: p}, s).Metrics)
			}
		}
		return buf.String(), prog.String()
	}

	serialTables, serialProg := render(1)
	parTables, parProg := render(8)
	if serialTables != parTables {
		t.Errorf("parallel tables diverge from serial:\n--- serial ---\n%s\n--- jobs=8 ---\n%s", serialTables, parTables)
	}
	if serialProg != parProg {
		t.Errorf("parallel progress log diverges from serial:\n--- serial ---\n%s\n--- jobs=8 ---\n%s", serialProg, parProg)
	}
}

// TestTable2ParallelDeterministic does the same for the coexistence
// campaign, whose cells run two workload generators per engine: one shard
// of it — six cells spanning both switch variants — must encode to the
// same shard file and log the same progress at any worker count.
func TestTable2ParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 runs are slow")
	}
	plan := Table2Plan(RunParams{K: 4, Timescale: 0.1, SizeScale: 256})
	run := func(jobs int) (string, string) {
		var prog, file bytes.Buffer
		if err := RunPlan(CampaignTable2, plan, ShardSpec{Index: 0, Count: 2}, jobs, &prog).Encode(&file); err != nil {
			t.Fatal(err)
		}
		return file.String(), prog.String()
	}
	st, sp := run(1)
	pt, pp := run(8)
	if st != pt {
		t.Errorf("table2 parallel shard file diverges:\n%s\nvs\n%s", st, pt)
	}
	if sp != pp || sp == "" {
		t.Errorf("table2 parallel progress diverges:\n%s\nvs\n%s", sp, pp)
	}
}
