package exp

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xmp/internal/metrics"
	"xmp/internal/sim"
	"xmp/internal/workload"
)

// This file is the fence around the collector a Worker keeps: which cells
// hand it back, that the next cell rewinds it, and that each cell records
// only the series its reducer reads — with no series switch outliving the
// cell that set it.

// collectorCell is one cell of these tests: a reducer that hands its
// collector back, run on a worker, with its payload.
type collectorCell struct {
	name string
	run  func(w *Worker) any
}

// matrixCell runs cell 0 of a one-cell k=4 matrix that selects views.
func matrixCell(pattern Pattern, views string) collectorCell {
	plan := MatrixPlan(`scenario {"metrics":[`+views+`]}`, CellConfig{K: 4, Duration: 10 * sim.Millisecond, SizeScale: 256},
		[]Row{{Pattern: pattern}}, []workload.Scheme{SchemeXMP2})
	return collectorCell{"matrix/" + string(pattern) + "/" + views, func(w *Worker) any { return plan.Run(w, 0) }}
}

var (
	matrixPerm = matrixCell(Permutation, `"table1"`)
	matrixRand = matrixCell(Random, `"fig10"`)
	fctCfg     = FCTCellConfig{Cell: CellConfig{K: 4, Duration: 10 * sim.Millisecond},
		Short: &workload.ShortFlowsConfig{Alpha: 1.1, MeanBytes: 48 << 10, MinBytes: 1 << 10, MaxBytes: 2 << 20, PerHost: 2}}
	fctCell  = collectorCell{"fct/shortflows", func(w *Worker) any { return runFCTCell(w, fctCfg) }}
	chaosCfg = ChaosCellConfig{Cell: CellConfig{K: 4, Duration: 10 * sim.Millisecond}, Scheme: SchemeXMP2,
		Random: &workload.RandomConfig{ParetoMeanBytes: 256 << 10, ParetoMaxBytes: 1 << 20, MaxFlowsPerDst: 4},
		Short:  &workload.ShortFlowsConfig{Alpha: 1.1, MeanBytes: 48 << 10, MinBytes: 1 << 10, MaxBytes: 2 << 20, PerHost: 1}}
	chaosCell = collectorCell{"robustness/XMP-2", func(w *Worker) any { return runChaosCell(w, chaosCfg) }}
)

// runFCTCell and runChaosCell run cell 0 of a one-cell fct or robustness
// plan that selects every table, labelled "cell".
func runFCTCell(w *Worker, cfg FCTCellConfig) *ListCell {
	return FCTPlan("exp test fct", []string{"cell"}, []FCTCellConfig{cfg}).Run(w, 0)
}

func runChaosCell(w *Worker, cfg ChaosCellConfig) *ListCell {
	return ChaosPlan("exp test robustness", []string{"cell"}, []ChaosCellConfig{cfg}).Run(w, 0)
}

// seriesN counts the samples of each switchable series of col.
func seriesN(col *workload.Collector) (goodput, rtt, fct int) {
	sum := func(ds ...*metrics.Dist) (n int) {
		for _, d := range ds {
			n += d.N()
		}
		return n
	}
	goodput = sum(col.Goodput)
	for _, d := range col.GoodputByCat {
		goodput += d.N()
	}
	for _, d := range col.RTT {
		rtt += d.N()
	}
	return goodput, rtt, sum(append([]*metrics.Dist{col.FCT}, col.FCTBySize[:]...)...)
}

// TestWorkerKeepsHandedBackCollector: each reducer that hands its collector
// back leaves it on the worker, and the next cell built there takes that
// collector — buffers and all — rewound to empty. A cell whose result keeps
// its collector (RunFatTree) hands nothing back.
func TestWorkerKeepsHandedBackCollector(t *testing.T) {
	for _, c := range []collectorCell{matrixPerm, fctCell, chaosCell} {
		w := new(Worker)
		c.run(w)
		w.lent = false
		handed := w.col
		if handed == nil {
			t.Errorf("%s: the cell handed no collector back to its worker", c.name)
			continue
		}
		next := NewCell(w, CellConfig{K: 4, Duration: sim.Millisecond}, SchemeXMP2)
		if next.Base.Collector != handed {
			t.Errorf("%s: the next cell on the worker built a new collector instead of taking the one handed back", c.name)
		}
		if g, r, f := seriesN(handed); g+r+f+handed.JCT.N()+handed.FlowsCompleted != 0 {
			t.Errorf("%s: the collector taken by the next cell was not rewound: goodput %d, rtt %d, fct %d samples, %d flows", c.name, g, r, f, handed.FlowsCompleted)
		}
		if w.col != nil {
			t.Errorf("%s: the worker still holds the collector it lent the next cell", c.name)
		}
	}

	w := new(Worker)
	res := RunFatTree(w, CellConfig{K: 4, Duration: sim.Millisecond, SizeScale: 256}, Row{Pattern: Permutation}, SchemeTCP)
	if w.col != nil {
		t.Error("RunFatTree handed back the collector its result keeps")
	}
	w.lent = false
	if NewCell(w, CellConfig{K: 4, Duration: sim.Millisecond}, SchemeTCP).Base.Collector == res.Collector {
		t.Error("a cell took the collector a RunFatTree result keeps")
	}
}

// TestCellsRecordOnlyWhatTheyRead: an fct cell records no RTT or goodput
// samples, a robustness cell no RTT, and a matrix cell no FCT. Each
// records what it does read.
func TestCellsRecordOnlyWhatTheyRead(t *testing.T) {
	for _, tc := range []struct {
		cell              collectorCell
		goodput, rtt, fct bool
	}{
		{matrixRand, true, true, false},
		{fctCell, false, false, true},
		{chaosCell, true, false, true},
	} {
		w := new(Worker)
		tc.cell.run(w)
		g, r, f := seriesN(w.col)
		for _, s := range []struct {
			name string
			n    int
			want bool
		}{{"goodput", g, tc.goodput}, {"rtt", r, tc.rtt}, {"fct", f, tc.fct}} {
			if (s.n > 0) != s.want {
				t.Errorf("%s: %d %s samples recorded, want them recorded: %v", tc.cell.name, s.n, s.name, s.want)
			}
		}
	}
}

// TestSeriesSwitchesDoNotCarryOver runs cells that skip different series
// one after another on one worker, each taking the collector the last
// handed back, and demands each payload equal the same cell's on a fresh
// worker: a series one cell switched off stays off for that cell only.
func TestSeriesSwitchesDoNotCarryOver(t *testing.T) {
	order := []collectorCell{matrixPerm, fctCell, matrixRand, chaosCell, fctCell, matrixRand}
	fresh := map[string]any{}
	for _, c := range order {
		fresh[c.name] = c.run(new(Worker))
	}
	w := new(Worker)
	for i, c := range order {
		got := c.run(w)
		w.lent = false
		if !reflect.DeepEqual(got, fresh[c.name]) {
			t.Errorf("cell %d, %s after %s: payload differs from a fresh worker's\nfresh:  %+v\nworker: %+v", i, c.name, order[max(i-1, 0)].name, fresh[c.name], got)
		}
	}
}

// TestSkippedSeriesAreUnread: each reducer reports the same with every
// series recorded as with its cell's skips, so none reads a series its
// cell leaves empty. The matrix cells, a coexist cell among them, are
// reduced to every metric a matrix table or view reads that their row has,
// whatever a selection names; the fct and robustness cells to every metric
// their family's tables read.
func TestSkippedSeriesAreUnread(t *testing.T) {
	var views []string
	for _, v := range append(slices.Clip(matrixFamily.Tables), matrixFamily.Views...) {
		views = append(views, v.Name)
	}
	all := matrixFamily.reads(views)
	for _, row := range []Row{{Pattern: Permutation}, {Pattern: Random}, {Pattern: Incast}, {Pattern: Random, QueueLimit: 50, Coexist: "XMP-2"}} {
		names := all
		if row.Coexist == "" {
			names = slices.DeleteFunc(slices.Clone(all), func(n string) bool { return strings.HasPrefix(n, "coexist.") })
		}
		cfg := patternCell(CellConfig{K: 4, Duration: 10 * sim.Millisecond, SizeScale: 256}, row)
		skipped := reduceCell(runPattern(NewCell(nil, cfg, SchemeXMP2), row), names)
		cfg.skip = 0
		recorded := reduceCell(runPattern(NewCell(nil, cfg, SchemeXMP2), row), names)
		for _, n := range names {
			if math.Float64bits(skipped.Metrics[n]) != math.Float64bits(recorded.Metrics[n]) {
				t.Errorf("matrix/%s: %s reads %v with the cell's skips, %v with every series recorded", row, n, skipped.Metrics[n], recorded.Metrics[n])
			}
		}
	}
	fct := reduce(runFCT(NewCell(nil, fctCfg.Cell, fctCfg.Scheme), fctCfg), fctFamily.reads(nil))
	if got := runFCTCell(nil, fctCfg).Metrics; !reflect.DeepEqual(got, fct) {
		t.Errorf("fct: metrics with the cell's skips differ from every series recorded\nskips:    %v\nrecorded: %v", got, fct)
	}
	chaos := reduce(runChaos(NewCell(nil, chaosCfg.Cell, chaosCfg.Scheme), chaosCfg), robustnessFamily.reads(nil))
	if got := runChaosCell(nil, chaosCfg).Metrics; !reflect.DeepEqual(got, chaos) {
		t.Errorf("robustness: metrics with the cell's skips differ from every series recorded\nskips:    %v\nrecorded: %v", got, chaos)
	}
}
