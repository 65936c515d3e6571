package exp

import (
	"bytes"
	"strings"
	"testing"

	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/workload"
)

func TestFig1HalvingConvergesFairly(t *testing.T) {
	r := RunFig1(Fig1Config{Mode: Fig1Halving, K: 20, Interval: 400 * sim.Millisecond})
	// Epoch 3: all four flows active; each should hold ~1/4 with high
	// fairness, and the link should stay busy.
	var total float64
	for i := 0; i < 4; i++ {
		v := r.Rates[3][i]
		if v < 0.10 || v > 0.45 {
			t.Fatalf("flow %d share %.2f in all-active epoch", i, v)
		}
		total += v
	}
	if total < 0.85 {
		t.Fatalf("aggregate utilization %.2f in all-active epoch", total)
	}
	if r.Jain[3] < 0.9 {
		t.Fatalf("Jain %.3f in all-active epoch", r.Jain[3])
	}
	if r.Drops != 0 {
		t.Fatalf("halving with K=20 dropped %d packets", r.Drops)
	}
}

func TestFig1DCTCPRuns(t *testing.T) {
	r := RunFig1(Fig1Config{Mode: Fig1DCTCP, K: 10, Interval: 400 * sim.Millisecond})
	var total float64
	for i := 0; i < 4; i++ {
		total += r.Rates[3][i]
	}
	if total < 0.75 {
		t.Fatalf("DCTCP aggregate %.2f in all-active epoch", total)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "DCTCP") {
		t.Fatal("render missing mode")
	}
}

func TestFig1QueueBoundedByK(t *testing.T) {
	// With K=10 the time-average occupancy must sit near or below K —
	// the whole point of threshold marking.
	r := RunFig1(Fig1Config{Mode: Fig1Halving, K: 10, Interval: 300 * sim.Millisecond})
	if r.AvgQueueLen > 15 {
		t.Fatalf("avg queue %.1f pkts with K=10", r.AvgQueueLen)
	}
}

func TestFig4ShiftShape(t *testing.T) {
	r := RunFig4(Fig4Config{Beta: 4, Phase: sim.Second})
	// Phase 0: both subflows carry traffic. Phase 1 (bg on DN1): subflow
	// 1 sheds, subflow 2 gains. Phase 2 (bg on DN2): the reverse.
	p := r.PhaseAvg
	if p[0][0] < 0.15 || p[0][1] < 0.15 {
		t.Fatalf("baseline shares too low: %+v", p[0])
	}
	if !(p[1][0] < p[0][0]) {
		t.Fatalf("subflow1 did not shed under DN1 load: %.2f -> %.2f", p[0][0], p[1][0])
	}
	if !(p[1][1] > p[0][1]) {
		t.Fatalf("subflow2 did not compensate: %.2f -> %.2f", p[0][1], p[1][1])
	}
	if !(p[2][1] < p[1][1]) {
		t.Fatalf("subflow2 did not shed under DN2 load: %.2f -> %.2f", p[1][1], p[2][1])
	}
	if !(p[2][0] > p[1][0]) {
		t.Fatalf("subflow1 did not recover: %.2f -> %.2f", p[1][0], p[2][0])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "flow2-1") {
		t.Fatal("render incomplete")
	}
}

func TestFig6FairnessBeta4VsBeta6(t *testing.T) {
	r4 := RunFig6(Fig6Config{Beta: 4, Unit: 600 * sim.Millisecond})
	if r4.Jain < 0.85 {
		t.Fatalf("beta=4 Jain %.3f; the paper's flows share fairly", r4.Jain)
	}
	// Flow shares in the all-active epoch must be near 1/4 each.
	for i := 0; i < 4; i++ {
		v := r4.Rates[4][i]
		if v < 0.10 || v > 0.45 {
			t.Fatalf("beta=4 flow %d share %.2f", i, v)
		}
	}
	var buf bytes.Buffer
	r4.Render(&buf)
	if !strings.Contains(buf.String(), "Jain") {
		t.Fatal("render incomplete")
	}
}

func TestFig7RateCompensationShape(t *testing.T) {
	r := RunFig7(Fig7Config{Setting: Fig7BetaK{4, 20}, Unit: 500 * sim.Millisecond})
	// As L3 becomes congested (epochs 5..9), Flow 2-2 and Flow 3-1 (the
	// subflows on L3) decrease; siblings Flow 2-1 and Flow 3-2 increase.
	base, loaded := 4, 8
	f22base, f22load := r.Rates[base][1][1], r.Rates[loaded][1][1]
	f21base, f21load := r.Rates[base][1][0], r.Rates[loaded][1][0]
	f31base, f31load := r.Rates[base][2][0], r.Rates[loaded][2][0]
	f32base, f32load := r.Rates[base][2][1], r.Rates[loaded][2][1]
	if !(f22load < f22base && f31load < f31base) {
		t.Fatalf("L3 subflows did not shed: f2-2 %.2f->%.2f, f3-1 %.2f->%.2f",
			f22base, f22load, f31base, f31load)
	}
	if !(f21load > f21base && f32load > f32base) {
		t.Fatalf("siblings did not compensate: f2-1 %.2f->%.2f, f3-2 %.2f->%.2f",
			f21base, f21load, f32base, f32load)
	}
	// After L3 closes (epoch 12) the L3 subflows collapse to ~zero and
	// the siblings spike.
	if r.Rates[12][1][1] > 0.05 || r.Rates[12][2][0] > 0.05 {
		t.Fatalf("L3 subflows still moving after closure: %.2f %.2f",
			r.Rates[12][1][1], r.Rates[12][2][0])
	}
	// Compare against epoch 11, when the background flows are already
	// gone and the ring has re-balanced: closing L3 then pushes flow 2
	// entirely onto L2.
	if !(r.Rates[12][1][0] > r.Rates[11][1][0]) {
		t.Fatalf("f2-1 did not spike after L3 closure: %.2f -> %.2f",
			r.Rates[11][1][0], r.Rates[12][1][0])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "f2-2") {
		t.Fatal("render incomplete")
	}
}

func TestMatrixSmall(t *testing.T) {
	// A k=4 micro-matrix exercises every renderer end to end.
	base := FatTreeConfig{
		K:         4,
		Duration:  60 * sim.Millisecond,
		SizeScale: 256,
	}
	schemes := []workload.Scheme{SchemeDCTCP, SchemeXMP2}
	m := miniMatrix(t, base, []Pattern{Permutation, Incast}, schemes, 1, nil)
	for _, p := range []Pattern{Permutation, Incast} {
		for _, s := range schemes {
			r := m.Get(p, s)
			if r == nil || r.Collector.FlowsCompleted == 0 {
				t.Fatalf("no flows for %v/%v", p, s.Label())
			}
		}
	}
	if m.Get(Incast, SchemeXMP2).Collector.JCT.N() == 0 {
		t.Fatal("no incast jobs recorded")
	}
	var buf bytes.Buffer
	m.RenderTable1(&buf)
	m.RenderTable3(&buf)
	m.RenderFig8(&buf)
	m.RenderFig9(&buf)
	m.RenderFig10(&buf)
	m.RenderFig11(&buf)
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 3", "Figure 8(a)", "Figure 8(c)", "Figure 9", "Figure 10", "Figure 11", "XMP-2", "DCTCP", "Inter-Pod"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q", want)
		}
	}
	if m.UtilSpread(Permutation, SchemeDCTCP, topo.LayerCore) < 0 {
		t.Fatal("negative spread")
	}
}

// table2Variant runs one switch variant of a coexistence config — half of
// the campaign Table2Plan plans — cell by cell.
func table2Variant(cfg Table2Config) *Table2Result {
	plan := Table2Plan(cfg)
	cfg.defaults()
	r := &Table2Result{Config: cfg}
	first := 0
	if cfg.StrictNonECT {
		first = plan.Cells / 2
	}
	for i := first; i < first+plan.Cells/2; i++ {
		r.Cells = append(r.Cells, plan.Run(nil, i))
	}
	return r
}

func TestTable2CoexistSmall(t *testing.T) {
	r := table2Variant(Table2Config{
		KAry:        4,
		Duration:    60 * sim.Millisecond,
		SizeScale:   256,
		QueueLimits: []int{100},
		Others:      []workload.Scheme{SchemeDCTCP, SchemeTCP},
	})
	if len(r.Cells) != 2 {
		t.Fatalf("cells %d", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.XMPFlows == 0 || c.OtherFlows == 0 {
			t.Fatalf("empty cell %+v", c)
		}
		if c.XMPGoodput <= 0 || c.OtherGoodput <= 0 {
			t.Fatalf("zero goodput %+v", c)
		}
	}
	// The paper's key contrast: XMP beats plain TCP decisively but
	// splits roughly evenly with DCTCP.
	var vsTCP, vsDCTCP Table2Cell
	for _, c := range r.Cells {
		switch c.Other.Label() {
		case "TCP":
			vsTCP = c
		case "DCTCP":
			vsDCTCP = c
		}
	}
	if vsTCP.XMPGoodput < vsTCP.OtherGoodput {
		t.Fatalf("XMP lost to plain TCP: %.1f vs %.1f", vsTCP.XMPGoodput, vsTCP.OtherGoodput)
	}
	ratio := vsDCTCP.XMPGoodput / vsDCTCP.OtherGoodput
	if ratio < 0.6 || ratio > 1.9 {
		t.Fatalf("XMP:DCTCP split %.2f, expected near parity", ratio)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "XMP : TCP") {
		t.Fatal("render incomplete")
	}
}

func TestTable2StrictSwitchesFavorXMP(t *testing.T) {
	// With RED-faithful switches (non-ECT dropped above K) loss-based
	// flows lose the buffer advantage and XMP dominates plain TCP — the
	// paper's Table 2 ordering.
	r := table2Variant(Table2Config{
		KAry:         4,
		Duration:     60 * sim.Millisecond,
		SizeScale:    256,
		QueueLimits:  []int{100},
		Others:       []workload.Scheme{SchemeTCP},
		StrictNonECT: true,
	})
	c := r.Cells[0]
	if c.XMPGoodput < 1.5*c.OtherGoodput {
		t.Fatalf("strict switches: XMP %.1f vs TCP %.1f, expected XMP dominant",
			c.XMPGoodput, c.OtherGoodput)
	}
}

// runCells runs a whole plan serially and returns the bare cell payloads.
func runCells[T any](plan Plan[T]) []T {
	return RunAll(plan.Cells, 1, plan.Run, nil)
}

func TestAblations(t *testing.T) {
	rs := runCells(AblationPlan(10))
	byName := map[string]AblationResult{}
	for _, r := range rs {
		byName[r.Variant] = r
	}
	base := byName["threshold-marking (baseline)"]
	degen := byName["degenerate RED (Wq=1, MinTh=MaxTh=K)"]
	red := byName["conventional RED (EWMA, Internet thresholds)"]
	guard := byName["cwr guard disabled (reduce per marked ACK)"]

	if base.Utilization < 0.85 {
		t.Fatalf("baseline utilization %.2f", base.Utilization)
	}
	// Degenerate RED must behave like the threshold marker.
	if d := degen.Utilization - base.Utilization; d < -0.05 || d > 0.05 {
		t.Fatalf("degenerate RED diverged from threshold: %.2f vs %.2f", degen.Utilization, base.Utilization)
	}
	// Conventional EWMA RED reacts on the average: it tolerates deeper
	// instantaneous queues (worse latency), the paper's argument against
	// it in DCNs.
	if red.AvgQueue <= base.AvgQueue {
		t.Fatalf("EWMA RED queue %.1f not above threshold-marking %.1f", red.AvgQueue, base.AvgQueue)
	}
	// Removing the once-per-round guard over-reduces and loses
	// utilization.
	if guard.Utilization >= base.Utilization-0.01 {
		t.Fatalf("guard ablation should hurt utilization: %.3f vs %.3f", guard.Utilization, base.Utilization)
	}
	var buf bytes.Buffer
	RenderAblations(&buf, rs)
	if !strings.Contains(buf.String(), "threshold-marking") {
		t.Fatal("render incomplete")
	}
}

func TestSubflowSweep(t *testing.T) {
	rs := runCells(SubflowSweepPlan([]int{1, 2}, 40*sim.Millisecond))
	if len(rs) != 2 {
		t.Fatalf("points %d", len(rs))
	}
	// More subflows should not hurt goodput on a permutation workload.
	if rs[1].AvgGoodput < rs[0].AvgGoodput*0.8 {
		t.Fatalf("XMP-2 (%.1f) far below XMP-1 (%.1f)", rs[1].AvgGoodput, rs[0].AvgGoodput)
	}
	var buf bytes.Buffer
	RenderSubflowSweep(&buf, rs)
	if !strings.Contains(buf.String(), "Subflow sweep") {
		t.Fatal("render incomplete")
	}
}

func TestParamSweepSmall(t *testing.T) {
	pts := runCells(ParamSweepPlan([]int{2, 4}, []int{10}, 30*sim.Millisecond))
	if len(pts) != 2 {
		t.Fatalf("points %d", len(pts))
	}
	for _, p := range pts {
		if p.GoodputMbps <= 0 || p.RTTMs <= 0 || p.Flows == 0 {
			t.Fatalf("empty point %+v", p)
		}
	}
	var buf bytes.Buffer
	RenderParamSweep(&buf, pts)
	if !strings.Contains(buf.String(), "beta\\K") {
		t.Fatal("render incomplete")
	}
}

func TestIncastSweepSmall(t *testing.T) {
	pts := runCells(IncastSweepPlan([]int{4}, 60*sim.Millisecond))
	if len(pts) != 1 || pts[0].JobsDone == 0 {
		t.Fatalf("sweep empty: %+v", pts)
	}
	var buf bytes.Buffer
	RenderIncastSweep(&buf, pts)
	if !strings.Contains(buf.String(), "fan-in") {
		t.Fatal("render incomplete")
	}
}

func TestSACKAblationSmall(t *testing.T) {
	rs := runCells(SACKAblationPlan(30 * sim.Millisecond))
	if len(rs) != 3 {
		t.Fatalf("results %d", len(rs))
	}
	for _, r := range rs {
		if r.PlainGoodput <= 0 || r.SACKGoodput <= 0 {
			t.Fatalf("empty %+v", r)
		}
	}
	var buf bytes.Buffer
	RenderSACKAblation(&buf, rs)
	if !strings.Contains(buf.String(), "SACK ablation") {
		t.Fatal("render incomplete")
	}
}

func TestVL2ComparisonSmall(t *testing.T) {
	pts := runCells(VL2Plan([]workload.Scheme{SchemeDCTCP, SchemeXMP2}, 40*sim.Millisecond))
	if len(pts) != 2 {
		t.Fatalf("points %d", len(pts))
	}
	for _, p := range pts {
		if p.GoodputMbps <= 0 || p.Flows == 0 {
			t.Fatalf("empty point %+v", p)
		}
	}
	var buf bytes.Buffer
	RenderVL2(&buf, pts)
	if !strings.Contains(buf.String(), "VL2 Clos") {
		t.Fatal("render incomplete")
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	// The whole stack is a pure function of (config, seed): two identical
	// fat-tree runs must agree bit-for-bit on every headline statistic.
	cfg := FatTreeConfig{K: 4, Duration: 40 * sim.Millisecond, SizeScale: 256, Pattern: Random, Scheme: SchemeXMP2}
	a := RunFatTree(nil, cfg)
	b := RunFatTree(nil, cfg)
	if a.Collector.FlowsCompleted != b.Collector.FlowsCompleted {
		t.Fatalf("flow counts diverged: %d vs %d", a.Collector.FlowsCompleted, b.Collector.FlowsCompleted)
	}
	if a.Collector.Goodput.Mean() != b.Collector.Goodput.Mean() {
		t.Fatalf("goodput diverged: %v vs %v", a.Collector.Goodput.Mean(), b.Collector.Goodput.Mean())
	}
	if a.Events != b.Events {
		t.Fatalf("event counts diverged: %d vs %d", a.Events, b.Events)
	}
	if a.Drops != b.Drops || a.Marks != b.Marks {
		t.Fatalf("queue stats diverged: %d/%d vs %d/%d", a.Drops, a.Marks, b.Drops, b.Marks)
	}
	// A different seed must actually change the workload.
	cfg.Seed = 99
	c := RunFatTree(nil, cfg)
	if c.Events == a.Events && c.Collector.Goodput.Mean() == a.Collector.Goodput.Mean() {
		t.Fatal("different seed produced an identical run")
	}
}
