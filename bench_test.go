// Benchmarks: one per table and figure of the paper's evaluation. Each
// iteration regenerates the experiment at a reduced scale and reports the
// headline domain metric alongside wall-clock time, so `go test -bench=.`
// both exercises the full pipeline and prints the reproduction numbers.
//
// EXPERIMENTS.md records the paper-vs-measured comparison produced by the
// full-size runs of cmd/xmpsim.
package xmp_test

import (
	"fmt"
	"runtime"
	"testing"

	"xmp/internal/exp"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/scenario"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
	"xmp/internal/workload"
)

// benchInterval keeps the small-topology experiments quick per iteration.
const benchInterval = 250 * sim.Millisecond

func BenchmarkFig1(b *testing.B) {
	for _, mode := range []exp.Fig1Mode{exp.Fig1DCTCP, exp.Fig1Halving} {
		b.Run(string(mode), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				r := exp.RunFig1(exp.Fig1Config{Mode: mode, K: 20, Interval: benchInterval})
				util = 0
				for f := 0; f < 4; f++ {
					util += r.Series[f].AvgRateBps(3*20, 4*20) / float64(r.Capacity)
				}
			}
			b.ReportMetric(util, "bottleneck-util")
		})
	}
}

func BenchmarkFig4(b *testing.B) {
	for _, beta := range []int{4, 6} {
		b.Run(map[int]string{4: "beta4", 6: "beta6"}[beta], func(b *testing.B) {
			var shifted float64
			for i := 0; i < b.N; i++ {
				r := exp.RunFig4(exp.Fig4Config{Beta: beta, Phase: 2 * benchInterval})
				// How much of subflow 1's baseline rate moved away under load.
				shifted = r.PhaseAvg[0][0] - r.PhaseAvg[1][0]
			}
			b.ReportMetric(shifted, "rate-shifted")
		})
	}
}

func BenchmarkFig6(b *testing.B) {
	for _, beta := range []int{4, 6} {
		b.Run(map[int]string{4: "beta4", 6: "beta6"}[beta], func(b *testing.B) {
			var jain float64
			for i := 0; i < b.N; i++ {
				jain = exp.RunFig6(exp.Fig6Config{Beta: beta, Unit: 2 * benchInterval}).Jain
			}
			b.ReportMetric(jain, "jain")
		})
	}
}

func BenchmarkFig7(b *testing.B) {
	for _, s := range exp.Fig7Settings {
		b.Run(map[int]string{4: "beta4K20", 5: "beta5K15", 6: "beta6K10"}[s.Beta], func(b *testing.B) {
			var compensation float64
			for i := 0; i < b.N; i++ {
				r := exp.RunFig7(exp.Fig7Config{Setting: s, Unit: benchInterval})
				// Flow 2-1's gain while L3 is loaded: the compensation signal.
				compensation = r.EpochRate(1, 0, 8) - r.EpochRate(1, 0, 4)
			}
			b.ReportMetric(compensation, "compensation")
		})
	}
}

// benchFatTree runs one (pattern, scheme) cell at bench scale.
func benchFatTree(b *testing.B, p exp.Pattern, s workload.Scheme) *exp.FatTreeResult {
	b.Helper()
	var r *exp.FatTreeResult
	for i := 0; i < b.N; i++ {
		r = exp.RunFatTree(nil, exp.FatTreeConfig{
			Pattern:   p,
			Scheme:    s,
			K:         4,
			Duration:  40 * sim.Millisecond,
			SizeScale: 256,
		})
	}
	return r
}

func BenchmarkTable1(b *testing.B) {
	for _, s := range exp.Table1Schemes {
		s := s
		for _, p := range []exp.Pattern{exp.Permutation, exp.Random, exp.Incast} {
			b.Run(s.Label()+"/"+string(p), func(b *testing.B) {
				r := benchFatTree(b, p, s)
				b.ReportMetric(r.Collector.Goodput.Mean(), "goodput-Mbps")
			})
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	plan := exp.Table2Plan(exp.Table2Config{
		KAry:        4,
		Duration:    40 * sim.Millisecond,
		SizeScale:   256,
		QueueLimits: []int{100},
		Others:      []workload.Scheme{exp.SchemeTCP},
	})
	var cell exp.Table2Cell
	for i := 0; i < b.N; i++ {
		cell = plan.Run(nil, 0) // the non-strict-switch variant
	}
	b.ReportMetric(cell.XMPGoodput, "xmp-Mbps")
	b.ReportMetric(cell.OtherGoodput, "tcp-Mbps")
}

func BenchmarkTable3(b *testing.B) {
	for _, s := range []workload.Scheme{exp.SchemeDCTCP, exp.SchemeXMP2, exp.SchemeLIA2} {
		s := s
		b.Run(s.Label(), func(b *testing.B) {
			r := benchFatTree(b, exp.Incast, s)
			b.ReportMetric(r.Collector.JCT.Mean(), "jct-ms")
			b.ReportMetric(r.Collector.JCT.FractionAbove(300), "frac>300ms")
		})
	}
}

func BenchmarkFig8(b *testing.B) {
	r := benchFatTree(b, exp.Permutation, exp.SchemeXMP2)
	b.ReportMetric(r.Collector.Goodput.Percentile(10), "p10-Mbps")
	b.ReportMetric(r.Collector.Goodput.Percentile(90), "p90-Mbps")
}

func BenchmarkFig9(b *testing.B) {
	r := benchFatTree(b, exp.Incast, exp.SchemeXMP2)
	b.ReportMetric(r.Collector.JCT.CDFAt(15), "cdf@15ms")
	b.ReportMetric(r.Collector.JCT.CDFAt(250), "cdf@250ms")
}

func BenchmarkFig10(b *testing.B) {
	r := benchFatTree(b, exp.Random, exp.SchemeXMP2)
	b.ReportMetric(r.Collector.RTT[topo.InterPod].Mean(), "interpod-rtt-ms")
}

func BenchmarkFig11(b *testing.B) {
	r := benchFatTree(b, exp.Random, exp.SchemeXMP2)
	core := r.UtilByLayer[topo.LayerCore]
	b.ReportMetric(core.Percentile(50), "core-util-p50")
	b.ReportMetric(core.Max()-core.Min(), "core-util-spread")
}

func BenchmarkAblations(b *testing.B) {
	plan := exp.AblationPlan(10)
	var rs []exp.AblationResult
	for i := 0; i < b.N; i++ {
		rs = exp.RunAll(plan.Cells, 1, plan.Run, nil)
	}
	b.ReportMetric(rs[0].Utilization, "baseline-util")
	b.ReportMetric(rs[len(rs)-1].Utilization, "no-guard-util")
}

func BenchmarkParamSweep(b *testing.B) {
	plan := exp.ParamSweepPlan([]int{4}, []int{10}, 20*sim.Millisecond)
	var pt exp.ParamPoint
	for i := 0; i < b.N; i++ {
		pt = plan.Run(nil, 0)
	}
	b.ReportMetric(pt.GoodputMbps, "goodput-Mbps")
	b.ReportMetric(pt.RTTMs, "rtt-ms")
}

func BenchmarkIncastSweep(b *testing.B) {
	plan := exp.IncastSweepPlan([]int{8}, 40*sim.Millisecond)
	var pt exp.IncastSweepPoint
	for i := 0; i < b.N; i++ {
		pt = plan.Run(nil, 0)
	}
	b.ReportMetric(pt.P50Ms, "jct-p50-ms")
}

func BenchmarkSACKAblation(b *testing.B) {
	plan := exp.SACKAblationPlan(20*sim.Millisecond, exp.SchemeTCP)
	var r exp.SACKAblationResult
	for i := 0; i < b.N; i++ {
		r = plan.Run(nil, 0)
	}
	b.ReportMetric(r.PlainGoodput, "tcp-plain-Mbps")
	b.ReportMetric(r.SACKGoodput, "tcp-sack-Mbps")
}

func BenchmarkVL2(b *testing.B) {
	plan := exp.VL2Plan([]workload.Scheme{exp.SchemeXMP2}, 40*sim.Millisecond)
	var pt exp.VL2Point
	for i := 0; i < b.N; i++ {
		pt = plan.Run(nil, 0)
	}
	b.ReportMetric(pt.GoodputMbps, "goodput-Mbps")
}

// BenchmarkEngine measures the raw event-processing rate of the
// discrete-event core — the substrate every experiment above runs on.
func BenchmarkEngine(b *testing.B) {
	eng := sim.NewEngine()
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			eng.Schedule(sim.Microsecond, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Schedule(sim.Microsecond, fn)
	eng.Run(sim.MaxTime)
}

// rearmTarget is a typed event receiver that re-schedules itself until n
// reaches the iteration budget — the typed twin of BenchmarkEngine's
// closure chain.
type rearmTarget struct {
	eng *sim.Engine
	n   int
	max int
}

func (t *rearmTarget) OnEvent(sim.Op, any) {
	t.n++
	if t.n < t.max {
		t.eng.ScheduleTarget(sim.Microsecond, t, 0, nil)
	}
}

// BenchmarkScheduleTarget measures the typed schedule+fire primitive the
// per-packet-hop paths run on: pre-bound receiver, no closure, no
// container/heap interface dispatch.
func BenchmarkScheduleTarget(b *testing.B) {
	eng := sim.NewEngine()
	t := &rearmTarget{eng: eng, max: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	eng.ScheduleTarget(sim.Microsecond, t, 0, nil)
	eng.Run(sim.MaxTime)
}

// BenchmarkTimerChurn is the RTO re-arm pattern: every ACK resets the
// retransmission timer, so each iteration cancels a pending expiration
// and schedules a fresh one. Lazy cancellation makes this O(1); the alloc
// column must read 0.
func BenchmarkTimerChurn(b *testing.B) {
	eng := sim.NewEngine()
	tm := sim.NewTimer(eng, func() {})
	tm.Reset(sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(sim.Millisecond)
	}
	b.StopTimer()
	tm.Stop()
}

// BenchmarkEngineCancel exercises the schedule/cancel churn the transport
// retransmit timers generate: every fired event re-arms two and cancels
// one, so the free list must absorb the turnover without allocating.
func BenchmarkEngineCancel(b *testing.B) {
	eng := sim.NewEngine()
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			eng.Schedule(sim.Microsecond, fn)
			victim := eng.Schedule(2*sim.Microsecond, func() {})
			eng.Cancel(victim)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Schedule(sim.Microsecond, fn)
	eng.Run(sim.MaxTime)
}

// releaseSink terminates packets like a host: every delivery leaves the
// simulation and returns to the pool.
type releaseSink struct{ delivered int64 }

func (s *releaseSink) Receive(p *netem.Packet) {
	s.delivered++
	p.Release()
}

// BenchmarkLinkForward is the per-hop hot path in isolation: one pooled
// packet per iteration enters a link, serializes, propagates, and is
// released at the far end. Two calendar events per packet-hop; the alloc
// column is the whole point — it must read 0.
func BenchmarkLinkForward(b *testing.B) {
	eng := sim.NewEngine()
	pool := netem.NewPacketPool()
	s := &releaseSink{}
	l := netem.NewLink(eng, "l", netem.Gbps, 20*sim.Microsecond, netem.NewDropTail(100), s)
	// Warm the packet pool and the event free-list.
	for i := 0; i < 16; i++ {
		l.Send(pool.Data(1, 1, 2, int64(i), netem.MSS, true))
	}
	eng.Run(sim.MaxTime)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(pool.Data(1, 1, 2, int64(i), netem.MSS, true))
		eng.Run(sim.MaxTime)
	}
	if s.delivered == 0 {
		b.Fatal("no packets delivered")
	}
}

// BenchmarkFatTreeCell runs one full k=8 matrix cell — the unit of work
// the ROADMAP's campaign sweeps are built from and the workload the
// calendar optimizations target. Shorter horizon than the campaigns so an
// iteration stays in seconds.
func BenchmarkFatTreeCell(b *testing.B) {
	var r *exp.FatTreeResult
	for i := 0; i < b.N; i++ {
		r = exp.RunFatTree(nil, exp.FatTreeConfig{
			Pattern:   exp.Random,
			Scheme:    exp.SchemeXMP2,
			K:         8,
			Duration:  20 * sim.Millisecond,
			SizeScale: 256,
		})
	}
	b.ReportMetric(r.Collector.Goodput.Mean(), "goodput-Mbps")
}

// BenchmarkMatrixParallel contrasts the campaign wall-clock at jobs=1 vs
// jobs=GOMAXPROCS — the tentpole speedup of the parallel fan-out.
func BenchmarkMatrixParallel(b *testing.B) {
	base := exp.FatTreeConfig{K: 4, Duration: 40 * sim.Millisecond, SizeScale: 256}
	patterns := []exp.Pattern{exp.Permutation, exp.Random, exp.Incast}
	plan := exp.MatrixPlan("bench mini-matrix", base, patterns, exp.Table1Schemes)
	const randomXMP2 = 1*5 + 3 // row-major (pattern, scheme) cell index
	for _, jobs := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			var cells []*exp.FatTreeResult
			for i := 0; i < b.N; i++ {
				cells = exp.RunAll(plan.Cells, jobs, plan.Run, nil)
			}
			b.ReportMetric(cells[randomXMP2].Collector.Goodput.Mean(), "xmp2-random-Mbps")
		})
	}
}

// BenchmarkChaosCell runs one k=8 robustness-style cell with the
// campaign's full fault schedule active — link flap, switch failure, loss
// burst, extra delay and jitter riding the same calendar as the traffic.
// The delta against BenchmarkFatTreeCell is the cost of the chaos layer's
// event hooks (queue drains on SetDown, Lossy re-arming, per-delivery
// extra-delay reads) under load.
func BenchmarkChaosCell(b *testing.B) {
	robustness, err := scenario.CompileCampaign(scenario.FamilyRobustness, exp.RunParams{})
	if err != nil {
		b.Fatal(err)
	}
	sched := robustness.Spec.Chaos.Schedule()
	var p exp.RobustnessPoint
	for i := 0; i < b.N; i++ {
		p = exp.RunChaosCell(nil, exp.ChaosCellConfig{
			Cell:   exp.CellConfig{Lossy: true, Duration: 20 * sim.Millisecond, Chaos: &sched},
			Scheme: exp.SchemeXMP2,
			Random: &workload.RandomConfig{ParetoMeanBytes: 12 << 20, ParetoMaxBytes: 48 << 20, MaxFlowsPerDst: 4},
		})
	}
	b.ReportMetric(p.GoodputMbps, "goodput-Mbps")
	b.ReportMetric(float64(p.Faults), "faults")
}

// benchShortFlowNet builds the small fat-tree + arena rig the launch-path
// benchmarks share. The collector is nil on purpose: metrics.Dist appends
// samples, and its amortized growth would obscure the zero-alloc claim the
// recycled launch path makes.
func benchShortFlowNet() (*sim.Engine, workload.Config) {
	eng := sim.NewEngine()
	cfg := topo.DefaultFatTreeConfig(topo.ECNMaker(100, 10))
	cfg.K = 4
	ft := topo.NewFatTree(eng, cfg)
	return eng, workload.Config{
		Net:       ft,
		RNG:       sim.NewRNG(1),
		Scheme:    exp.SchemeXMP2,
		Transport: transport.DefaultConfig(),
		Stop:      sim.MaxTime,
		Arena:     mptcp.NewArena(),
	}
}

// BenchmarkLaunchFlow measures one complete short-flow lifetime — launch,
// transfer, completion, release — through a warm arena. After the warmup
// launches below, every iteration recycles the previous flow's entire
// graph, so the alloc column must read 0 (pinned by
// TestLaunchFlowRecycledZeroAlloc in internal/workload).
func BenchmarkLaunchFlow(b *testing.B) {
	eng, cfg := benchShortFlowNet()
	for i := 0; i < 8; i++ {
		workload.LaunchFlow(&cfg, 0, 12, 64<<10, nil)
		eng.RunAll(1 << 62)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.LaunchFlow(&cfg, 0, 12, 64<<10, nil)
		eng.RunAll(1 << 62)
	}
}

// BenchmarkIncastCell runs a scaled-down cousin of the FCT campaign's
// 10k-sender burst — 2048 synchronized senders into one port of the k=8
// fabric — the fan-in stress the arena's quarantine and the host demux
// slot recycling are sized for.
func BenchmarkIncastCell(b *testing.B) {
	var p exp.FCTPoint
	for i := 0; i < b.N; i++ {
		// One round: the burst is not gated by the cell's horizon.
		p = exp.RunFCTCell(nil, exp.FCTCellConfig{
			Incast: &workload.IncastBurstConfig{Senders: 2048, ResponseBytes: 4 << 10, Rounds: 1},
		})
	}
	b.ReportMetric(p.P99Ms, "fct-p99-ms")
	b.ReportMetric(float64(p.Drops), "drops")
}

// BenchmarkScenarioCompile prices the declarative path's overhead: parse a
// multi-axis spec (every axis populated: topology, scale, workload mix,
// scheme list, seeds, inline chaos, metrics), validate it, resolve every
// default and enumerate the cells. This runs once per xmpsim invocation
// and per dispatch task, so it must stay trivially cheap next to even one
// simulated cell.
func BenchmarkScenarioCompile(b *testing.B) {
	spec := []byte(`{
		"name": "bench",
		"family": "robustness",
		"topology": {"kind": "fattree", "k": 8, "queue_limit": 100, "mark_threshold": 10, "lossy": true},
		"scale": {"timescale": 2, "sizescale": 16, "seed": 1},
		"workloads": [
			{"kind": "random", "mean_bytes": 12582912, "max_bytes": 50331648},
			{"kind": "shortflows", "alpha": 1.1, "per_host": 2}
		],
		"schemes": ["DCTCP", "LIA-2", "OLIA-2", "AMP-2", "XMP-2", "XMP-4/b6"],
		"seeds": [1, 2, 3, 4],
		"chaos": {"seed": 11, "events": [
			{"at": 5000000, "kind": "link-down", "target": "core0.0->agg0.0", "dur": 10000000},
			{"at": 8000000, "kind": "switch-down", "target": "agg1.0", "dur": 8000000},
			{"at": 12000000, "kind": "loss-burst", "target": "edge0.0->agg0.0", "dur": 10000000, "p": 0.02}
		]},
		"metrics": ["summary", "by-size"]
	}`)
	var cells int
	for i := 0; i < b.N; i++ {
		s, err := scenario.Parse(spec)
		if err != nil {
			b.Fatal(err)
		}
		c, err := scenario.Compile(s, "")
		if err != nil {
			b.Fatal(err)
		}
		cells = c.Cells()
	}
	b.ReportMetric(float64(cells), "cells")
}
