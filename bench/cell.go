package main

import (
	"fmt"
	"time"

	"xmp/internal/chaos"
	"xmp/internal/exp"
	"xmp/internal/metrics"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/scenario"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
	"xmp/internal/workload"
)

// cellStats is what one hand-composed canonical cell yields: the wall time
// of its four phases and the exact counts the layers keep.
type cellStats struct {
	build, start, run, reduce time.Duration

	events, promoted, recycled   uint64 // sim.Engine counters
	hops, enqueued, drops, marks int64  // summed over every link and queue
	flows                        int    // flow completions recorded
	applied                      int    // chaos events applied
	reduced                      float64
}

func (s cellStats) wall() time.Duration { return s.build + s.start + s.run + s.reduce }

// runCanonicalCell composes one cell of the workload's spec by hand, the
// way the campaign runners in internal/exp do, so the benchmark can put a
// span around each phase and read the layers' own counters afterwards —
// neither is visible through RunShard. The cell is the spec's XMP-2 cell on
// its large-flow generator: matrix specs run the Random pattern, robustness
// specs their generator mix under the fault schedule (when withChaos), fct
// specs their first short-flow loop.
func runCanonicalCell(r *scenario.Spec, withChaos bool, tr *tracer) cellStats {
	var st cellStats
	t := r.Topology

	sp := tr.begin("topo.build")
	t0 := time.Now()
	eng := sim.NewEngine()
	rng := sim.NewRNG(r.Scale.Seed)
	qm := topo.ECNMaker(t.QueueLimit, t.MarkThreshold)
	if t.Lossy {
		// Forked before anything else draws, as exp.RunChaosCell does.
		lossRNG := rng.Fork(99)
		qm = func(ba *netem.BuildArena) netem.Queue {
			return netem.NewLossy(ba.NewThresholdECN(t.QueueLimit, t.MarkThreshold), 0, lossRNG)
		}
	}
	tc := topo.DefaultFatTreeConfig(qm)
	tc.K = t.K
	ft := topo.NewFatTree(eng, tc)
	st.build = time.Since(t0)
	tr.end(sp)

	sp = tr.begin("workload.start")
	t0 = time.Now()
	col := workload.NewCollector(16)
	base := workload.Config{
		Net:       ft,
		RNG:       rng,
		Scheme:    exp.SchemeXMP2,
		Transport: transport.DefaultConfig(),
		Collector: col,
		Stop:      sim.Time(r.DurationMS * float64(sim.Millisecond)),
		Arena:     mptcp.NewArena(),
	}
	switch r.Family {
	case scenario.FamilyMatrix:
		workload.StartRandom(workload.RandomConfig{
			Config:          base,
			ParetoMeanBytes: 192 << 20 / r.Scale.SizeScale,
			ParetoMaxBytes:  768 << 20 / r.Scale.SizeScale,
			MaxFlowsPerDst:  4,
		})
	case scenario.FamilyRobustness:
		for _, w := range r.Workloads {
			switch w.Kind {
			case "random":
				workload.StartRandom(workload.RandomConfig{
					Config:          base,
					ParetoMeanBytes: w.MeanBytes,
					ParetoMaxBytes:  w.MaxBytes,
					MaxFlowsPerDst:  w.MaxFlowsPerDst,
				})
			case "shortflows":
				workload.StartShortFlows(shortFlows(base, w))
			}
		}
	case scenario.FamilyFCT:
		started := false
		for _, w := range r.Workloads {
			if w.Kind == "shortflows" {
				workload.StartShortFlows(shortFlows(base, w))
				started = true
				break
			}
		}
		if !started {
			panic(fmt.Sprintf("bench: fct spec %s has no shortflows cell to compose", r.Name))
		}
	}
	var inj *chaos.Injector
	if withChaos && r.Chaos != nil {
		var err error
		if inj, err = chaos.New(ft.Network, r.Chaos.Schedule()); err != nil {
			panic(fmt.Sprintf("bench: chaos schedule does not resolve: %v", err))
		}
		inj.Install()
	}
	st.start = time.Since(t0)
	tr.end(sp)

	sp = tr.begin("sim.run")
	t0 = time.Now()
	st.events = eng.RunAll(4_000_000_000)
	st.run = time.Since(t0)
	tr.end(sp)

	// What a campaign cell folds its collector and fabric into: tail
	// percentiles overall and by size, mean goodput, per-layer utilization.
	sp = tr.begin("exp.reduce")
	t0 = time.Now()
	st.reduced = col.Goodput.Mean()
	for _, p := range []float64{50, 95, 99, 99.9} {
		st.reduced += col.FCT.Percentile(p)
		for _, d := range col.FCTBySize {
			st.reduced += d.Percentile(p)
		}
	}
	for _, layer := range []string{topo.LayerCore, topo.LayerAggregation, topo.LayerRack} {
		d := &metrics.Dist{}
		for _, l := range ft.LinksByLayer(layer) {
			d.Add(l.Utilization(eng.Now()))
		}
		st.reduced += d.Mean()
	}
	st.reduce = time.Since(t0)
	tr.end(sp)

	if inj != nil {
		st.applied = inj.Applied()
	}
	st.promoted, st.recycled = eng.Promoted(), eng.Recycled()
	st.flows = col.FCT.N()
	for _, li := range ft.Links() {
		st.hops += li.TxPackets()
		qs := li.Queue().Stats()
		st.enqueued += qs.EnqueuedPackets
		st.drops += qs.DroppedPackets
		st.marks += qs.MarkedPackets
	}
	return st
}

func shortFlows(base workload.Config, w scenario.WorkloadSpec) workload.ShortFlowsConfig {
	return workload.ShortFlowsConfig{
		Config:    base,
		Alpha:     w.Alpha,
		MeanBytes: w.MeanBytes,
		MinBytes:  w.MinBytes,
		MaxBytes:  w.MaxBytes,
		PerHost:   w.PerHost,
	}
}

// cellMetrics reports the canonical cell's phases and counters.
func (g *rigs) cellMetrics(st cellStats) {
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	g.set("topo.cell_build_ms", ms(st.build), "ms")
	g.set("workload.cell_start_ms", ms(st.start), "ms")
	g.set("sim.cell_run_ms", ms(st.run), "ms")
	g.set("exp.cell_reduce_ms", ms(st.reduce), "ms")

	g.set("sim.events", float64(st.events), "count")
	g.set("sim.events_per_s", float64(st.events)/st.run.Seconds(), "1/s")
	g.set("sim.events_per_hop", ratio(float64(st.events), float64(st.hops)), "ratio")
	g.set("sim.promoted_frac", ratio(float64(st.promoted), float64(st.events)), "ratio")
	g.set("sim.recycled_frac", ratio(float64(st.recycled), float64(st.events)), "ratio")

	g.set("netem.hops", float64(st.hops), "count")
	g.set("netem.drops", float64(st.drops), "count")
	g.set("netem.marks", float64(st.marks), "count")
	g.set("netem.mark_frac", ratio(float64(st.marks), float64(st.enqueued)), "ratio")
	g.set("netem.drop_frac", ratio(float64(st.drops), float64(st.enqueued+st.drops)), "ratio")

	g.set("workload.flows_completed", float64(st.flows), "count")
	g.set("workload.flows_per_s", float64(st.flows)/st.wall().Seconds(), "1/s")
}

// ratio is a/b, reading 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
