package exp

import (
	"strings"
	"testing"

	"xmp/internal/chaos"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/workload"
)

// TestCellRun pins what holds for every cell, whichever campaign composed
// it: Run refuses a fabric that saw an unroutable packet — with or without
// a lossy fabric and a fault schedule — and a lossy cell forks its loss
// stream off the cell RNG before anything else draws, so one config is one
// result.
func TestCellRun(t *testing.T) {
	plain := CellConfig{K: 4, Seed: 1, Duration: 10 * sim.Millisecond}
	lossy := plain
	lossy.Lossy = true
	lossy.Chaos = &chaos.Schedule{Seed: 7, Events: []chaos.Event{{
		At: 2 * sim.Millisecond, Kind: chaos.LossBurst, Target: "edge0.0->agg0.0", Dur: 5 * sim.Millisecond, P: 0.05,
	}}}

	for name, cfg := range map[string]CellConfig{"plain": plain, "lossy under chaos": lossy} {
		c := NewCell(nil, cfg, SchemeXMP2)
		h := c.Base.Net.Host(0)
		h.Send(netem.NewDataPacket(c.Base.Net.NextConnID(), h.PrimaryAddr(), 1<<20, 0, 100, true))
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "unroutable") {
					t.Errorf("%s: Run of a cell that carried a packet for an unowned address panicked with %q, want the routing sanity check", name, msg)
				}
			}()
			c.Run()
		}()
	}

	ref := sim.NewRNG(lossy.Seed)
	ref.Fork(99)
	if got, want := NewCell(nil, lossy, SchemeXMP2).Base.RNG.Int63n(1<<62), ref.Int63n(1<<62); got != want {
		t.Errorf("lossy cell RNG is not NewRNG(seed) after exactly Fork(99): next draw %d, want %d", got, want)
	}
	point := func() RobustnessPoint {
		return RunChaosCell(nil, ChaosCellConfig{
			Cell:   lossy,
			Scheme: SchemeXMP2,
			Random: &workload.RandomConfig{ParetoMeanBytes: 256 << 10, ParetoMaxBytes: 1 << 20, MaxFlowsPerDst: 4},
			Short:  &workload.ShortFlowsConfig{Alpha: 1.1, MeanBytes: 48 << 10, MinBytes: 1 << 10, MaxBytes: 2 << 20, PerHost: 1},
		})
	}
	a, b := point(), point()
	if a != b {
		t.Errorf("one lossy config, two points:\n%+v\n%+v", a, b)
	}
	if a.Faults != 1 || a.Flows == 0 || a.Drops == 0 {
		t.Errorf("loss burst did not bite a running cell: %+v", a)
	}
}
