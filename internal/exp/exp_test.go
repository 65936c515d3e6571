package exp

import (
	"testing"

	"xmp/internal/sim"
)

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
