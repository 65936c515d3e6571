package mptcp_test

import (
	"strings"
	"testing"

	"xmp/internal/mptcp"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

// arenaFlow builds a small finite two-subflow XMP flow through the arena
// on testbed A.
func arenaFlow(a *mptcp.Arena, tb *topo.TestbedA, bytes int64) *mptcp.Flow {
	opts := flowOpts(tb, "arena", mptcp.AlgXMP)
	opts.Src, opts.Dst = tb.S[1], tb.D[1]
	opts.TotalBytes = bytes
	opts.Subflows = []mptcp.SubflowSpec{
		{SrcAddr: tb.PathAddr(tb.S[1], 0), DstAddr: tb.PathAddr(tb.D[1], 0)},
		{SrcAddr: tb.PathAddr(tb.S[1], 1), DstAddr: tb.PathAddr(tb.D[1], 1)},
	}
	return a.NewFlow(tb.Eng, opts)
}

// completeArenaFlow runs one flow to completion and returns it un-released.
func completeArenaFlow(t *testing.T, a *mptcp.Arena, tb *topo.TestbedA) *mptcp.Flow {
	t.Helper()
	f := arenaFlow(a, tb, 256<<10)
	f.Start()
	tb.Eng.Run(tb.Eng.Now() + sim.Time(10*sim.Second))
	if !f.Done() {
		t.Fatal("arena flow did not complete")
	}
	return f
}

// expectPanic runs fn and asserts it panics with a message containing want.
func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want message containing %q", r, want)
		}
	}()
	fn()
}

func TestArenaDoubleReleasePanics(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	a := mptcp.NewArena()
	f := completeArenaFlow(t, a, tb)
	a.Release(f)
	expectPanic(t, "double release", func() { a.Release(f) })
}

func TestArenaReleaseUnfinishedPanics(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	a := mptcp.NewArena()
	f := arenaFlow(a, tb, 256<<10)
	expectPanic(t, "releasing unfinished flow", func() { a.Release(f) })
}

func TestArenaReleaseForeignFlowPanics(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	a := mptcp.NewArena()
	f := completeArenaFlow(t, a, tb)
	other := mptcp.NewArena()
	expectPanic(t, "did not create", func() { other.Release(f) })
}

func TestArenaStartAfterReleasePanics(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	a := mptcp.NewArena()
	f := completeArenaFlow(t, a, tb)
	a.Release(f)
	expectPanic(t, "released to the arena", func() { f.Start() })
}

func TestFlowHandleStalePanics(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	a := mptcp.NewArena()
	f := completeArenaFlow(t, a, tb)
	h := f.Handle()
	if !h.Valid() {
		t.Fatal("handle invalid while the flow is live")
	}
	if h.Flow() != f {
		t.Fatal("handle dereferences to a different flow")
	}
	a.Release(f)
	if h.Valid() {
		t.Error("handle still valid after release")
	}
	expectPanic(t, "stale flow handle", func() { h.Flow() })
}

// TestArenaPoisonMode pins the poison semantics: a released flow's
// measurement state is scribbled with sentinels so use-after-release reads
// are loud, and a later recycle restores a fully working flow.
func TestArenaPoisonMode(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	a := mptcp.NewArena()
	a.Poison = true
	f := completeArenaFlow(t, a, tb)
	if f.CompletionTime().Sub(f.StartTime()) <= 0 {
		t.Fatal("live flow has nonpositive completion time")
	}
	a.Release(f)
	if name := f.Name(); !strings.Contains(name, "POISONED") {
		t.Errorf("released flow name %q not poisoned", name)
	}
	if d := f.CompletionTime().Sub(f.StartTime()); d != 0 {
		t.Errorf("poisoned timestamps should collapse durations to 0, got %v", d)
	}

	// Recycling the poisoned flow must hand back a fully sane one.
	g := completeArenaFlow(t, a, tb)
	if a.Recycled() != 1 {
		t.Fatalf("recycled count = %d, want 1", a.Recycled())
	}
	if g.AckedBytes() != 256<<10 {
		t.Errorf("recycled flow acked %d bytes, want %d", g.AckedBytes(), 256<<10)
	}
	if strings.Contains(g.Name(), "POISONED") {
		t.Error("recycled flow still carries the poison name")
	}
}

// TestArenaRecycleMatchesFresh pins recycling transparency: the same
// transfer run on a recycled flow completes identically to its fresh run.
func TestArenaRecycleMatchesFresh(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	a := mptcp.NewArena()

	fresh := completeArenaFlow(t, a, tb)
	freshAcked := fresh.AckedBytes()
	freshDur := fresh.CompletionTime().Sub(fresh.StartTime())
	a.Release(fresh)

	recycled := completeArenaFlow(t, a, tb)
	if a.Fresh() != 1 || a.Recycled() != 1 {
		t.Fatalf("fresh=%d recycled=%d, want 1/1", a.Fresh(), a.Recycled())
	}
	if recycled.AckedBytes() != freshAcked {
		t.Errorf("recycled run acked %d bytes, fresh run %d", recycled.AckedBytes(), freshAcked)
	}
	if d := recycled.CompletionTime().Sub(recycled.StartTime()); d <= 0 || freshDur <= 0 {
		t.Errorf("nonpositive transfer durations: fresh %v, recycled %v", freshDur, d)
	}
}

// TestArenaAuditBalance: after a run, Audit passes only when every flow
// the arena built is back in quarantine and drained, or failed.
func TestArenaAuditBalance(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	a := mptcp.NewArena()
	a.Audit() // an empty arena balances

	f := arenaFlow(a, tb, 256<<10)
	f.Start()
	eng.Run(eng.Now() + sim.Time(sim.Millisecond))
	expectPanic(t, "packets in flight", a.Audit)
	eng.RunAll(10_000_000)
	expectPanic(t, "neither released nor failed", a.Audit)
	a.Release(f)
	a.Audit()

	// A flow whose handshake never gets through gives up and is counted
	// as failed, not leaked.
	opts := flowOpts(tb, "doomed", mptcp.AlgReno)
	opts.Src, opts.Dst = tb.S[0], tb.D[0]
	opts.TotalBytes = 1 << 10
	opts.Subflows = []mptcp.SubflowSpec{{}}
	opts.Transport.MaxRetries = 1
	for _, li := range tb.Links() {
		li.SetDown(true)
	}
	doomed := a.NewFlow(eng, opts)
	doomed.Start()
	eng.RunAll(10_000_000)
	if doomed.Subflow(0).State() != transport.StateFailed {
		t.Fatalf("subflow state %v after its path went down, want failed", doomed.Subflow(0).State())
	}
	a.Audit()
	if a.Fresh() != 2 || a.Quarantined() != 1 {
		t.Fatalf("fresh=%d quarantined=%d, want 2/1", a.Fresh(), a.Quarantined())
	}
}

// TestArenaReset: Reset refuses an arena that has not passed Audit since
// its last flow; after one it starts from zero, with an empty quarantine,
// and carves its next flow where it carved its first — a zeroed flow that
// runs its transfer like a new one.
func TestArenaReset(t *testing.T) {
	eng := sim.NewEngine()
	tb := testbedA(eng)
	a := mptcp.NewArena()
	a.Reset() // an empty arena rewinds
	f := completeArenaFlow(t, a, tb)
	acked, dur := f.AckedBytes(), f.CompletionTime().Sub(f.StartTime())
	a.Release(f)
	expectPanic(t, "not passed Audit", a.Reset)
	a.Audit()
	tb.Reset()
	a.Reset()
	if a.Fresh() != 0 || a.Recycled() != 0 || a.Quarantined() != 0 {
		t.Fatalf("after Reset: fresh=%d recycled=%d quarantined=%d, want 0/0/0", a.Fresh(), a.Recycled(), a.Quarantined())
	}
	g := completeArenaFlow(t, a, tb)
	if g != f || a.Fresh() != 1 {
		t.Fatalf("the first flow after Reset is %p (fresh=%d), want a fresh carve at %p", g, a.Fresh(), f)
	}
	if g.AckedBytes() != acked || g.CompletionTime().Sub(g.StartTime()) != dur {
		t.Errorf("rewound flow acked %d in %v, the first run %d in %v",
			g.AckedBytes(), g.CompletionTime().Sub(g.StartTime()), acked, dur)
	}
}
