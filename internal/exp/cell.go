package exp

import (
	"fmt"
	"strings"

	"xmp/internal/chaos"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
	"xmp/internal/workload"
)

// This file is the fabric cell every fat-tree and VL2 campaign runs: a
// fabric with one queue discipline on every port, one seed, one generator
// horizon, optionally a fault schedule. A cell is NewCell, the caller's
// generators started on Cell.Base, Cell.Run, and a reducer that folds the
// collector and queue counters into the campaign's payload — so whatever
// holds at the end of every cell (today the drain audit) is checked in Run
// and nowhere else.

// ShortFlowHorizon is the generator horizon of a cell that names none:
// the robustness and fct default. internal/scenario scales it under
// -timescale but never writes it into a resolved spec (their hashes cover
// duration_ms only when a spec sets it).
const ShortFlowHorizon = 40 * sim.Millisecond

// CellConfig describes a cell's fabric and run: everything a fabric cell
// is a function of besides its scheme and generators. Zero fields mean the
// paper's Section 5.2 set-up, which WithDefaults writes down.
type CellConfig struct {
	// VL2 selects the VL2 Clos instead of the K-ary fat-tree.
	VL2 bool `json:",omitempty"`
	K   int  `json:",omitempty"`
	// QueueLimit and MarkThreshold configure every queue of the fabric.
	QueueLimit, MarkThreshold int
	// StrictNonECT drops non-ECT packets above MarkThreshold, as a RED
	// switch does, instead of letting them fill the buffer.
	StrictNonECT bool `json:",omitempty"`
	// Lossy wraps every queue in a netem.Lossy, inert until a loss-burst
	// event of Chaos arms it.
	Lossy bool `json:",omitempty"`
	Seed  int64
	// SizeScale divides the paper's flow sizes for the generators whose
	// sizes derive from them (the Section 5.2 patterns).
	SizeScale int64
	// Duration is how long generators keep starting flows; the run then
	// drains. 0 means ShortFlowHorizon.
	Duration sim.Duration
	// SACK enables selective acknowledgments on every connection.
	SACK bool `json:",omitempty"`
	// Chaos, when non-nil, is installed by Run. Its targets must resolve
	// against the fabric: callers taking untrusted schedules
	// (internal/scenario) check that first, so a failure in Run is a bug.
	Chaos *chaos.Schedule `json:",omitempty"`

	// rttStride subsamples the collector's RTT measurements: patternCell
	// sets it for a matrix cell, and every other cell keeps every 16th.
	rttStride int
	// skip names the collector series the cell's reducer never reads, so
	// the cell does not record them (Collector.Skip); zero records all.
	skip workload.Series
}

// WithDefaults returns c with its zero fields resolved: a k=8 fat-tree
// (VL2 has no arity), 100-packet queues marking at 10, flow sizes divided
// by 16, seed 1, the short-flow horizon and every 16th RTT sampled. This
// is the one place the Section 5.2 defaults are written; the CLI params
// and scenario specs resolve theirs from it.
func (c CellConfig) WithDefaults() CellConfig {
	if c.K == 0 && !c.VL2 {
		c.K = 8
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 100
	}
	if c.MarkThreshold == 0 {
		c.MarkThreshold = 10
	}
	if c.SizeScale == 0 {
		c.SizeScale = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration == 0 {
		c.Duration = ShortFlowHorizon
	}
	if c.rttStride == 0 {
		c.rttStride = 16
	}
	return c
}

// Cell is one built cell.
type Cell struct {
	// Net is the fabric's engine, link and switch graph: the clock, fault
	// targets, queue counters, per-layer utilization.
	Net *topo.Network
	// Base is what the caller's generators embed: the fabric, the cell RNG,
	// the scheme, the transport, a collector, the horizon and the worker's
	// flow arena, rewound for this cell (no campaign retains a *Flow past
	// completion, and none reads one after the cell's reducer returns).
	Base workload.Config
	// Events counts engine events executed and Faults chaos events
	// applied; Run sets both.
	Events uint64
	Faults int

	// cfg is the config the cell was built from, defaults resolved.
	cfg CellConfig
	// w is the worker the cell was built on.
	w *Worker
}

// Worker is what one RunAll goroutine carries from cell to cell: the last
// fabric NewCell built on it, the flow arena its cells carve their flows
// from and the collector the last cell handed back. It is lent to that
// cell until RunAll sees the cell's run(i) — generators, Run, reducer —
// return, and is dropped with the Worker when the campaign run ends. A nil
// Worker holds nothing.
type Worker struct {
	// key holds the CellConfig fields that shape the fabric, the rest zero.
	key CellConfig
	fab topo.Fabric
	net *topo.Network
	// lossRNG is the stream every Lossy queue of the fabric draws from.
	lossRNG *sim.RNG
	// arena outlives fabrics: a rewound arena refers to no fabric.
	arena *mptcp.Arena
	// col is the collector a cell handed back once its reducer was done
	// with it (Cell.handBack), nil when none waits; it refers to no fabric.
	col  *workload.Collector
	lent bool
}

// NewCell builds the cell's RNG, fabric and base workload config. When w
// holds a fabric of the same shape it is Reset instead of built: routing is
// static and a run leaves the fabric drained (Run audits that), so the
// recycled cell is the fresh one, event for event. Likewise w's flow arena
// is rewound (mptcp.Arena.Reset) rather than built: the last cell's Run
// audited it, and its flows are zeroed memory the new cell carves from. A
// collector the last cell handed back is rewound (Collector.Reset) and
// becomes this cell's, its sample buffers kept; without one the cell gets a
// new collector.
func NewCell(w *Worker, cfg CellConfig, scheme workload.Scheme) *Cell {
	cfg = cfg.WithDefaults()
	key := CellConfig{VL2: cfg.VL2, K: cfg.K, QueueLimit: cfg.QueueLimit,
		MarkThreshold: cfg.MarkThreshold, StrictNonECT: cfg.StrictNonECT, Lossy: cfg.Lossy}
	if w == nil || w.lent {
		w = new(Worker)
	}
	col := w.col
	w.col = nil
	if col == nil {
		col = workload.NewCollector(cfg.rttStride)
	} else {
		col.Reset(cfg.rttStride)
	}
	col.Skip(cfg.skip)
	if w.net != nil && w.key == key {
		w.net.Reset()
	} else {
		// The old fabric becomes garbage before the new one is built.
		*w = Worker{key: key, lossRNG: new(sim.RNG), arena: w.arena}
		qm := func(ba *netem.BuildArena) netem.Queue {
			q := ba.NewThresholdECN(key.QueueLimit, key.MarkThreshold)
			q.DropNonECT = key.StrictNonECT
			if key.Lossy {
				return netem.NewLossy(q, 0, w.lossRNG)
			}
			return q
		}
		eng := sim.NewEngine()
		if key.VL2 {
			v := topo.NewVL2(eng, topo.DefaultVL2Config(qm))
			w.fab, w.net = v, v.Network
		} else {
			tc := topo.DefaultFatTreeConfig(qm)
			tc.K = key.K
			ft := topo.NewFatTree(eng, tc)
			w.fab, w.net = ft, ft.Network
		}
	}
	if w.arena == nil {
		w.arena = mptcp.NewArena()
	} else {
		w.arena.Reset()
	}
	w.lent = true
	rng := sim.NewRNG(cfg.Seed)
	if key.Lossy {
		// Forked before anything else draws from rng: the stream order
		// results_robustness.txt was recorded under.
		*w.lossRNG = *rng.Fork(99)
	}
	tc := transport.DefaultConfig()
	tc.EnableSACK = cfg.SACK
	return &Cell{
		Net: w.net,
		cfg: cfg,
		w:   w,
		Base: workload.Config{
			Net:       w.fab,
			RNG:       rng,
			Scheme:    scheme,
			Transport: tc,
			Collector: col,
			Stop:      sim.Time(cfg.Duration),
			Arena:     w.arena,
		},
	}
}

// handBack gives the cell's collector to the worker it was built on, for
// the next cell to rewind and fill. A reducer calls it once it has read
// everything it reports off the collector, and only if its result keeps no
// reference to it: a result that holds the collector (FatTreeResult) never
// hands it back, so no retained result shares a buffer with a later cell.
func (c *Cell) handBack() { c.w.col = c.Base.Collector }

// drainBound is how long a cell may run past its generators' horizon
// without a single flow finishing before Run gives up on draining it. A
// cell's drain tail has no fixed bound: an fct incast burst's senders
// finish a buffer's worth per 4 s RTO round, so the 10,240-sender XMP-2
// burst drains 170.2 s past its horizon, 20,480 senders 322 s and 40,960
// senders 614 s. What a draining cell does not do is go long without any
// flow finishing (4 s at most in every cell measured, the RTO ceiling);
// one that cannot drain — a flow whose path stays down retries every 4 s
// forever — fails at the end of the first window in which no flow
// finished, after a few hundred timer events per stuck subflow, in well
// under a second of wall time. The bound is ten times the longest drain
// of any golden, bench or recycle-differential cell, rounded up, so none
// of them needs a second window.
const drainBound = 1800 * sim.Second

// maxCellEvents guards each drain window against a runaway event loop.
const maxCellEvents = 4_000_000_000

// Run installs the fault schedule, runs the engine until every flow has
// drained, and panics unless the fabric is empty and every flow is back in
// the arena (topo.CheckDrained, mptcp.Arena.Audit). Generators must have
// been started. The horizon is the generators' Stop, or now when the
// caller drains after its own horizon (the figures); past it the drain
// runs in windows of drainBound, and a window in which no flow finished
// panics naming the flows that did not.
func (c *Cell) Run() {
	var inj *chaos.Injector
	if c.cfg.Chaos != nil {
		var err error
		if inj, err = chaos.New(c.Net, *c.cfg.Chaos); err != nil {
			panic(fmt.Sprintf("exp: chaos schedule does not resolve: %v", err))
		}
		inj.Install()
	}
	eng := c.Net.Eng
	horizon := max(eng.Now(), c.Base.Stop)
	c.Events = eng.Drain(horizon, maxCellEvents)
	for deadline, left := horizon, -1; eng.Pending() != 0; {
		n := c.Base.Arena.Unfinished(nil)
		if n == left {
			panic(c.undrained(deadline))
		}
		left = n
		if deadline < sim.MaxTime-sim.Time(drainBound) {
			deadline = deadline.Add(drainBound)
		} else {
			deadline = sim.MaxTime
		}
		c.Events += eng.Drain(deadline, maxCellEvents)
	}
	c.Net.CheckDrained(c.Base.Arena)
	if inj != nil {
		c.Faults = inj.Applied()
	}
}

// undrained describes a cell cut at a drain deadline: the pending events
// and the first few flows that did not finish.
func (c *Cell) undrained(deadline sim.Time) string {
	var first [8]*mptcp.Flow
	n := c.Base.Arena.Unfinished(first[:])
	var b strings.Builder
	fmt.Fprintf(&b, "exp: cell did not drain: no flow finished in the %v up to %v; %d events pending, the last run at t=%v; %d unfinished flows",
		drainBound, deadline, c.Net.Eng.Pending(), c.Net.Eng.Now(), n)
	for i, f := range first[:min(n, len(first))] {
		sep := ", "
		if i == 0 {
			sep = ": "
		}
		fmt.Fprintf(&b, "%s%v", sep, f)
	}
	if n > len(first) {
		fmt.Fprintf(&b, " and %d more", n-len(first))
	}
	return b.String()
}

// Drops sums the packets dropped at every queue of the fabric.
func (c *Cell) Drops() (n int64) {
	for _, li := range c.Net.Links() {
		n += li.Queue().Stats().DroppedPackets
	}
	return n
}

// Marks sums the packets ECN-marked at every queue of the fabric.
func (c *Cell) Marks() (n int64) {
	for _, li := range c.Net.Links() {
		n += li.Queue().Stats().MarkedPackets
	}
	return n
}
