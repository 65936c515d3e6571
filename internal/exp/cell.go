package exp

import (
	"fmt"

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
	// RTTStride subsamples the collector's RTT measurements.
	RTTStride int
	// SACK enables selective acknowledgments on every connection.
	SACK bool `json:",omitempty"`
	// Chaos, when non-nil, is installed by Run. Its targets must resolve
	// against the fabric: callers taking untrusted schedules
	// (internal/scenario) check that first, so a failure in Run is a bug.
	Chaos *chaos.Schedule `json:",omitempty"`
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
	if c.RTTStride == 0 {
		c.RTTStride = 16
	}
	return c
}

// Cell is one built cell.
type Cell struct {
	// Net is the fabric's engine, link and switch graph: the clock, fault
	// targets, queue counters, per-layer utilization.
	Net *topo.Network
	// Base is what the caller's generators embed: the fabric, the cell RNG,
	// the scheme, the transport, a collector, the horizon and a flow arena
	// (no campaign retains a *Flow past completion).
	Base workload.Config
	// Events counts engine events executed and Faults chaos events
	// applied; Run sets both.
	Events uint64
	Faults int

	// cfg is the config the cell was built from, defaults resolved.
	cfg CellConfig
}

// Worker is what one RunAll goroutine carries from cell to cell: the last
// fabric NewCell built on it. It is lent to that cell until RunAll sees the
// cell's run(i) — generators, Run, reducer — return, and is dropped with
// the Worker when the campaign run ends. A nil Worker holds nothing.
type Worker struct {
	// key holds the CellConfig fields that shape the fabric, the rest zero.
	key CellConfig
	fab topo.Fabric
	net *topo.Network
	// lossRNG is the stream every Lossy queue of the fabric draws from.
	lossRNG *sim.RNG
	lent    bool
}

// NewCell builds the cell's RNG, fabric and base workload config. When w
// holds a fabric of the same shape it is Reset instead of built: routing is
// static and a run leaves the fabric drained (Run audits that), so the
// recycled cell is the fresh one, event for event.
func NewCell(w *Worker, cfg CellConfig, scheme workload.Scheme) *Cell {
	cfg = cfg.WithDefaults()
	key := CellConfig{VL2: cfg.VL2, K: cfg.K, QueueLimit: cfg.QueueLimit,
		MarkThreshold: cfg.MarkThreshold, StrictNonECT: cfg.StrictNonECT, Lossy: cfg.Lossy}
	if w == nil || w.lent {
		w = new(Worker)
	}
	if w.net != nil && w.key == key {
		w.net.Reset()
	} else {
		// The old fabric becomes garbage before the new one is built.
		*w = Worker{key: key, lossRNG: new(sim.RNG)}
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
		Base: workload.Config{
			Net:       w.fab,
			RNG:       rng,
			Scheme:    scheme,
			Transport: tc,
			Collector: workload.NewCollector(cfg.RTTStride),
			Stop:      sim.Time(cfg.Duration),
			Arena:     mptcp.NewArena(),
		},
	}
}

// Run installs the fault schedule, runs the engine until every flow has
// drained, and panics unless the fabric is empty and every flow is back in
// the arena (topo.CheckDrained, mptcp.Arena.Audit). Generators must have
// been started.
func (c *Cell) Run() {
	var inj *chaos.Injector
	if c.cfg.Chaos != nil {
		var err error
		if inj, err = chaos.New(c.Net, *c.cfg.Chaos); err != nil {
			panic(fmt.Sprintf("exp: chaos schedule does not resolve: %v", err))
		}
		inj.Install()
	}
	c.Events = c.Net.Eng.RunAll(4_000_000_000)
	c.Net.CheckDrained(c.Base.Arena)
	if inj != nil {
		c.Faults = inj.Applied()
	}
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
