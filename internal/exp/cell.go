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
// holds at the end of every cell (today the routing sanity check) is
// checked in Run and nowhere else.

// ShortFlowHorizon is the generator horizon of a cell that names none:
// the robustness and fct default. internal/scenario scales it under
// -timescale but never writes it into a resolved spec (their hashes cover
// duration_ms only when a spec sets it).
const ShortFlowHorizon = 40 * sim.Millisecond

// CellConfig describes a cell's fabric and run. Zero fields mean the
// paper's Section 5.2 set-up: a k=8 fat-tree, 100-packet queues marking at
// 10, seed 1.
type CellConfig struct {
	// VL2 selects the VL2 Clos instead of the K-ary fat-tree.
	VL2 bool
	K   int
	// QueueLimit and MarkThreshold configure every queue of the fabric.
	QueueLimit, MarkThreshold int
	// StrictNonECT drops non-ECT packets above MarkThreshold, as a RED
	// switch does, instead of letting them fill the buffer.
	StrictNonECT bool
	// Lossy wraps every queue in a netem.Lossy, inert until a loss-burst
	// event of Chaos arms it.
	Lossy bool
	Seed  int64
	// Duration is how long generators keep starting flows; the run then
	// drains. 0 means ShortFlowHorizon.
	Duration sim.Duration
	// RTTStride subsamples the collector's RTT measurements (default 16).
	RTTStride int
	// SACK enables selective acknowledgments on every connection.
	SACK bool
	// Chaos, when non-nil, is installed by Run. Its targets must resolve
	// against the fabric: callers taking untrusted schedules
	// (internal/scenario) check that first, so a failure in Run is a bug.
	Chaos *chaos.Schedule
}

func (c *CellConfig) defaults() {
	if c.K == 0 {
		c.K = 8
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 100
	}
	if c.MarkThreshold == 0 {
		c.MarkThreshold = 10
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

	chaos *chaos.Schedule
}

// NewCell builds the cell's engine, RNG, fabric and base workload config.
func NewCell(cfg CellConfig, scheme workload.Scheme) *Cell {
	cfg.defaults()
	eng := sim.NewEngine()
	c := &Cell{chaos: cfg.Chaos}
	rng := sim.NewRNG(cfg.Seed)
	var lossRNG *sim.RNG
	if cfg.Lossy {
		// Forked before anything else draws from rng: the stream order
		// results_robustness.txt was recorded under.
		lossRNG = rng.Fork(99)
	}
	qm := func(ba *netem.BuildArena) netem.Queue {
		q := ba.NewThresholdECN(cfg.QueueLimit, cfg.MarkThreshold)
		q.DropNonECT = cfg.StrictNonECT
		if cfg.Lossy {
			return netem.NewLossy(q, 0, lossRNG)
		}
		return q
	}
	var fabric topo.Fabric
	if cfg.VL2 {
		v := topo.NewVL2(eng, topo.DefaultVL2Config(qm))
		fabric, c.Net = v, v.Network
	} else {
		tc := topo.DefaultFatTreeConfig(qm)
		tc.K = cfg.K
		ft := topo.NewFatTree(eng, tc)
		fabric, c.Net = ft, ft.Network
	}
	tc := transport.DefaultConfig()
	tc.EnableSACK = cfg.SACK
	c.Base = workload.Config{
		Net:       fabric,
		RNG:       rng,
		Scheme:    scheme,
		Transport: tc,
		Collector: workload.NewCollector(cfg.RTTStride),
		Stop:      sim.Time(cfg.Duration),
		Arena:     mptcp.NewArena(),
	}
	return c
}

// Run installs the fault schedule, runs the engine until every flow has
// drained, and panics if a switch saw an unroutable or looping packet.
// Generators must have been started.
func (c *Cell) Run() {
	var inj *chaos.Injector
	if c.chaos != nil {
		var err error
		if inj, err = chaos.New(c.Net, *c.chaos); err != nil {
			panic(fmt.Sprintf("exp: chaos schedule does not resolve: %v", err))
		}
		inj.Install()
	}
	c.Events = c.Net.Eng.RunAll(4_000_000_000)
	c.Net.CheckRoutingSanity()
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
