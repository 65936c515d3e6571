// Package xmp is a library-scale reproduction of "Explicit Multipath
// Congestion Control for Data Center Networks" (Cao, Xu, Fu, Dong —
// ACM CoNEXT 2013): the XMP congestion-control scheme (BOS + TraSh), the
// baselines it is evaluated against (DCTCP, TCP-Reno, MPTCP with LIA, OLIA
// and AMP), and the discrete-event packet-level network simulator the
// whole evaluation runs on.
//
// This root package is a facade: it re-exports the pieces a downstream
// user composes, so that examples and experiments read top-down.
//
//	eng := xmp.NewEngine()
//	net := xmp.NewDumbbell(eng, xmp.DumbbellConfig{ ... })
//	flow := xmp.NewFlow(eng, xmp.FlowOptions{Algorithm: xmp.AlgXMP, ...})
//	flow.Start()
//	eng.Run(xmp.Time(5 * xmp.Second))
//
// The layering underneath:
//
//	internal/sim        event engine (clock, calendar, timers, RNG)
//	internal/netem      packets, queues (drop-tail / threshold-ECN / RED),
//	                    links, switches, hosts
//	internal/topo       topology builders (dumbbell, Figure 3 testbeds,
//	                    Figure 5 torus, k-ary Fat-Tree w/ two-level routing)
//	internal/transport  packet-granularity TCP with ECN feedback modes
//	internal/cc         controller interface, the shared Reno window,
//	                    Reno / DCTCP / AMP
//	internal/core       the paper's contribution: BOS and TraSh (= XMP)
//	internal/mptcp      multipath flows; LIA and OLIA couplers; the
//	                    algorithm table every scheme is one row of
//	internal/workload   Permutation / Random / Incast generators
//	internal/metrics    distributions, rate series, fairness index
//	internal/exp        one runner per table and figure
package xmp

import (
	"xmp/internal/cc"
	"xmp/internal/core"
	"xmp/internal/exp"
	"xmp/internal/metrics"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
	"xmp/internal/workload"
)

// Simulation engine.
type (
	// Engine is the discrete-event scheduler every experiment runs on.
	Engine = sim.Engine
	// Time is simulated nanoseconds since the start of the run.
	Time = sim.Time
	// Duration is a span of simulated time.
	Duration = sim.Duration
	// RNG is the deterministic random source used by workloads.
	RNG = sim.RNG
)

// Re-exported duration units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns a fresh simulation engine.
func NewEngine() *Engine { return sim.NewEngine() }

// NewRNG returns a seeded deterministic random source.
func NewRNG(seed int64) *RNG { return sim.NewRNG(seed) }

// Network elements.
type (
	// Bps is a link rate in bits per second.
	Bps = netem.Bps
	// Packet is one simulated packet.
	Packet = netem.Packet
	// Host is an end system owning addresses and a NIC.
	Host = netem.Host
	// Link is a store-and-forward unidirectional link.
	Link = netem.Link
	// Queue is a link's buffering discipline.
	Queue = netem.Queue
)

// Re-exported capacities.
const (
	Mbps = netem.Mbps
	Gbps = netem.Gbps
)

// Topologies.
type (
	// Network is a constructed topology with its identifier spaces.
	Network = topo.Network
	// Dumbbell is the Figure 1 single-bottleneck topology.
	Dumbbell = topo.Dumbbell
	// DumbbellConfig parameterizes NewDumbbell.
	DumbbellConfig = topo.DumbbellConfig
	// FatTree is the Section 5.2 k-ary fat-tree.
	FatTree = topo.FatTree
	// FatTreeConfig parameterizes NewFatTree.
	FatTreeConfig = topo.FatTreeConfig
	// TestbedA is the Figure 3(a) traffic-shifting testbed.
	TestbedA = topo.TestbedA
	// TestbedAConfig parameterizes NewTestbedA.
	TestbedAConfig = topo.TestbedAConfig
	// TestbedB is the Figure 3(b) fairness testbed.
	TestbedB = topo.TestbedB
	// TestbedBConfig parameterizes NewTestbedB.
	TestbedBConfig = topo.TestbedBConfig
	// Torus is the Figure 5 ring of bottlenecks.
	Torus = topo.Torus
	// TorusConfig parameterizes NewTorus.
	TorusConfig = topo.TorusConfig
	// QueueMaker builds a fresh queue per link egress.
	QueueMaker = topo.QueueMaker
)

// NewTestbedA builds the Figure 3(a) two-bottleneck testbed.
func NewTestbedA(eng *Engine, cfg TestbedAConfig) *TestbedA { return topo.NewTestbedA(eng, cfg) }

// NewTestbedB builds the Figure 3(b) single-bottleneck testbed.
func NewTestbedB(eng *Engine, cfg TestbedBConfig) *TestbedB { return topo.NewTestbedB(eng, cfg) }

// NewTorus builds the Figure 5 ring of bottlenecks.
func NewTorus(eng *Engine, cfg TorusConfig) *Torus { return topo.NewTorus(eng, cfg) }

// NewDumbbell builds the Figure 1 topology.
func NewDumbbell(eng *Engine, cfg DumbbellConfig) *Dumbbell { return topo.NewDumbbell(eng, cfg) }

// NewFatTree builds the Section 5.2 fat-tree.
func NewFatTree(eng *Engine, cfg FatTreeConfig) *FatTree { return topo.NewFatTree(eng, cfg) }

// DefaultFatTreeConfig is the paper's k=8 configuration.
func DefaultFatTreeConfig(qm QueueMaker) FatTreeConfig { return topo.DefaultFatTreeConfig(qm) }

// ECNQueue returns a QueueMaker for the paper's instantaneous-threshold
// marking queues (rule 1 of BOS).
func ECNQueue(limit, k int) QueueMaker { return topo.ECNMaker(limit, k) }

// DropTailQueue returns a QueueMaker for plain drop-tail queues.
func DropTailQueue(limit int) QueueMaker { return topo.DropTailMaker(limit) }

// Flows.
type (
	// Flow is one (possibly multipath) data transfer.
	Flow = mptcp.Flow
	// FlowOptions configures NewFlow.
	FlowOptions = mptcp.Options
	// SubflowSpec selects one subflow's addresses and start offset.
	SubflowSpec = mptcp.SubflowSpec
	// Algorithm selects the congestion-control scheme.
	Algorithm = mptcp.Algorithm
	// TransportConfig carries timer/ACK settings.
	TransportConfig = transport.Config
)

// The supported congestion-control schemes: one constant per row of
// internal/mptcp's algorithm table.
const (
	AlgXMP          = mptcp.AlgXMP
	AlgLIA          = mptcp.AlgLIA
	AlgOLIA         = mptcp.AlgOLIA
	AlgAMP          = mptcp.AlgAMP
	AlgUncoupledBOS = mptcp.AlgUncoupledBOS
	AlgDCTCP        = mptcp.AlgDCTCP
	AlgRenoECN      = mptcp.AlgRenoECN
	AlgReno         = mptcp.AlgReno
)

// NewFlow builds a flow; call Start on it to begin.
func NewFlow(eng *Engine, opts FlowOptions) *Flow { return mptcp.New(eng, opts) }

// DefaultTransportConfig returns the paper's transport settings
// (RTOmin 200 ms, delayed ACKs of 2).
func DefaultTransportConfig() TransportConfig { return transport.DefaultConfig() }

// Core algorithm access for users embedding BOS/TraSh directly.
type (
	// BOS is the Buffer Occupancy Suppression controller (Section 2.1).
	BOS = core.BOS
	// TraSh is the Traffic Shifting coupler (Section 2.2).
	TraSh = core.TraSh
	// FlowGroup couples the subflows of one flow.
	FlowGroup = cc.FlowGroup
)

// NewBOS returns a standalone BOS controller (the single-path δ=1; XMP's
// coupled subflows come from XMPSubflows).
func NewBOS(initialCwnd, beta int) *BOS { return core.NewBOS(initialCwnd, beta) }

// XMPSubflows builds the coupled controllers of an n-subflow XMP flow.
func XMPSubflows(n, initialCwnd, beta int) []core.Subflow { return core.XMP(n, initialCwnd, beta) }

// MinMarkingThreshold is Equation 1: the smallest K that keeps a link
// busy under a 1/β cut.
func MinMarkingThreshold(bdpPackets float64, beta int) int {
	return core.MinMarkingThreshold(bdpPackets, beta)
}

// Workloads and measurement.
type (
	// Scheme pairs an algorithm with its subflow count ("XMP-2").
	Scheme = workload.Scheme
	// Collector accumulates goodput/RTT/JCT measurements.
	Collector = workload.Collector
	// Dist is a sample distribution (percentiles, CDF).
	Dist = metrics.Dist
	// RateSeries is a time-binned rate measurement.
	RateSeries = metrics.RateSeries
)

// JainIndex is Jain's fairness index over per-flow shares.
func JainIndex(xs []float64) float64 { return metrics.JainIndex(xs) }

// Experiments: the per-table/per-figure runners (see cmd/xmpsim for the
// command-line front end).
type (
	// Matrix is the pattern x scheme result set behind Tables 1/3 and
	// Figures 8-11.
	Matrix = exp.Matrix
	// Pattern names a Section 5.2 traffic pattern.
	Pattern = exp.Pattern
)

// The evaluation patterns.
const (
	PatternPermutation = exp.Permutation
	PatternRandom      = exp.Random
	PatternIncast      = exp.Incast
)
