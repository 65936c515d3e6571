// Package mptcp assembles multipath flows: N transport connections
// (subflows) over distinct paths draining one shared data supply, coupled
// by a multipath congestion-control algorithm — XMP (the paper's scheme,
// from internal/core), LIA (RFC 6356, MPTCP's default and the paper's
// main baseline), OLIA, AMP, or deliberately uncoupled subflows for
// ablations.
//
// Single-path schemes (DCTCP, TCP-Reno with or without ECN) are exposed as
// one-subflow flows so workload generators can treat every transfer
// uniformly. Every scheme is one row of the table in algorithm.go.
package mptcp

import (
	"fmt"

	"xmp/internal/cc"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/transport"
)

// SubflowSpec describes one subflow's addressing and start offset.
type SubflowSpec struct {
	// SrcAddr/DstAddr select the path (0 = host primary address).
	SrcAddr, DstAddr netem.Addr
	// StartOffset delays the subflow's handshake relative to Flow.Start
	// (Figure 6 staggers subflow establishment).
	StartOffset sim.Duration
}

// Options configures a Flow.
type Options struct {
	// Name labels the flow in traces and examples. Hot launch paths should
	// prefer NameFn, which defers the formatting to the first Name() call —
	// campaigns that never read flow names then pay nothing for them.
	Name string
	// NameFn lazily produces the name when Name is empty; invoked at most
	// once, on the first Name() call.
	NameFn   func() string
	Src, Dst *netem.Host
	Subflows []SubflowSpec
	// TotalBytes is the transfer size; negative means unbounded (the
	// long-running rate experiments).
	TotalBytes int64
	Algorithm  Algorithm
	// Beta is the XMP/BOS window-reduction divisor (default core.DefaultBeta).
	Beta int
	// InitialCwnd per subflow in segments (default cc.DefaultInitialWindow).
	InitialCwnd int
	// Transport carries timer and delayed-ACK settings; its EchoMode is
	// overridden to match the algorithm.
	Transport transport.Config
	// NextConnID allocates connection IDs (shared across the experiment).
	NextConnID func() netem.ConnID
	// OnComplete fires when every subflow has delivered its share.
	OnComplete func(*Flow)
	// OnProgress fires whenever subflow i newly acknowledges data (rate
	// plots).
	OnProgress func(subflow int, now sim.Time, ackedBytes int)
	// OnRTTSample fires for every RTT measurement on subflow i (the
	// Figure 10 distributions).
	OnRTTSample func(subflow int, rtt sim.Duration)

	// connAlloc, set by Arena.NewFlow, slab-allocates the subflow
	// connections of fresh flows. Nil (plain allocation) outside arenas.
	connAlloc *transport.ConnAllocator
}

// Flow is one (possibly multipath) data transfer.
type Flow struct {
	name      string
	nameFn    func() string
	eng       *sim.Engine
	group     *cc.FlowGroup
	conns     []*transport.Conn
	members   []*cc.Member
	offsets   []sim.Duration
	remaining int64
	infinite  bool

	started   bool
	startAt   sim.Time
	doneAt    sim.Time
	completed int
	done      bool

	onComplete  func(*Flow)
	onProgress  func(int, sim.Time, int)
	onRTTSample func(int, sim.Duration)

	// Once-allocated plumbing retained across arena rebinds: the per-conn
	// transport callbacks capture (f, idx) and route through the mutable
	// callback fields above, so recycling a flow into a new transfer swaps
	// a few field assignments instead of reallocating closures.
	connDone    func(*transport.Conn)
	progressCBs []func(sim.Time, int)
	rttCBs      []func(sim.Duration)

	// Construction shape, captured for arena recycling: a recycled flow is
	// rebound with the same subflow count, algorithm, β, initial window and
	// transport config, so controllers and coupling state reset in place.
	shape shapeKey

	// Arena bookkeeping: gen invalidates FlowHandles when the flow is
	// released or recycled; released guards use-after-release.
	gen      uint32
	released bool
	arena    *Arena
}

// New builds a flow and its subflow connections (idle until Start).
func New(eng *sim.Engine, opts Options) *Flow {
	f := &Flow{}
	initFlow(f, eng, opts, shapeOf(&opts))
	return f
}

// initFlow is the shared constructor body behind New and Arena.NewFlow;
// shape is shapeOf(&opts).
func initFlow(f *Flow, eng *sim.Engine, opts Options, shape shapeKey) {
	alg := opts.Algorithm.row()
	if alg.controller == nil {
		panic("mptcp: unknown algorithm")
	}
	if len(opts.Subflows) == 0 {
		panic("mptcp: flow needs at least one subflow")
	}
	if !alg.multipath && len(opts.Subflows) != 1 {
		panic(fmt.Sprintf("mptcp: %v supports exactly one subflow", opts.Algorithm))
	}
	if opts.NextConnID == nil {
		panic("mptcp: NextConnID allocator required")
	}
	if opts.TotalBytes == 0 {
		panic("mptcp: TotalBytes must be positive or negative (unbounded)")
	}

	*f = Flow{
		name:        opts.Name,
		nameFn:      opts.NameFn,
		eng:         eng,
		group:       cc.NewFlowGroup(),
		remaining:   opts.TotalBytes,
		infinite:    opts.TotalBytes < 0,
		onComplete:  opts.OnComplete,
		onProgress:  opts.OnProgress,
		onRTTSample: opts.OnRTTSample,
		shape:       shape,
	}
	f.connDone = func(*transport.Conn) { f.subflowDone() }

	n := len(opts.Subflows)
	f.group.Grow(n)
	f.conns = make([]*transport.Conn, 0, n)
	f.members = make([]*cc.Member, 0, n)
	f.offsets = make([]sim.Duration, 0, n)
	f.progressCBs = make([]func(sim.Time, int), n)
	f.rttCBs = make([]func(sim.Duration), n)
	for i, spec := range opts.Subflows {
		member := f.group.Join()
		ctrl := alg.controller(shape.icw, shape.beta, f.group, member)
		idx := i
		f.progressCBs[i] = func(now sim.Time, bytes int) {
			if f.onProgress != nil {
				f.onProgress(idx, now, bytes)
			}
		}
		f.rttCBs[i] = func(rtt sim.Duration) {
			if f.onRTTSample != nil {
				f.onRTTSample(idx, rtt)
			}
		}
		conn := opts.connAlloc.NewConn(eng, transport.Options{
			ID:          opts.NextConnID(),
			Src:         opts.Src,
			Dst:         opts.Dst,
			SrcAddr:     spec.SrcAddr,
			DstAddr:     spec.DstAddr,
			Controller:  ctrl,
			Config:      shape.tc,
			Supply:      f,
			Member:      member,
			OnComplete:  f.connDone,
			OnProgress:  f.progressCBs[i],
			OnRTTSample: f.rttCBs[i],
		})
		f.conns = append(f.conns, conn)
		f.members = append(f.members, member)
		f.offsets = append(f.offsets, opts.Subflows[i].StartOffset)
	}
}

// rebind recycles a completed flow into the transfer described by opts, in
// place: same conns, controllers, coupling group and callbacks closures —
// fresh identity, supply and state. Only the arena calls it, and only for
// opts matching the flow's shape key (same algorithm, subflow count, β,
// initial window and transport config) on a drained, released flow.
func (f *Flow) rebind(opts Options) {
	if len(opts.Subflows) != len(f.conns) {
		panic("mptcp: rebind with mismatched subflow count")
	}
	f.name = opts.Name
	f.nameFn = opts.NameFn
	f.remaining = opts.TotalBytes
	f.infinite = opts.TotalBytes < 0
	f.onComplete = opts.OnComplete
	f.onProgress = opts.OnProgress
	f.onRTTSample = opts.OnRTTSample
	f.started = false
	f.startAt, f.doneAt = 0, 0
	f.completed = 0
	f.done = false
	for i, c := range f.conns {
		spec := opts.Subflows[i]
		ctrl := c.Controller()
		ctrl.Reset(f.shape.icw)
		// Members back to their fresh-Join state (Ext is structural: OLIA's
		// sibling pointer and XMP's coupler survive; OLIA's statistics were
		// reset above).
		m := f.members[i]
		m.Cwnd, m.SRTT, m.Active = 0, 0, false
		c.Rebind(transport.Options{
			ID:          opts.NextConnID(),
			Src:         opts.Src,
			Dst:         opts.Dst,
			SrcAddr:     spec.SrcAddr,
			DstAddr:     spec.DstAddr,
			Controller:  ctrl,
			Config:      f.shape.tc,
			Supply:      f,
			Member:      m,
			OnComplete:  f.connDone,
			OnProgress:  f.progressCBs[i],
			OnRTTSample: f.rttCBs[i],
		})
		f.offsets[i] = spec.StartOffset
	}
}

// drained reports whether the network holds no packet of any subflow: the
// point past which slot and ID reuse can never misdeliver.
func (f *Flow) drained() bool {
	for _, c := range f.conns {
		if c.InFlight() != 0 {
			return false
		}
	}
	return true
}

// Next implements transport.Supply: subflows pull segments on demand from
// the flow's shared remainder, which is how traffic apportions itself to
// window sizes across paths.
func (f *Flow) Next() (int, bool) {
	if f.infinite {
		return netem.MSS, true
	}
	if f.remaining <= 0 {
		return 0, false
	}
	n := int64(netem.MSS)
	if f.remaining < n {
		n = f.remaining
	}
	f.remaining -= n
	return int(n), true
}

// Start launches every subflow at its configured StartOffset from now.
func (f *Flow) Start() {
	if f.released {
		panic("mptcp: Start on a flow released to the arena")
	}
	if f.started {
		panic("mptcp: flow already started")
	}
	f.started = true
	f.startAt = f.eng.Now()
	for i, c := range f.conns {
		c := c
		if off := f.offsets[i]; off > 0 {
			f.eng.Schedule(off, func() { c.Start() })
		} else {
			c.Start()
		}
	}
}

// StopSending cuts every subflow off from the supply; the flow completes
// once outstanding data is acknowledged. Used by the rate experiments
// that stop long-lived flows on a schedule.
func (f *Flow) StopSending() {
	if f.released {
		panic("mptcp: StopSending on a flow released to the arena")
	}
	f.remaining = 0
	f.infinite = false
	for _, c := range f.conns {
		c.StopSending()
	}
}

func (f *Flow) subflowDone() {
	f.completed++
	if f.completed == len(f.conns) && !f.done {
		f.done = true
		f.doneAt = f.eng.Now()
		if f.onComplete != nil {
			f.onComplete(f)
		}
	}
}

// Name returns the flow's label, rendering and caching it on first use
// when the flow was built with Options.NameFn.
func (f *Flow) Name() string {
	if f.name == "" && f.nameFn != nil {
		f.name = f.nameFn()
		f.nameFn = nil
	}
	return f.name
}

// Algorithm returns the flow's scheme.
func (f *Flow) Algorithm() Algorithm { return f.shape.alg }

// Subflows returns the subflow connections.
func (f *Flow) Subflows() []*transport.Conn { return f.conns }

// Group returns the coupling group (for probes).
func (f *Flow) Group() *cc.FlowGroup { return f.group }

// Done reports whether all subflows completed.
func (f *Flow) Done() bool { return f.done }

// StartTime returns when Start was called.
func (f *Flow) StartTime() sim.Time { return f.startAt }

// CompletionTime returns when the last subflow finished.
func (f *Flow) CompletionTime() sim.Time { return f.doneAt }

// AckedBytes sums acknowledged application bytes across subflows.
func (f *Flow) AckedBytes() int64 {
	var total int64
	for _, c := range f.conns {
		total += c.AckedBytes()
	}
	return total
}

// GoodputBps returns the average transfer rate over the flow's lifetime in
// bits per second (the paper's "Goodput" metric), measured to completion
// or to now for running flows.
func (f *Flow) GoodputBps(now sim.Time) float64 {
	end := now
	if f.done {
		end = f.doneAt
	}
	dur := end.Sub(f.startAt)
	if dur <= 0 {
		return 0
	}
	return float64(f.AckedBytes()*8) / dur.Seconds()
}
