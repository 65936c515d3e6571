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

	"xmp/internal/arena"
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

// Options configures a Flow. Every subflow starts at
// cc.DefaultInitialWindow segments.
type Options struct {
	Src, Dst *netem.Host
	Subflows []SubflowSpec
	// TotalBytes is the transfer size; negative means unbounded (the
	// long-running rate experiments).
	TotalBytes int64
	Algorithm  Algorithm
	// Beta is the XMP/BOS window-reduction divisor (default core.DefaultBeta).
	Beta int
	// Transport carries timer and delayed-ACK settings; its EchoMode is
	// overridden to match the algorithm.
	Transport transport.Config
	// NextConnID allocates connection IDs (shared across the experiment).
	NextConnID func() netem.ConnID
	// Observer receives the flow's events; nil for none.
	Observer Observer
}

// Observer receives a flow's events. Observers are typically pointers, so
// storing one in Options allocates nothing.
type Observer interface {
	// Progress fires whenever subflow i newly acknowledges data (rate
	// plots).
	Progress(subflow int, now sim.Time, ackedBytes int)
	// RTTSample fires for every RTT measurement on subflow i (the Figure
	// 10 distributions).
	RTTSample(subflow int, rtt sim.Duration)
	// Complete fires when every subflow has delivered its share.
	Complete(f *Flow)
}

// Flow is one (possibly multipath) data transfer. Its fields are ordered
// by width, so the record packs (TestFlowLayout).
type Flow struct {
	eng *sim.Engine
	// group couples the subflows of a multipath flow; its members live in
	// subs. Single-path controllers never read it, so it stays empty.
	group cc.FlowGroup
	// subs is the flow's one block: a record per subflow, sized to the
	// subflow count and kept across arena rebinds.
	subs      []subflow
	remaining int64
	startAt   sim.Time
	doneAt    sim.Time
	obs       Observer
	arena     *Arena

	// Construction shape, captured for arena recycling: a recycled flow is
	// rebound with the same subflow count, algorithm, β and transport
	// config, so controllers and coupling state reset in place.
	shape shapeKey

	// completed counts finished subflows, at most shape.nsub.
	completed int32
	// Arena bookkeeping: gen invalidates FlowHandles when the flow is
	// released or recycled; released guards use-after-release.
	gen      uint32
	released bool

	infinite bool
	started  bool
	done     bool
}

// subflow is one subflow's record in its flow's block: the connection
// itself, the coupling-group member it publishes through, its start offset
// and index (below the flow's int32 subflow count). It is the connection's
// transport.Owner, forwarding to the flow. Records never move, so the
// connection is built in place.
type subflow struct {
	flow   *Flow
	member cc.Member
	offset sim.Duration
	idx    int32
	conn   transport.Conn
}

// OnEvent implements sim.Target: a subflow with a start offset starts.
// Not for direct use.
func (s *subflow) OnEvent(sim.Op, any) { s.conn.Start() }

// Progress implements transport.Owner.
func (s *subflow) Progress(now sim.Time, ackedBytes int) {
	if obs := s.flow.obs; obs != nil {
		obs.Progress(int(s.idx), now, ackedBytes)
	}
}

// RTTSample implements transport.Owner.
func (s *subflow) RTTSample(rtt sim.Duration) {
	if obs := s.flow.obs; obs != nil {
		obs.RTTSample(int(s.idx), rtt)
	}
}

// Complete implements transport.Owner.
func (s *subflow) Complete(*transport.Conn) { s.flow.subflowDone() }

// New builds a flow and its subflow connections (idle until Start).
func New(eng *sim.Engine, opts Options) *Flow {
	f := &Flow{}
	initFlow(f, eng, opts, shapeOf(&opts), nil)
	return f
}

// initFlow is the shared constructor body behind New and Arena.NewFlow;
// shape is shapeOf(&opts). The flow's block (connections included), member
// list and controllers are carved from a, or allocated one by one when a
// is nil.
func initFlow(f *Flow, eng *sim.Engine, opts Options, shape shapeKey, a *Arena) {
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

	var (
		subs    *arena.Runs[subflow]
		members *arena.Runs[*cc.Member]
		ctrls   *arena.Slabs
	)
	if a != nil {
		subs, members, ctrls = &a.subs, &a.members, &a.ctrls
	}
	n := len(opts.Subflows)
	*f = Flow{
		eng:       eng,
		subs:      subs.Carve(n),
		remaining: opts.TotalBytes,
		infinite:  opts.TotalBytes < 0,
		obs:       opts.Observer,
		shape:     shape,
		arena:     a,
	}
	f.group.Slabs = ctrls
	if alg.multipath {
		f.group.Back(members.Carve(n))
	}
	for i := range f.subs {
		s := &f.subs[i]
		s.flow, s.idx = f, int32(i)
		if alg.multipath {
			f.group.Add(&s.member)
		}
		ctrl := alg.controller(cc.DefaultInitialWindow, int(shape.beta), &f.group, &s.member)
		transport.InitConn(&s.conn, eng, f.connOptions(&opts, s, ctrl))
	}
}

// connOptions returns the transport options of subflow s under opts, for
// NewConn and Rebind, and records the subflow's start offset.
func (f *Flow) connOptions(opts *Options, s *subflow, ctrl cc.Controller) transport.Options {
	spec := opts.Subflows[s.idx]
	s.offset = spec.StartOffset
	return transport.Options{
		ID:         opts.NextConnID(),
		Src:        opts.Src,
		Dst:        opts.Dst,
		SrcAddr:    spec.SrcAddr,
		DstAddr:    spec.DstAddr,
		Controller: ctrl,
		Config:     f.shape.tc,
		Supply:     f,
		Member:     &s.member,
		Owner:      s,
	}
}

// rebind recycles a completed flow into the transfer described by opts, in
// place: same block, conns, controllers and coupling group — fresh
// identity, supply and state. Only the arena calls it, and only for opts
// matching the flow's shape key (same algorithm, subflow count, β and
// transport config) on a drained, released flow.
func (f *Flow) rebind(opts Options) {
	if len(opts.Subflows) != len(f.subs) {
		panic("mptcp: rebind with mismatched subflow count")
	}
	f.remaining = opts.TotalBytes
	f.infinite = opts.TotalBytes < 0
	f.obs = opts.Observer
	f.started = false
	f.startAt, f.doneAt = 0, 0
	f.completed = 0
	f.done = false
	for i := range f.subs {
		s := &f.subs[i]
		ctrl := s.conn.Controller()
		// The member back to its fresh state (Ext is structural: OLIA's
		// sibling pointer survives; OLIA's statistics are reset with the
		// controller below).
		s.member.Cwnd, s.member.SRTT, s.member.Active = 0, 0, false
		s.conn.Rebind(f.connOptions(&opts, s, ctrl))
		ctrl.Reset(cc.DefaultInitialWindow) // after Rebind, whose audit reads the old window
	}
}

// drained reports whether the network holds no packet of any subflow: the
// point past which slot and ID reuse can never misdeliver.
func (f *Flow) drained() bool {
	for i := range f.subs {
		if f.subs[i].conn.InFlight() != 0 {
			return false
		}
	}
	return true
}

// failed reports whether a subflow gave up on its transfer: such a flow
// never completes, so it is never released.
func (f *Flow) failed() bool {
	for i := range f.subs {
		if f.subs[i].conn.State() == transport.StateFailed {
			return true
		}
	}
	return false
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
	for i := range f.subs {
		if s := &f.subs[i]; s.offset > 0 {
			f.eng.ScheduleTarget(s.offset, s, 0, nil)
		} else {
			s.conn.Start()
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
	for i := range f.subs {
		f.subs[i].conn.StopSending()
	}
}

func (f *Flow) subflowDone() {
	f.completed++
	if int(f.completed) == len(f.subs) && !f.done {
		f.done = true
		f.doneAt = f.eng.Now()
		if f.obs != nil {
			f.obs.Complete(f)
		}
	}
}

// String names the flow in audit panics and tests: its algorithm, subflow
// count, endpoints and first connection ID, formatted only when called. A
// released flow of a poisoning arena reads POISONED.
func (f *Flow) String() string {
	if f.released && f.arena.Poison {
		return "POISONED(released flow)"
	}
	c := &f.subs[0].conn
	src, dst := c.Hosts()
	return fmt.Sprintf("%v-%d %s->%s conn %d", f.shape.alg, len(f.subs), src.Name, dst.Name, c.ID())
}

// Algorithm returns the flow's scheme.
func (f *Flow) Algorithm() Algorithm { return f.shape.alg }

// NumSubflows returns the number of subflows.
func (f *Flow) NumSubflows() int { return len(f.subs) }

// Subflow returns subflow i's connection.
func (f *Flow) Subflow(i int) *transport.Conn { return &f.subs[i].conn }

// Done reports whether all subflows completed.
func (f *Flow) Done() bool { return f.done }

// StartTime returns when Start was called.
func (f *Flow) StartTime() sim.Time { return f.startAt }

// CompletionTime returns when the last subflow finished.
func (f *Flow) CompletionTime() sim.Time { return f.doneAt }

// AckedBytes sums acknowledged application bytes across subflows.
func (f *Flow) AckedBytes() int64 {
	var total int64
	for i := range f.subs {
		total += f.subs[i].conn.AckedBytes()
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
