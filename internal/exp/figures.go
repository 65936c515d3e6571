package exp

import (
	"fmt"
	"io"
	"strings"

	"xmp/internal/metrics"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

// The paper's testbed figures (1, 4, 6, 7) are campaigns whose cells are
// panels. A panel builds its testbed on an engine of its own, runs
// infinite flows to its horizon, reduces the series to the numbers it
// renders, and then drains: every flow stops sending and the run finishes
// in Cell.Run, so each panel is audited like any other cell.

// figure declares a figure campaign: one cell per panel config, the
// configs (scaled durations included) as the description, a panel's title
// as its progress line, and the panels rendered in order, each followed by
// a blank line. RunAll's Worker carries a fat-tree, which no testbed reuses.
func figure[C any, R interface{ Render(io.Writer) }](name, doc string, run func(C) R, panels func(RunParams) []C) *campaign {
	return listOf(descriptor[R, []R]{
		Name: name,
		Doc:  doc,
		Plan: func(p RunParams) Plan[R] {
			cfgs := panels(p)
			return Plan[R]{
				Desc:  describe(name, map[string]any{"panels": cfgs}),
				Cells: len(cfgs),
				Run:   func(_ *Worker, i int) R { return run(cfgs[i]) },
				Progress: func(w io.Writer, r R) {
					var b strings.Builder
					r.Render(&b)
					title, _, _ := strings.Cut(b.String(), "\n")
					fmt.Fprintln(w, title)
				},
			}
		},
		Render: func(w io.Writer, rs []R) {
			for _, r := range rs {
				r.Render(w)
				fmt.Fprintln(w)
			}
		},
	})
}

// drain stops every flow of a panel whose horizon has passed and finishes
// the run through Cell.Run: RunAll until the flows complete, then the
// drain audit.
func drain[F interface{ StopSending() }](net *topo.Network, flows ...F) {
	for _, f := range flows {
		f.StopSending()
	}
	(&Cell{Net: net}).Run()
}

// phases is a panel's schedule: rows of (at, action, flow) that start or
// stop the panel's flows, or close a bottleneck, at fixed offsets.
type phases []phase

// phase is one row. Its flow is an mptcp.Flow, or Figure 1's single
// transport.Conn.
type phase struct {
	at   sim.Duration
	op   sim.Op // phaseStart, phaseStop or phaseDown
	flow interface {
		Start()
		StopSending()
	}
	down *topo.Bottleneck // phaseDown: closed in both directions
}

// The actions a phase row takes.
const (
	phaseStart sim.Op = iota
	phaseStop
	phaseDown
)

// install puts every row on the calendar in row order, each as a typed
// event at its offset from now. The rows must not move afterwards.
func (ps phases) install(eng *sim.Engine) {
	for i := range ps {
		eng.ScheduleTarget(ps[i].at, &ps[i], ps[i].op, nil)
	}
}

// OnEvent implements sim.Target: the row's time has come.
func (p *phase) OnEvent(op sim.Op, _ any) {
	switch op {
	case phaseStart:
		p.flow.Start()
	case phaseStop:
		p.flow.StopSending()
	default:
		p.down.SetDown(true)
	}
}

// xmpFlow builds an XMP flow of the given subflows that sends until
// stopped.
func xmpFlow(net *topo.Network, beta int, src, dst *netem.Host, subflows []mptcp.SubflowSpec, obs mptcp.Observer) *mptcp.Flow {
	return mptcp.New(net.Eng, mptcp.Options{
		Src: src, Dst: dst,
		Subflows:   subflows,
		TotalBytes: -1,
		Algorithm:  mptcp.AlgXMP,
		Beta:       beta,
		Transport:  transport.DefaultConfig(),
		NextConnID: net.NextConnID,
		Observer:   obs,
	})
}

// The figures plot acknowledged bytes over time; these observers feed a
// connection's or flow's progress into its rate series.

// connSeries is a connection's transport.Owner: its progress goes into one
// series (Figure 1's single-path senders).
type connSeries struct{ *metrics.RateSeries }

func (s connSeries) Progress(now sim.Time, ackedBytes int) { s.Add(now, ackedBytes) }
func (connSeries) RTTSample(sim.Duration)                  {}
func (connSeries) Complete(*transport.Conn)                {}

// flowSeries is a flow's mptcp.Observer: every subflow's progress goes into
// one series (Figure 6's per-flow rates).
type flowSeries struct{ *metrics.RateSeries }

func (s flowSeries) Progress(_ int, now sim.Time, ackedBytes int) { s.Add(now, ackedBytes) }
func (flowSeries) RTTSample(int, sim.Duration)                    {}
func (flowSeries) Complete(*mptcp.Flow)                           {}

// subflowSeries is a two-subflow flow's mptcp.Observer: subflow i's
// progress goes into series i (Figures 4 and 7).
type subflowSeries [2]*metrics.RateSeries

func (s *subflowSeries) Progress(i int, now sim.Time, ackedBytes int) { s[i].Add(now, ackedBytes) }
func (*subflowSeries) RTTSample(int, sim.Duration)                    {}
func (*subflowSeries) Complete(*mptcp.Flow)                           {}
