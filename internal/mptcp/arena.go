package mptcp

import (
	"fmt"
	"os"

	"xmp/internal/arena"
	"xmp/internal/cc"
	"xmp/internal/core"
	"xmp/internal/sim"
	"xmp/internal/transport"
)

// shapeKey identifies the recyclable shape of a flow: two flows with equal
// keys are structurally interchangeable — same controller types, subflow
// count and transport configuration — so one can be rebound into a transfer
// meant for the other.
type shapeKey struct {
	alg  Algorithm
	nsub int
	beta int
	icw  int
	tc   transport.Config
}

// shapeOf applies the defaults of Options — β, initial window, the echo
// mode the algorithm's row names — once, for New to build from and for
// NewFlow and Release to index the quarantine by, so equivalent Options
// collide.
func shapeOf(opts *Options) shapeKey {
	beta := opts.Beta
	if beta == 0 {
		beta = core.DefaultBeta
	}
	icw := opts.InitialCwnd
	if icw == 0 {
		icw = cc.DefaultInitialWindow
	}
	tc := opts.Transport
	tc.EchoMode = opts.Algorithm.EchoMode()
	return shapeKey{
		alg:  opts.Algorithm,
		nsub: len(opts.Subflows),
		beta: beta,
		icw:  icw,
		tc:   tc,
	}
}

// Arena recycles completed flows — the whole graph: Flow, its subflow
// block and coupling group, transport connections, controllers — so a campaign
// launching millions of short transfers reaches a steady state where
// starting a flow allocates nothing.
//
// Lifecycle: the owner calls Release once a flow is Done. The flow then
// sits in quarantine, still registered with its hosts, until every packet
// it ever sent has left the network (Conn.InFlight reaches zero on all
// subflows) — a Done connection keeps re-ACKing stale duplicates from
// quarantine exactly as a non-recycled one would, so recycling is invisible
// to the packet trace. NewFlow rebinds the first drained quarantined flow
// of the requested shape, or falls back to a fresh New.
//
// Like the packet pool and the event engine it is strictly single-threaded:
// one arena per experiment run.
type Arena struct {
	quarantine map[shapeKey][]*Flow

	// conns slab-allocates the transport connections of fresh flows.
	conns transport.ConnAllocator
	// flows slab-allocates the Flow structs themselves.
	flows arena.Slab[Flow]

	// Poison makes release/reuse misuse loud: released flows get sentinel
	// state so a stale reader fails fast instead of reading plausible
	// values. Defaults to the XMPSIM_POISON environment switch, like
	// netem.PacketPool.
	Poison bool

	fresh    int64
	recycled int64
}

// arenaPoisonFromEnv is read once at startup, mirroring netem's pool.
var arenaPoisonFromEnv = os.Getenv("XMPSIM_POISON") != ""

// NewArena returns an empty flow arena.
func NewArena() *Arena {
	return &Arena{
		quarantine: make(map[shapeKey][]*Flow),
		Poison:     arenaPoisonFromEnv,
	}
}

// Fresh returns how many flows the arena built from scratch.
func (a *Arena) Fresh() int64 { return a.fresh }

// Recycled returns how many launches were served by rebinding.
func (a *Arena) Recycled() int64 { return a.recycled }

// Quarantined returns how many released flows are currently waiting to
// drain or be reused.
func (a *Arena) Quarantined() int {
	n := 0
	for _, q := range a.quarantine {
		n += len(q)
	}
	return n
}

// Audit implements netem.Auditor for a drained run: every flow the arena
// built is back in quarantine with no packet in flight, or failed (a
// failed flow never completes, so it is never released). That is
// Fresh() == Quarantined() + the failed flows; anything else is a flow
// leaked by its owner or released before the network let go of it.
func (a *Arena) Audit() {
	var failed int64
	a.flows.Each(func(f *Flow) {
		switch {
		case !f.drained():
			panic(fmt.Sprintf("mptcp: flow %q has packets in flight after the run", f.Name()))
		case f.released:
		case f.failed():
			failed++
		default:
			panic(fmt.Sprintf("mptcp: flow %q was neither released nor failed", f.Name()))
		}
	})
	if q := int64(a.Quarantined()); q+failed != a.fresh {
		panic(fmt.Sprintf("mptcp: arena built %d flows but holds %d in quarantine and %d failed", a.fresh, q, failed))
	}
}

// NewFlow builds or recycles a flow for opts (idle until Start). The
// returned flow must eventually be handed back with Release once Done;
// flows that fail instead simply stay out of the pool.
func (a *Arena) NewFlow(eng *sim.Engine, opts Options) *Flow {
	key := shapeOf(&opts)
	q := a.quarantine[key]
	for i, f := range q {
		if !f.drained() {
			continue
		}
		// Swap-remove: order within the quarantine carries no behavioural
		// meaning (all entries of a shape are interchangeable), and the
		// selection is deterministic for a deterministic event sequence.
		last := len(q) - 1
		q[i] = q[last]
		q[last] = nil
		a.quarantine[key] = q[:last]
		a.recycled++
		f.released = false
		f.gen++
		f.rebind(opts)
		return f
	}
	a.fresh++
	opts.connAlloc = &a.conns
	f := a.flows.Get()
	initFlow(f, eng, opts, key)
	f.arena = a
	return f
}

// Release returns a completed flow to the arena for eventual reuse.
// Releasing twice, releasing an unfinished flow, or releasing a flow the
// arena did not create are bugs and panic loudly.
func (a *Arena) Release(f *Flow) {
	if f.arena != a {
		panic("mptcp: releasing a flow into an arena that did not create it")
	}
	if f.released {
		panic(fmt.Sprintf("mptcp: double release of flow %q", f.Name()))
	}
	if !f.done {
		panic(fmt.Sprintf("mptcp: releasing unfinished flow %q", f.Name()))
	}
	f.released = true
	f.gen++
	if a.Poison {
		poisonFlow(f)
	}
	a.quarantine[f.shape] = append(a.quarantine[f.shape], f)
}

// poisonTime is the sentinel written into released flows' timestamps: far
// enough in the "future" that any FCT or goodput computed from it is
// absurdly negative.
const poisonTime = sim.Time(1 << 62)

// poisonFlow scribbles sentinel values over the measurement state a late
// reader might consult, so use-after-release yields obviously-wrong numbers
// (negative durations, a flagged name) rather than stale-but-plausible
// ones. Connection state is left alone: a quarantined flow's Done conns
// still re-ACK stale duplicates, which never reads Flow fields.
func poisonFlow(f *Flow) {
	f.name = "POISONED(released flow)"
	f.nameFn = nil
	f.startAt, f.doneAt = poisonTime, poisonTime
	f.remaining = 0
}

// FlowHandle is a generation-checked reference to an arena flow. It stays
// valid until the flow is released; afterwards Flow panics instead of
// returning a recycled object that now belongs to someone else.
type FlowHandle struct {
	f   *Flow
	gen uint32
}

// Handle returns a generation-checked reference to the flow as it exists
// right now.
func (f *Flow) Handle() FlowHandle { return FlowHandle{f: f, gen: f.gen} }

// Valid reports whether the handle still refers to the same logical flow.
func (h FlowHandle) Valid() bool { return h.f != nil && h.f.gen == h.gen }

// Flow dereferences the handle, panicking if the flow was released or
// recycled since the handle was taken.
func (h FlowHandle) Flow() *Flow {
	if h.f == nil {
		panic("mptcp: nil flow handle")
	}
	if h.f.gen != h.gen {
		panic("mptcp: stale flow handle: the flow was released or recycled")
	}
	return h.f
}
