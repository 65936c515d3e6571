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
	tc   transport.Config
}

// shapeOf applies the defaults of Options — β and the echo mode the
// algorithm's row names — once, for New to build from and for
// NewFlow and Release to index the quarantine by, so equivalent Options
// collide.
func shapeOf(opts *Options) shapeKey {
	beta := opts.Beta
	if beta == 0 {
		beta = core.DefaultBeta
	}
	tc := opts.Transport
	tc.EchoMode = opts.Algorithm.EchoMode()
	return shapeKey{
		alg:  opts.Algorithm,
		nsub: len(opts.Subflows),
		beta: beta,
		tc:   tc,
	}
}

// Arena recycles completed flows — the whole graph: Flow, its subflow
// block and coupling group, transport connections, controllers — so a campaign
// launching millions of short transfers reaches a steady state where
// starting a flow allocates nothing. A flow it builds from scratch
// allocates nothing of its own either: every object is carved from the
// arena's chunks (arena.Slab, arena.Runs) — a 10,240-sender incast, whose
// flows are all alive at once, costs a few chunks per kind of object.
//
// Lifecycle: the owner calls Release once a flow is Done. The flow then
// sits in quarantine, still registered with its hosts, until every packet
// it ever sent has left the network (Conn.InFlight reaches zero on all
// subflows) — a Done connection keeps re-ACKing stale duplicates from
// quarantine exactly as a non-recycled one would, so recycling is invisible
// to the packet trace. NewFlow rebinds the first drained quarantined flow
// of the requested shape, or falls back to a fresh New.
//
// Between cells its owner rewinds it with Reset: the chunks it carved from
// and the quarantine's shapes are kept, every object is zeroed, and the
// next cell carves its flows from the same memory. An exp.Worker owns one
// for the cells it runs; tests and the benchmark's rigs build their own.
// Like the packet pool and the event engine it is strictly single-threaded.
type Arena struct {
	quarantine quarantine

	// Fresh flows are carved: the Flow structs, their subflow blocks
	// (connections included), the member lists of their coupling groups
	// and, per controller type, their controllers.
	flows   arena.Slab[Flow]
	subs    arena.Runs[subflow]
	members arena.Runs[*cc.Member]
	ctrls   arena.Slabs

	// Poison makes release/reuse misuse loud: released flows get sentinel
	// state so a stale reader fails fast instead of reading plausible
	// values. Defaults to the XMPSIM_POISON environment switch, like
	// netem.PacketPool.
	Poison bool

	fresh    int64
	recycled int64
	// audited: Audit has passed since the last flow was built or released,
	// so Reset may rewind.
	audited bool
}

// arenaPoisonFromEnv is read once at startup, mirroring netem's pool.
var arenaPoisonFromEnv = os.Getenv("XMPSIM_POISON") != ""

// NewArena returns an empty flow arena.
func NewArena() *Arena {
	return &Arena{Poison: arenaPoisonFromEnv}
}

// Fresh returns how many flows the arena built from scratch.
func (a *Arena) Fresh() int64 { return a.fresh }

// Recycled returns how many launches were served by rebinding.
func (a *Arena) Recycled() int64 { return a.recycled }

// Quarantined returns how many released flows are currently waiting to
// drain or be reused.
func (a *Arena) Quarantined() int {
	n := 0
	for _, sq := range a.quarantine {
		n += len(sq.flows)
	}
	return n
}

// Audit implements netem.Auditor for a drained run: every flow the arena
// built is back in quarantine with no packet in flight, or failed (a
// failed flow never completes, so it is never released). That is
// Fresh() == Quarantined() + the failed flows; anything else is a flow
// leaked by its owner or released before the network let go of it. A nil
// arena built nothing.
func (a *Arena) Audit() {
	if a == nil {
		return
	}
	var failed int64
	a.flows.Each(func(f *Flow) {
		switch {
		case !f.drained():
			panic(fmt.Sprintf("mptcp: flow %v has packets in flight after the run", f))
		case f.released:
		case f.failed():
			failed++
		default:
			panic(fmt.Sprintf("mptcp: flow %v was neither released nor failed", f))
		}
	})
	if q := int64(a.Quarantined()); q+failed != a.fresh {
		panic(fmt.Sprintf("mptcp: arena built %d flows but holds %d in quarantine and %d failed", a.fresh, q, failed))
	}
	a.audited = true
}

// Reset rewinds the arena to empty for the next cell, keeping its memory:
// every flow, subflow block, member list and controller it carved is
// zeroed and its chunks are carved again from the first, each shape's
// quarantine is emptied with its capacity kept, and Fresh and Recycled
// restart from zero. The arena must have passed Audit since its last flow
// was built or released, and the network its flows ran on must have been
// Reset (or dropped), so that nothing — no host demux slot, pending timer
// or packet — still refers to them; Reset panics on an arena not audited.
func (a *Arena) Reset() {
	if a.fresh != 0 && !a.audited {
		panic("mptcp: Reset of a flow arena that has not passed Audit since its last flow")
	}
	for i := range a.quarantine {
		sq := &a.quarantine[i]
		clear(sq.flows)
		sq.flows = sq.flows[:0]
	}
	a.flows.Reset()
	a.subs.Reset()
	a.members.Reset()
	a.ctrls.Reset()
	a.fresh, a.recycled = 0, 0
}

// NewFlow builds or recycles a flow for opts (idle until Start). The
// returned flow must eventually be handed back with Release once Done;
// flows that fail instead simply stay out of the pool.
func (a *Arena) NewFlow(eng *sim.Engine, opts Options) *Flow {
	a.audited = false
	key := shapeOf(&opts)
	if f := a.quarantine.take(key); f != nil {
		a.recycled++
		f.released = false
		f.gen++
		f.rebind(opts)
		return f
	}
	a.fresh++
	f := a.flows.Get()
	initFlow(f, eng, opts, key, a)
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
		panic(fmt.Sprintf("mptcp: double release of flow %v", f))
	}
	if !f.done {
		panic(fmt.Sprintf("mptcp: releasing unfinished flow %v", f))
	}
	f.released = true
	f.gen++
	a.audited = false
	if a.Poison {
		poisonFlow(f)
	}
	a.quarantine.put(f)
}

// quarantine holds released flows by shape until they drain and are
// reused. A worker sees a few shapes (the schemes of its cells, plus plain
// TCP for incast requests), so it is a list scanned in the order each
// shape was first released: a take and a put cost 55–80 ns against about
// 145 ns for a map, whose every access hashes the 104-byte key
// (BenchmarkQuarantine at 1, 3 and 8 shapes; DESIGN.md).
type quarantine []shapeQueue

// shapeQueue is one shape's released flows.
type shapeQueue struct {
	key   shapeKey
	flows []*Flow
}

// of returns key's queue, or nil.
func (q quarantine) of(key shapeKey) *shapeQueue {
	for i := range q {
		if q[i].key == key {
			return &q[i]
		}
	}
	return nil
}

// take removes and returns the first drained flow of shape key, or nil.
func (q quarantine) take(key shapeKey) *Flow {
	sq := q.of(key)
	if sq == nil {
		return nil
	}
	for i, f := range sq.flows {
		if !f.drained() {
			continue
		}
		// Swap-remove: order within the quarantine carries no behavioural
		// meaning (all entries of a shape are interchangeable), and the
		// selection is deterministic for a deterministic event sequence.
		last := len(sq.flows) - 1
		sq.flows[i] = sq.flows[last]
		sq.flows[last] = nil
		sq.flows = sq.flows[:last]
		return f
	}
	return nil
}

// put adds a released flow under its shape.
func (q *quarantine) put(f *Flow) {
	sq := q.of(f.shape)
	if sq == nil {
		*q = append(*q, shapeQueue{key: f.shape})
		sq = &(*q)[len(*q)-1]
	}
	sq.flows = append(sq.flows, f)
}

// poisonTime is the sentinel written into released flows' timestamps: far
// enough in the "future" that any FCT or goodput computed from it is
// absurdly negative.
const poisonTime = sim.Time(1 << 62)

// poisonFlow scribbles sentinel values over the measurement state a late
// reader might consult, so use-after-release yields obviously-wrong numbers
// (negative durations, a flagged name) rather than stale-but-plausible
// ones; String reads POISONED. Connection state is left alone: a
// quarantined flow's Done conns still re-ACK stale duplicates, which never
// reads Flow fields.
func poisonFlow(f *Flow) {
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
