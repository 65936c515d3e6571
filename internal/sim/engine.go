package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"xmp/internal/arena"
)

// Op tags which action a typed Target should take when its event fires.
// Values are private to each Target implementation: the engine never
// interprets them, it only carries them from ScheduleTarget to OnEvent.
type Op uint8

// Target is the typed-dispatch receiver of the allocation-free scheduling
// path. Hot-path objects (links, timers, transport connections) implement
// OnEvent once and pre-bind themselves at Schedule time, so per-event
// capturing closures — one heap allocation each — never exist. The arg
// value is passed through verbatim; storing a pointer (e.g. a *Packet) in
// it does not allocate.
type Target interface {
	OnEvent(op Op, arg any)
}

// funcTarget adapts a closure to Target, so the calendar carries one event
// representation. A func value is pointer-shaped: storing it in the Target
// interface does not allocate. Closure events are the cold path (experiment
// phases, chaos actions — 0 to 145 of 13–22 M inserts per benchmark
// workload), so the extra indirect call is never on a per-packet path.
type funcTarget func()

func (f funcTarget) OnEvent(Op, any) { f() }

// Event is a scheduled callback. Event structs are owned and recycled by
// their Engine: after an event fires or is cancelled the struct returns to
// an internal free-list and may be reissued by a later Schedule call.
// Callers therefore never hold *Event directly — Schedule returns a Handle
// that pairs the struct with its generation, so a stale Handle can be
// detected and ignored.
//
// An Event carries a pre-bound (target, op, arg) triple and fires through a
// single interface call with no per-event allocation.
type Event struct {
	at  Time
	seq uint64 // tiebreaker: FIFO among events at the same instant
	// gen increments every time the struct is invalidated (cancelled or
	// recycled); a Handle whose generation no longer matches refers to an
	// event that already fired or was cancelled, and Cancel treats it as a
	// no-op.
	gen    uint64
	target Target
	arg    any
	// slot locates the event inside the calendar: the wheel bucket index
	// holding it, or overflowSlot for the far-future overflow heap. Kept
	// current on promotion so Cancel can apply its container-tail fast
	// path without searching.
	slot     int32
	op       Op
	canceled bool
}

// overflowSlot marks an event as living in the overflow heap.
const overflowSlot int32 = -1

// Handle refers to a scheduled event. The zero Handle is valid and refers
// to no event (Cancel ignores it, Pending reports false).
type Handle struct {
	ev  *Event
	gen uint64
}

// live reports whether the handle still refers to the generation it was
// issued for. A fired/cancelled (and possibly reissued) event fails this.
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

// Pending reports whether the event is still scheduled to fire.
func (h Handle) Pending() bool { return h.live() && !h.ev.canceled }

// At returns the time the event is scheduled to fire, or 0 if the handle
// is stale or zero.
func (h Handle) At() Time {
	if !h.live() {
		return 0
	}
	return h.ev.at
}

// Time-wheel geometry, sized from the k=8 cell's measured event density
// (~40 events per µs of simulated time): a 256 ns bucket holds ~10 events
// in the dense phases, so a one-shot drain sort touches a handful of
// cache-resident entries. The ring is kept deliberately short —
// 2^wheelBits buckets, a ~262 µs horizon — because the whole structure
// (slice headers, seed backing, bitmap) then stays cache-resident as the
// cursor streams through it. The horizon comfortably covers the
// packet-hop events that dominate the calendar (serialization at 1 Gbps
// is ~12 µs per full packet, propagation 20–40 µs per hop); protocol
// timers (delayed ACK, RTO, experiment phases) live in the overflow heap
// — where ALL events lived before the wheel — and are promoted into the
// ring when the clock draws within the horizon.
const (
	wheelBucketBits = 8  // bucket width: 2^8 ns = 256 ns
	wheelBits       = 10 // 2^10 = 1024 buckets
	wheelBuckets    = 1 << wheelBits
	wheelMask       = wheelBuckets - 1
	// wheelBucketWidth is the time covered by one bucket.
	wheelBucketWidth = Duration(1) << wheelBucketBits
	// wheelSpan is the horizon of the ring: events at now+wheelSpan or
	// later overflow.
	wheelSpan = Time(wheelBuckets) << wheelBucketBits
	// wheelAlignMask aligns an absolute time down to the start of its
	// 256 ns bucket window: t &^ wheelAlignMask.
	wheelAlignMask = Time(wheelBucketWidth) - 1
)

// bucketOf maps an absolute time to its wheel bucket. The mapping is a
// pure function of the time, so it never disagrees with itself across
// cursor movement.
func bucketOf(t Time) int32 { return int32((t >> wheelBucketBits) & wheelMask) }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; an experiment owns exactly one Engine. The free-list
// below is what keeps the hot path allocation-free: every fired or
// cancelled Event struct is recycled into the next Schedule call, so a
// steady-state simulation allocates no events at all.
//
// The calendar is a bucketed time-wheel: a ring of time buckets covering
// [wheelBase, wheelBase+wheelSpan), each bucket an unsorted *spill list*,
// plus a single 4-ary overflow heap for events beyond the horizon.
// Scheduling into a ring bucket is a plain append — no comparisons, no
// sift — and ordering is established once, when the drain cursor reaches
// the bucket: a one-shot in-place sort puts the bucket in descending
// (time, seq) order so the next event to fire sits at the tail and every
// pop is a truncation. The head of the calendar is the smaller of (first
// occupied bucket's earliest event, overflow root) under the same strict
// (time, seq) total order, so pop order is identical to a single global
// heap — the wheel only changes how much work each operation does: O(1)
// amortized per insert against the heap's O(log n), and the dominant
// comparison traffic collapses into one cache-friendly pass per bucket.
type Engine struct {
	now     Time
	nextSeq uint64

	// Ring anchor. wheelBase is the bucket-aligned anchor of the window
	// [wheelBase, wheelEnd) that ring inserts map into; it is re-derived
	// from the clock lazily, on the dense-mode insert path, so
	// wheelBase <= now at all times. That inequality is what makes the
	// bucket mapping unambiguous: every live ring event satisfies
	// now <= at < wheelEnd <= align(now)+span, so ring order starting at
	// the clock's own bucket is time order and each bucket holds at most
	// one rotation of live events.
	wheelBase Time
	wheelEnd  Time // wheelBase + wheelSpan, saturated at MaxTime
	// ringEntries counts structs sitting in ring buckets (live or
	// cancelled corpses); zero lets head skip the bitmap scan outright.
	ringEntries int

	// headSlot/headAligned memoize the first occupied ring bucket so the
	// drain loop does not rescan the occupancy bitmap on every head()
	// call. headSlot is -1 when unknown (bucket drained, or never
	// scanned); an insert into an earlier window lowers the memo, keeping
	// it exact whenever it is set.
	headSlot    int32
	headAligned Time

	// Far-future overflow: 4-ary min-heap by (at, seq).
	overflow []*Event
	// canceledOverflow tracks lazily-cancelled events still occupying
	// overflow slots; when they dominate, the heap is compacted. Ring
	// corpses need no counter: the cursor sweeps every bucket within one
	// horizon of simulated time, reclaiming them in passing.
	canceledOverflow int

	// cancels counts events removed by Cancel. Together with nextSeq
	// (every insert) and processed (every fire) it determines the live
	// pending count as nextSeq - processed - cancels — each event meets
	// exactly one of fire or Cancel — so the hot insert/fire paths carry
	// no pending read-modify-write at all.
	cancels uint64

	// free is the Event recycling stack. Single-threaded like the engine,
	// so no locking; never shared across engines.
	free []*Event
	// slab backs first-time Event allocation in chunks, so a run that
	// peaks at N simultaneous events costs ~N/chunk heap allocations
	// instead of N before the free list takes over.
	slab arena.Slab[Event]
	// slabAllocs counts fresh slab carves; free-list hits are then
	// nextSeq - slabAllocs (every insert is one or the other), so the
	// recycling observability costs nothing on the hot path.
	slabAllocs uint64
	// processed counts events executed, for progress reporting and the
	// runaway guard in tests.
	processed uint64
	// promoted counts overflow events moved into the ring as the clock
	// approached their deadline (observability for the wheel tests).
	promoted uint64
	stopped  bool

	// The ring itself lives at the end of the struct so the hot scalar
	// fields above share cache lines instead of straddling its ~24 KB.
	buckets [wheelBuckets][]*Event
	// sorted[b] reports that bucket b is in drain order: descending
	// (time, seq), next event to fire at the tail. Every append clears
	// it; the drain re-sorts at most once per intervening append.
	sorted   [wheelBuckets]bool
	occupied [wheelBuckets / 64]uint64 // occupancy bitmap over buckets
}

// bucketSeedCap is the initial capacity of every ring bucket. Buckets are
// seeded from one shared backing array so steady-state scheduling never
// allocates as the cursor reaches previously-unvisited buckets; a bucket
// that outgrows its seed (incast pile-up) reallocates once and keeps the
// larger capacity for the rest of the run. 64 covers the k=8 cell's
// dense phases (the busiest buckets reach the 30-60 event range during
// synchronized incast rounds), so regrowth is confined to genuine
// pile-ups; the shared backing is 512 KB, paid once per engine.
const bucketSeedCap = 64

// NewEngine returns an engine with the clock at zero and an empty calendar.
func NewEngine() *Engine {
	e := &Engine{wheelEnd: wheelSpan, headSlot: -1}
	backing := make([]*Event, wheelBuckets*bucketSeedCap)
	for i := range e.buckets {
		e.buckets[i] = backing[i*bucketSeedCap : i*bucketSeedCap : (i+1)*bucketSeedCap]
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Recycled returns the number of Schedule calls served from the free-list.
func (e *Engine) Recycled() uint64 { return e.nextSeq - e.slabAllocs }

// Promoted returns the number of overflow events promoted into the ring.
func (e *Engine) Promoted() uint64 { return e.promoted }

// Pending returns the number of events currently scheduled (cancelled
// events awaiting lazy reclamation are not counted).
func (e *Engine) Pending() int { return int(e.nextSeq - e.processed - e.cancels) }

// less orders the calendar: earlier time first, FIFO at the same instant.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends ev to the 4-ary overflow min-heap h and sifts it up its
// parent chain. The hole is moved, not swapped: one write per level plus
// the final placement.
func heapPush(hp *[]*Event, ev *Event) {
	*hp = append(*hp, ev)
	h := *hp
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !less(ev, p) {
			return // already in place from the append / previous store
		}
		h[i] = p
		i = parent
		h[i] = ev
	}
}

// heapPop removes and returns the minimum event of h. The truncated tail
// slot keeps its stale pointer: Event structs are engine-owned and
// recycled forever, so the retention is bounded and clearing it would be
// a pure write-barrier cost on the hot path.
func heapPop(hp *[]*Event) *Event {
	h := *hp
	n := len(h) - 1
	top := h[0]
	last := h[n]
	*hp = h[:n]
	if n > 0 {
		siftDown(h[:n], 0, last)
	}
	return top
}

// siftDown places ev into heap h starting at slot i, walking down toward
// the leaves. Children of i are slots 4i+1..4i+4.
func siftDown(h []*Event, i int, ev *Event) {
	n := len(h)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(h[c], h[m]) {
				m = c
			}
		}
		if !less(h[m], ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// spillSortMax is the bucket size at which the drain sort switches from
// insertion sort to pdqsort (slices.SortFunc).
const spillSortMax = 32

// sortSpill establishes drain order on one spill bucket: descending
// (time, seq), so the earliest event sits at the tail and every pop is a
// truncation. (time, seq) is a strict total order — no two events share a
// key — so any correct sort produces the same drain order regardless of
// algorithm or stability; the split below is pure mechanics. Typical
// dense-phase buckets hold ~10 events, where a single insertion-sort pass
// over the cache-resident slice beats pdqsort's dispatch; genuine
// pile-ups (synchronized incast rounds) fall through to pdqsort.
func sortSpill(s []*Event) {
	if len(s) <= spillSortMax {
		for i := 1; i < len(s); i++ {
			ev := s[i]
			j := i - 1
			for j >= 0 && less(s[j], ev) {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = ev
		}
		return
	}
	slices.SortFunc(s, func(a, b *Event) int {
		if a.at != b.at {
			if a.at > b.at {
				return -1
			}
			return 1
		}
		if a.seq != b.seq {
			if a.seq > b.seq {
				return -1
			}
			return 1
		}
		return 0
	})
}

// compactOverflow rebuilds the overflow heap without its lazily-cancelled
// events, recycling them. Triggered when cancelled entries dominate, so
// the O(n) rebuild amortizes to O(1) per Cancel. The pop order of the
// survivors is unchanged: (at, seq) is a strict total order, so any valid
// heap over the same set drains identically — determinism is layout-free.
func (e *Engine) compactOverflow() {
	h := e.overflow
	live := h[:0]
	for _, ev := range h {
		if ev.canceled {
			ev.canceled = false // free-list invariant
			e.free = append(e.free, ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(h); i++ {
		h[i] = nil
	}
	e.overflow = live
	e.canceledOverflow = 0
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		siftDown(live, i, live[i])
	}
}

// allocSlow carves a fresh Event from the slab — the free-list miss path,
// kept out of line so insert's open-coded free-list pop stays small. The
// popped free-list slot keeps its stale pointer (see heapPop for why that
// is free).
//
//go:noinline
func (e *Engine) allocSlow() *Event {
	e.slabAllocs++
	return e.slab.Get()
}

// recycle retires a fired or tail-cancelled event to the free-list.
// Bumping the generation here is what invalidates every outstanding
// Handle to it; the payload fields are nilled so the engine does not keep
// closures or packets alive past their event.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.target = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

//go:noinline
func panicSchedulePast(t, now Time) {
	panic(fmt.Sprintf("sim: schedule at %v before now %v", t, now))
}

//go:noinline
func panicNegativeDelay(d Duration) {
	panic(fmt.Sprintf("sim: negative delay %v", d))
}

// Schedule runs fn after delay d (>= 0). It returns a Handle, which may be
// passed to Cancel. Scheduling in the past panics: it always indicates a
// logic error in the caller.
func (e *Engine) Schedule(d Duration, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.ScheduleTarget(d, funcTarget(fn), 0, nil)
}

// ScheduleAt runs fn at absolute time t (>= Now).
func (e *Engine) ScheduleAt(t Time, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.ScheduleTargetAt(t, funcTarget(fn), 0, nil)
}

// ScheduleTarget runs t.OnEvent(op, arg) after delay d (>= 0). This is the
// typed, allocation-free variant of Schedule: the receiver is pre-bound
// instead of captured, so the per-packet hot paths (link serialization,
// propagation delivery, RTO and delayed-ACK timers) schedule with zero
// heap allocations. arg should be nil or a pointer-shaped value; both
// store into the event without allocating.
func (e *Engine) ScheduleTarget(d Duration, t Target, op Op, arg any) Handle {
	if d < 0 {
		panicNegativeDelay(d)
	}
	if t == nil {
		panic("sim: nil event target")
	}
	ev := e.insert(e.now.Add(d))
	ev.target = t
	ev.op = op
	ev.arg = arg
	return Handle{ev: ev, gen: ev.gen}
}

// ScheduleTargetAt runs t.OnEvent(op, arg) at absolute time at (>= Now).
func (e *Engine) ScheduleTargetAt(at Time, t Target, op Op, arg any) Handle {
	if t == nil {
		panic("sim: nil event target")
	}
	ev := e.insert(at)
	ev.target = t
	ev.op = op
	ev.arg = arg
	return Handle{ev: ev, gen: ev.gen}
}

// ringThreshold is the pending-event count below which inserts bypass the
// ring and use the overflow heap directly. A heap of a few dozen events
// sifts one or two levels — cheaper than the ring's bucket mapping,
// bitmap maintenance, and cursor scan — so sparse calendars (unit tests,
// single-link setups, drained phases) keep the old heap's constants and
// the ring engages only at the event densities it was built for. The
// split is invisible to ordering: head always compares both containers
// under the same (time, seq) key.
const ringThreshold = 64

// spillAppend places ev into ring bucket b (the bucket covering the
// window starting at aligned): a plain append plus bitmap and memo
// maintenance. This is the entire insert-side cost of the spill-bucket
// design — ordering is deferred to the drain sort.
func (e *Engine) spillAppend(b int32, aligned Time, ev *Event) {
	ev.slot = b
	e.buckets[b] = append(e.buckets[b], ev)
	e.sorted[b] = false
	e.occupied[b>>6] |= 1 << (uint(b) & 63)
	e.ringEntries++
	if e.headSlot >= 0 && aligned < e.headAligned {
		e.headSlot, e.headAligned = b, aligned
	}
}

// insert allocates an event at time t with the next FIFO sequence number
// and places it in the calendar: appended to its ring bucket when the
// calendar is dense and t is within the horizon, pushed on the overflow
// heap otherwise. The caller fills in the payload.
func (e *Engine) insert(t Time) *Event {
	if t < e.now {
		panicSchedulePast(t, e.now)
	}
	// Free-list pop, open-coded: alloc as a helper is one call over the
	// inline budget, and insert runs once per event. No canceled reset:
	// every event reaching the free-list has canceled == false (corpse
	// reclaim clears it), so insert skips the store.
	var ev *Event
	if n := len(e.free) - 1; n >= 0 {
		ev = e.free[n]
		e.free = e.free[:n]
	} else {
		ev = e.allocSlow()
	}
	ev.at = t
	ev.seq = e.nextSeq
	e.nextSeq++
	if e.nextSeq-e.processed-e.cancels > ringThreshold && t-e.now < wheelSpan {
		// The ring is anchored lazily: the clock may have advanced many
		// buckets since the last ring insert, so re-derive the base from
		// now (and promote newly-near overflow events) before mapping t.
		if base := e.now &^ wheelAlignMask; base != e.wheelBase {
			e.reanchor(base)
		}
		if t < e.wheelEnd {
			e.spillAppend(bucketOf(t), t&^wheelAlignMask, ev)
			return ev
		}
	}
	ev.slot = overflowSlot
	heapPush(&e.overflow, ev)
	return ev
}

// Cancel removes a scheduled event. Cancelling an event that already fired
// or was already cancelled — including one whose struct has since been
// recycled into a different event — is a no-op, which makes timer
// management at the call sites straightforward.
//
// Cancellation is lazy: the event is marked dead in O(1) and its calendar
// slot is reclaimed when the cursor (or the overflow head drain) reaches
// it, instead of an eager removal per cancel. The handle goes stale
// immediately; only the struct's reuse is deferred. One fast path: when
// the event occupies the last slot of its container (its ring bucket or
// the overflow heap) it can be truncated without disturbing the
// container's order — in an unsorted spill bucket the tail is the most
// recent append (the schedule-then-cancel churn shape), in a drain-sorted
// bucket it is the next event to fire, and in the overflow heap it is a
// leaf; all three truncate safely — so the struct is reclaimed on the
// spot.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	// gen covers the canceled state too: every path that marks an event
	// dead (interior corpse, tail truncation, fire) bumps gen first, so a
	// matching generation implies a live, scheduled event.
	if ev == nil || ev.gen != h.gen {
		return
	}
	e.cancels++
	// Branch on the container once and operate on its slice directly: the
	// ring and overflow arms each load, test and truncate their own slice
	// header, so the common tail-cancel path runs with no pointer
	// indirection through a shared *[]*Event.
	if b := ev.slot; b >= 0 {
		s := e.buckets[b]
		if n := len(s) - 1; s[n] == ev {
			e.buckets[b] = s[:n]
			e.ringEntries--
			if n == 0 {
				e.occupied[b>>6] &^= 1 << (uint(b) & 63)
				if b == e.headSlot {
					e.headSlot = -1
				}
			}
			e.recycle(ev)
			return
		}
		// Interior ring corpse: the cursor sweeps every bucket within one
		// horizon, so no counter is needed.
		ev.canceled = true
		ev.gen++ // invalidate all outstanding handles now
		ev.target = nil
		ev.arg = nil
		return
	}
	s := e.overflow
	if n := len(s) - 1; s[n] == ev {
		e.overflow = s[:n]
		e.recycle(ev)
		return
	}
	ev.canceled = true
	ev.gen++ // invalidate all outstanding handles now
	ev.target = nil
	ev.arg = nil
	e.canceledOverflow++
	// Compact when cancelled corpses outnumber live events and are
	// worth the O(n) sweep; keeps RTO-churn heaps from growing without
	// bound while their deadlines sit beyond the horizon.
	if e.canceledOverflow > 64 && e.canceledOverflow > len(e.overflow)-e.canceledOverflow {
		e.compactOverflow()
	}
}

// Stop makes the current Run call return after the event in progress
// completes. It may be called from inside an event callback.
func (e *Engine) Stop() { e.stopped = true }

// reanchor re-bases the ring window to [base, base+span) — base must be
// the bucket-aligned current time — and promotes overflow events whose
// deadline now falls within the horizon into their ring buckets.
// Promotion preserves the (time, seq) drain order trivially: a promoted
// event is appended like any other insert and sorted into place when its
// bucket drains, and the head selection compares across both containers.
// Called only from the dense-mode insert path, so a sparse calendar never
// pays for base maintenance; correctness does not depend on freshness,
// because the drain derives its position from the clock, not from the
// base.
func (e *Engine) reanchor(base Time) {
	e.wheelBase = base
	end := base + wheelSpan
	if end < base {
		end = MaxTime // saturate near the representable horizon
	}
	e.wheelEnd = end
	for len(e.overflow) > 0 {
		head := e.overflow[0]
		if head.canceled {
			heapPop(&e.overflow)
			e.canceledOverflow--
			head.canceled = false // free-list invariant: corpses reset here
			e.free = append(e.free, head)
			continue
		}
		if head.at >= end {
			break
		}
		heapPop(&e.overflow)
		e.spillAppend(bucketOf(head.at), head.at&^wheelAlignMask, head)
		e.promoted++
	}
}

// wheelScan returns the first occupied bucket at or after the cursor in
// ring order, or -1 when the ring is empty. With the occupancy bitmap the
// scan is a handful of word operations regardless of ring sparsity; the
// headSlot memo keeps it off the per-event path entirely while the same
// bucket keeps draining.
func (e *Engine) wheelScan() int32 {
	cur := int(bucketOf(e.now))
	w := cur >> 6
	// Mask off bits below the cursor in its word, then walk words.
	word := e.occupied[w] &^ (1<<(uint(cur)&63) - 1)
	for i := 0; i <= len(e.occupied); i++ {
		if word != 0 {
			return int32((w<<6 + bits.TrailingZeros64(word)) & wheelMask)
		}
		w = (w + 1) % len(e.occupied)
		word = e.occupied[w]
		if i == len(e.occupied)-1 {
			// Last wrap: only bits below the cursor remain unexamined.
			word &= 1<<(uint(cur)&63) - 1
		}
	}
	return -1
}

// head returns the earliest live event in the calendar without removing
// it, establishing drain order on the bucket it came from and reclaiming
// lazily-cancelled corpses it encounters at container heads. Returns nil
// when the calendar is empty.
func (e *Engine) head() *Event {
	if e.ringEntries == 0 {
		// Sparse fast path: the calendar is just the overflow heap, so the
		// head is its first live root — no bucket machinery, no two-way
		// comparison.
		for {
			s := e.overflow
			if len(s) == 0 {
				return nil
			}
			if c := s[0]; !c.canceled {
				return c
			}
			corpse := heapPop(&e.overflow)
			e.canceledOverflow--
			corpse.canceled = false // free-list invariant
			e.free = append(e.free, corpse)
		}
	}
	for {
		var wev *Event
		if e.ringEntries > 0 {
			b := e.headSlot
			if b < 0 {
				b = e.wheelScan()
				if b >= 0 {
					e.headSlot = b
					e.headAligned = e.buckets[b][0].at &^ wheelAlignMask
				}
			}
			if b >= 0 {
				bucket := e.buckets[b]
				if !e.sorted[b] {
					sortSpill(bucket)
					e.sorted[b] = true
				}
				n := len(bucket) - 1
				tail := bucket[n]
				if tail.canceled {
					// Cancel already bumped gen and cleared the payload;
					// the struct only needs the canceled reset (free-list
					// invariant) on its way to the free-list.
					e.buckets[b] = bucket[:n]
					e.ringEntries--
					if n == 0 {
						e.occupied[b>>6] &^= 1 << (uint(b) & 63)
						e.headSlot = -1
					}
					tail.canceled = false
					e.free = append(e.free, tail)
					continue
				}
				wev = tail
			}
		}
		var oev *Event
		for s := e.overflow; len(s) > 0; s = e.overflow {
			if c := s[0]; !c.canceled {
				oev = c
				break
			}
			corpse := heapPop(&e.overflow)
			e.canceledOverflow--
			corpse.canceled = false // free-list invariant
			e.free = append(e.free, corpse)
		}
		switch {
		case wev == nil:
			return oev // may be nil: calendar empty
		case oev == nil || less(wev, oev):
			return wev
		default:
			return oev
		}
	}
}

// fire pops the head event — which head() must have just returned, so it
// is live and, if ring-resident, its (drain-sorted) bucket's tail — and
// executes it. The struct is recycled before the callback runs, so the
// callback's own Schedule calls reuse it; the payload is copied out first
// to keep the execution independent of that reuse.
func (e *Engine) fire(ev *Event) {
	if b := ev.slot; b >= 0 {
		s := e.buckets[b]
		n := len(s) - 1
		e.buckets[b] = s[:n]
		e.ringEntries--
		if n == 0 {
			e.occupied[b>>6] &^= 1 << (uint(b) & 63)
			e.headSlot = -1
		}
	} else {
		heapPop(&e.overflow)
	}
	e.now = ev.at
	e.processed++
	target, op, arg := ev.target, ev.op, ev.arg
	e.recycle(ev)
	target.OnEvent(op, arg)
}

// Run executes events in timestamp order until the calendar is empty or the
// clock would pass until. Events scheduled exactly at until still run. It
// returns the number of events executed by this call.
func (e *Engine) Run(until Time) uint64 {
	start := e.processed
	e.stopped = false
	for !e.stopped {
		head := e.head()
		if head == nil || head.at > until {
			break
		}
		e.fire(head)
	}
	if e.now < until && until != MaxTime && !e.stopped {
		// Drained the calendar before the horizon: advance the clock so a
		// subsequent Run continues from the horizon, matching how NS-style
		// simulators treat Stop times. The MaxTime sentinel ("run to
		// completion") leaves the clock at the last executed event.
		e.now = until
	}
	return e.processed - start
}

// RunAll executes events until the calendar is empty. It is intended for
// closed workloads that are guaranteed to terminate; the maxEvents guard
// converts an accidental infinite event loop into a panic with context.
func (e *Engine) RunAll(maxEvents uint64) uint64 {
	start := e.processed
	e.stopped = false
	for !e.stopped {
		head := e.head()
		if head == nil {
			break
		}
		if e.processed-start >= maxEvents {
			panic(fmt.Sprintf("sim: exceeded %d events at t=%v (runaway event loop?)", maxEvents, e.now))
		}
		e.fire(head)
	}
	return e.processed - start
}

// MaxTime is the largest representable simulated time; usable as an
// "effectively forever" horizon for Run.
const MaxTime = Time(math.MaxInt64)
