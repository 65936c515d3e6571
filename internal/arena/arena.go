// Package arena provides the chunked slab allocator behind the
// simulator's object pools. A Slab hands out pointers into large
// pre-zeroed chunks, so allocating N small structs costs N/chunkSize
// heap allocations instead of N. It deliberately has no Free: slabs
// back free-list pools (events, packets, flows) whose objects recycle
// through their own lists, so per-object reclamation would buy nothing
// and cost a header per object. What it has instead is Reset, which
// reclaims everything at once: the owner of a region whose objects all
// die together (a worker's flow arena, between cells) zeroes what was
// handed out and carves again from the first chunk, keeping the chunks.
//
// Slabs are single-threaded, like the Engine that owns them.
package arena

import "unsafe"

// DefaultChunk is the slab chunk size when none is configured: large
// enough to amortize allocation to noise, small enough that a sparse
// unit test doesn't hold pages of dead objects.
const DefaultChunk = 64

// GrowBytes caps a Runs chunk: past DefaultChunk objects, a chunk never
// holds more than this many bytes of them.
const GrowBytes = 16 << 10

// chunkList is how many chunks a region's chunk list first has room for:
// one allocation records the chunks of a burst of a few hundred flows
// (TestLaunchFlowColdAllocs), where growing the list from empty would cost
// one allocation per doubling on the cold launch path.
const chunkList = 16

// region is the memory behind Slab and Runs: the chunks made so far, in
// order, each held at the length carved from it since the last reset (its
// capacity is the whole chunk). The last of chunks[:cur] is being carved;
// the rest are zero and wait to be carved again.
type region[T any] struct {
	chunks [][]T
	cur    int
}

// carve returns a run of n zero T capped at its length, moving to the
// next chunk when the current one has fewer than n left: a kept one if it
// is large enough, else a new one of max(size, n) objects.
func (g *region[T]) carve(n, size int) []T {
	if g.cur == 0 || cap(g.chunks[g.cur-1])-len(g.chunks[g.cur-1]) < n {
		g.next(n, size)
	}
	c := &g.chunks[g.cur-1]
	l := len(*c)
	*c = (*c)[:l+n]
	return (*c)[l : l+n : l+n]
}

func (g *region[T]) next(n, size int) {
	if g.cur == len(g.chunks) {
		if g.chunks == nil {
			g.chunks = make([][]T, 0, chunkList)
		}
		g.chunks = append(g.chunks, nil)
	}
	if cap(g.chunks[g.cur]) < n {
		// A kept chunk too small for this run is dropped: it is zero and
		// nothing was carved from it since the reset.
		g.chunks[g.cur] = make([]T, 0, max(size, n))
	}
	g.cur++
}

// each calls fn on every object carved since the last reset, in order.
func (g *region[T]) each(fn func(*T)) {
	for _, c := range g.chunks[:g.cur] {
		for j := range c {
			fn(&c[j])
		}
	}
}

// reset zeroes every object carved since the last reset and rewinds to
// the first chunk.
func (g *region[T]) reset() {
	for i, c := range g.chunks[:g.cur] {
		clear(c)
		g.chunks[i] = c[:0]
	}
	g.cur = 0
}

// Slab is a chunked allocator of T values. The zero value is ready to
// use and allocates DefaultChunk objects per chunk.
type Slab[T any] struct {
	region[T]
	size int
	// allocated counts objects handed out since the last Reset
	// (observability for tests and pool accounting).
	allocated int
}

// NewSlab returns a slab allocating chunkSize objects per chunk.
func NewSlab[T any](chunkSize int) *Slab[T] {
	if chunkSize < 1 {
		chunkSize = DefaultChunk
	}
	return &Slab[T]{size: chunkSize}
}

// Get returns a pointer to a zero T. The object remains valid until the
// next Reset; consecutive Gets return adjacent objects, so object graphs
// built together stay cache-local.
func (s *Slab[T]) Get() *T {
	s.allocated++
	return &s.carve(1, nextChunk[T](s.size, 0))[0]
}

// nextChunk is the length of the next chunk of T for an allocator with
// base chunk length size (0 = DefaultChunk) that lets its chunks grow to
// as many objects as it has carved so far (0 for a fixed chunk length), up
// to GrowBytes of them. A chunk of more than GrowBytes — DefaultChunk
// objects of over 256 B — is rounded up to fill what the runtime gives it:
// the biggest size class (32 KB), or whole 8 KB pages past it.
func nextChunk[T any](size, carved int) int {
	if size == 0 {
		size = DefaultChunk
	}
	var t T
	sz := max(int(unsafe.Sizeof(t)), 1)
	n := max(size, min(carved, GrowBytes/sz))
	const maxSmall, page = 32 << 10, 8 << 10
	switch b := n * sz; {
	case b > maxSmall:
		n = (b + page - 1) / page * page / sz
	case b > GrowBytes:
		n = maxSmall / sz
	}
	return n
}

// Allocated returns the number of objects handed out since the last Reset.
func (s *Slab[T]) Allocated() int { return s.allocated }

// Each calls fn on every object handed out since the last Reset, in
// allocation order.
func (s *Slab[T]) Each(fn func(*T)) { s.each(fn) }

// Reset zeroes every object handed out since the last Reset and makes the
// slab hand its chunks out again from the first, so carving up to the
// previous high-water mark allocates nothing. Every pointer Get returned
// before it now aliases an object Get will return again: the owner calls
// it only once nothing reads them.
func (s *Slab[T]) Reset() {
	s.reset()
	s.allocated = 0
}

// Runs carves short runs of T — a flow's subflow records, its coupling
// group's member list — from shared chunks, the way a Slab carves single
// objects. Each run's capacity is capped at its length, so an append
// through one run can never write into the next. Chunks grow with what
// has been carved, from DefaultChunk objects up to GrowBytes of them, so
// a burst of n small objects costs O(log n) chunks instead of
// n/DefaultChunk while the unused tail of the last chunk stays small. The
// zero value is ready to use; a nil *Runs allocates every run on its own.
type Runs[T any] struct {
	region[T]
	carved int
}

// Carve returns a run of n zero T.
func (r *Runs[T]) Carve(n int) []T {
	if r == nil {
		return make([]T, n)
	}
	run := r.carve(n, nextChunk[T](0, r.carved))
	r.carved += n
	return run
}

// Reset zeroes every run carved since the last Reset and carves again from
// the first chunk; the runs handed out before it must no longer be read.
func (r *Runs[T]) Reset() {
	r.reset()
	r.carved = 0
}

// Slabs carves single objects of any type, from one Runs per type: for an
// owner that learns only as it goes which types it carves (a flow arena,
// whatever controllers its schemes build). The zero value is ready to use.
type Slabs struct {
	byType []interface{ Reset() } // *Runs[T] for each type T carved so far
}

// Carve returns a pointer to a zero T from s — or, when s is nil, a T
// allocated on its own.
func Carve[T any](s *Slabs) *T {
	if s == nil {
		return new(T)
	}
	for _, r := range s.byType {
		if r, ok := r.(*Runs[T]); ok {
			return &r.Carve(1)[0]
		}
	}
	r := new(Runs[T])
	s.byType = append(s.byType, r)
	return &r.Carve(1)[0]
}

// Reset resets the Runs of every type carved so far, keeping them and
// their chunks.
func (s *Slabs) Reset() {
	for _, r := range s.byType {
		r.Reset()
	}
}
