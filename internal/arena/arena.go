// Package arena provides the chunked slab allocator behind the
// simulator's object pools. A Slab hands out pointers into large
// pre-zeroed chunks, so allocating N small structs costs N/chunkSize
// heap allocations instead of N. It deliberately has no Free: slabs
// back free-list pools (events, packets, flows) whose objects recycle
// through their own lists and die only with the owning simulation, so
// per-object reclamation would buy nothing and cost a header per
// object.
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

// Slab is a chunked allocator of T values. The zero value is ready to
// use and allocates DefaultChunk objects per chunk.
type Slab[T any] struct {
	chunk []T
	// chunks holds every chunk made so far, for Each.
	chunks [][]T
	size   int
	// allocated counts objects handed out (observability for tests and
	// pool accounting).
	allocated int
}

// NewSlab returns a slab allocating chunkSize objects per chunk.
func NewSlab[T any](chunkSize int) *Slab[T] {
	if chunkSize < 1 {
		chunkSize = DefaultChunk
	}
	return &Slab[T]{size: chunkSize}
}

// Get returns a pointer to a zero T. The object remains valid for the
// life of the program; consecutive Gets return adjacent objects, so
// object graphs built together stay cache-local.
func (s *Slab[T]) Get() *T {
	if len(s.chunk) == 0 {
		s.chunk = make([]T, nextChunk[T](s.size, 0))
		s.chunks = append(s.chunks, s.chunk)
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	s.allocated++
	return p
}

// nextChunk is the length of the next chunk of T for an allocator with
// base chunk length size (0 = DefaultChunk) that lets its chunks grow to
// as many objects as it has carved so far (0 for a fixed chunk length), up
// to GrowBytes of them. A chunk larger than the runtime's biggest size
// class (32 KB) occupies whole 8 KB pages, so its length is rounded up to
// fill them.
func nextChunk[T any](size, carved int) int {
	if size == 0 {
		size = DefaultChunk
	}
	var t T
	sz := max(int(unsafe.Sizeof(t)), 1)
	n := max(size, min(carved, GrowBytes/sz))
	const maxSmall, page = 32 << 10, 8 << 10
	if b := n * sz; b > maxSmall {
		n = (b + page - 1) / page * page / sz
	}
	return n
}

// Allocated returns the number of objects handed out so far.
func (s *Slab[T]) Allocated() int { return s.allocated }

// Each calls fn on every object handed out so far, in allocation order.
func (s *Slab[T]) Each(fn func(*T)) {
	for i, c := range s.chunks {
		if i == len(s.chunks)-1 {
			c = c[:len(c)-len(s.chunk)]
		}
		for j := range c {
			fn(&c[j])
		}
	}
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
	chunk  []T
	carved int
}

// Carve returns a run of n zero T.
func (r *Runs[T]) Carve(n int) []T {
	if r == nil {
		return make([]T, n)
	}
	if len(r.chunk) < n {
		r.chunk = make([]T, max(nextChunk[T](0, r.carved), n))
	}
	run := r.chunk[:n:n]
	r.chunk = r.chunk[n:]
	r.carved += n
	return run
}

// Slabs carves single objects of any type, from one Runs per type: for an
// owner that learns only as it goes which types it carves (a flow arena,
// whatever controllers its schemes build). The zero value is ready to use.
type Slabs struct {
	byType []any // *Runs[T] for each type T carved so far
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
