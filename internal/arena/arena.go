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

// DefaultChunk is the slab chunk size when none is configured: large
// enough to amortize allocation to noise, small enough that a sparse
// unit test doesn't hold pages of dead objects.
const DefaultChunk = 64

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
		n := s.size
		if n == 0 {
			n = DefaultChunk
		}
		s.chunk = make([]T, n)
		s.chunks = append(s.chunks, s.chunk)
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	s.allocated++
	return p
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
