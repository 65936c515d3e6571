package arena

import (
	"fmt"
	"testing"
)

func TestSlabZeroValue(t *testing.T) {
	var s Slab[int]
	p := s.Get()
	if *p != 0 {
		t.Fatalf("slab object not zeroed: %d", *p)
	}
	*p = 7
	q := s.Get()
	if *q != 0 {
		t.Fatalf("second object not zeroed: %d", *q)
	}
	if p == q {
		t.Fatal("Get returned the same object twice")
	}
	if s.Allocated() != 2 {
		t.Fatalf("Allocated = %d, want 2", s.Allocated())
	}
}

func TestSlabObjectsStayValidAcrossChunks(t *testing.T) {
	s := NewSlab[int64](8)
	var ptrs []*int64
	for i := 0; i < 100; i++ {
		p := s.Get()
		*p = int64(i)
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if *p != int64(i) {
			t.Fatalf("object %d corrupted: %d", i, *p)
		}
	}
}

func TestSlabAllocationAmortized(t *testing.T) {
	s := NewSlab[[4]uint64](64)
	s.Get() // provoke the first chunk outside the measurement
	allocs := testing.AllocsPerRun(63, func() { s.Get() })
	if allocs > 0.1 {
		t.Fatalf("Get within a chunk allocated %.1f times", allocs)
	}
}

func TestSlabEachVisitsEveryObjectInOrder(t *testing.T) {
	s := NewSlab[int](8)
	s.Each(func(*int) { t.Fatal("Each visited an object of an empty slab") })
	for i := 0; i < 21; i++ {
		*s.Get() = i
	}
	var seen []int
	s.Each(func(p *int) { seen = append(seen, *p) })
	if len(seen) != 21 {
		t.Fatalf("Each visited %d objects, want 21", len(seen))
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("object %d holds %d: Each out of allocation order", i, v)
		}
	}
}

// TestRunsChunksGrowToACap: chunks double with what has been carved, from
// DefaultChunk up to GrowBytes of objects, so a burst of n costs O(log n)
// chunks while no chunk outgrows the cap.
func TestRunsChunksGrowToACap(t *testing.T) {
	var r Runs[[64]byte] // 64 B: the cap is 256 objects
	var lens []int
	for i := 0; i < 2000; i++ {
		if len(r.chunk) == 0 {
			lens = append(lens, nextChunk[[64]byte](0, r.carved))
		}
		r.Carve(1)
	}
	want := []int{64, 64, 128, 256, 256, 256, 256, 256, 256, 256}
	if fmt.Sprint(lens) != fmt.Sprint(want) {
		t.Fatalf("chunk lengths %v, want %v", lens, want)
	}
}

// TestChunkFillsItsPages: a chunk past the largest size class is rounded
// up to whole 8 KB pages by the runtime, so its length fills them.
func TestChunkFillsItsPages(t *testing.T) {
	if n := nextChunk[[656]byte](0, 0); n != 74 { // 64 × 656 B = 41 KB → 48 KB
		t.Fatalf("chunk of 656 B objects holds %d, want 74", n)
	}
	if n := nextChunk[[8]byte](0, 0); n != DefaultChunk {
		t.Fatalf("chunk of 8 B objects holds %d, want %d", n, DefaultChunk)
	}
}

func TestRunsCarveCapsEachRun(t *testing.T) {
	var r Runs[int]
	a, b := r.Carve(3), r.Carve(2)
	if len(a) != 3 || cap(a) != 3 || len(b) != 2 || cap(b) != 2 {
		t.Fatalf("runs of len/cap %d/%d and %d/%d, want 3/3 and 2/2", len(a), cap(a), len(b), cap(b))
	}
	if grown := append(a, 7); &grown[0] == &a[0] || b[0] != 0 {
		t.Fatal("appending through one run wrote into the chunk past it")
	}
	allocs := testing.AllocsPerRun(20, func() { r.Carve(2) })
	if allocs > 0.1 {
		t.Fatalf("Carve within a chunk allocated %.1f times", allocs)
	}
	var none *Runs[int]
	if got := none.Carve(4); len(got) != 4 {
		t.Fatalf("nil Runs carved %d, want 4", len(got))
	}
}

func TestCarveKeepsOneAllocatorPerType(t *testing.T) {
	var s Slabs
	i, f := Carve[int](&s), Carve[float64](&s)
	*i, *f = 3, 2.5
	if j := Carve[int](&s); j == i || *j != 0 {
		t.Fatalf("second int carve %p (%d), first %p", j, *j, i)
	}
	if len(s.byType) != 2 {
		t.Fatalf("%d allocators for two types", len(s.byType))
	}
	allocs := testing.AllocsPerRun(20, func() { Carve[int](&s) })
	if allocs > 0.1 {
		t.Fatalf("Carve within a chunk allocated %.1f times", allocs)
	}
	if p := Carve[int](nil); p == nil || *p != 0 {
		t.Fatal("Carve from nil Slabs did not allocate a zero value")
	}
}
