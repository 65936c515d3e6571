package arena

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"
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
		if r.Carve(1); r.cur > len(lens) {
			lens = append(lens, cap(r.chunks[r.cur-1]))
		}
	}
	want := []int{64, 64, 128, 256, 256, 256, 256, 256, 256, 256}
	if fmt.Sprint(lens) != fmt.Sprint(want) {
		t.Fatalf("chunk lengths %v, want %v", lens, want)
	}
}

// TestChunkFillsItsPages: a chunk past the largest size class is rounded
// up to whole 8 KB pages by the runtime, and one past GrowBytes up to that
// 32 KB class, so its length fills them.
func TestChunkFillsItsPages(t *testing.T) {
	if n := nextChunk[[656]byte](0, 0); n != 74 { // 64 × 656 B = 41 KB → 48 KB
		t.Fatalf("chunk of 656 B objects holds %d, want 74", n)
	}
	if n := nextChunk[[472]byte](0, 0); n != 69 { // 64 × 472 B = 29.5 KB → 32 KB
		t.Fatalf("chunk of 472 B objects holds %d, want 69", n)
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

// rewindObj is what the rewind tests carve: a value and a pointer, so a
// Reset that failed to zero either would show.
type rewindObj struct {
	id  int
	ptr *int
	_   [3]byte
}

var rewindMark int

// span is the address range of a run handed out since the last Reset.
type span struct{ lo, hi uintptr }

func spanOf(run []rewindObj) span {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(run)))
	return span{lo, lo + uintptr(len(run))*unsafe.Sizeof(rewindObj{})}
}

// FuzzArenaRewind runs a random program of Slab.Get, Runs.Carve(n),
// Carve[T] on two types and Reset of each allocator against a model that
// remembers what was handed out since each allocator's last Reset. Every
// object handed out must be zero (each is then written, so a Reset that
// zeroes too little shows on the next carve of that memory); runs must not
// overlap, and each run's capacity must equal its length; Each must visit
// exactly the objects handed out since the Slab's last Reset, in order;
// Allocated must count them.
func FuzzArenaRewind(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 1, 70, 2, 0, 3, 0, 4, 0, 0, 0, 5, 0, 1, 2, 6, 0, 2, 0})
	f.Add(bytes.Repeat([]byte{0, 0, 1, 9, 2, 0, 3, 0}, 40))
	f.Add(append(bytes.Repeat([]byte{1, 200, 0, 0, 2, 0}, 30), bytes.Repeat([]byte{7, 0, 1, 40, 0, 0, 3, 0}, 30)...))
	f.Fuzz(func(t *testing.T, prog []byte) {
		var (
			slab  = NewSlab[rewindObj](8)
			runs  Runs[rewindObj]
			slabs Slabs
			// Live spans since the last Reset, per allocator.
			slabSpans, runSpans, slabsSpans []span
			handed                          []*rewindObj // Slab objects, in order
			next                            = 1
		)
		take := func(spans *[]span, run []rewindObj) {
			t.Helper()
			if cap(run) != len(run) {
				t.Fatalf("run of %d has capacity %d", len(run), cap(run))
			}
			for i := range run {
				if run[i] != (rewindObj{}) {
					t.Fatalf("carved object %d of a run of %d is not zero: %+v", i, len(run), run[i])
				}
				run[i] = rewindObj{id: next, ptr: &rewindMark}
				next++
			}
			if len(run) == 0 {
				return
			}
			s := spanOf(run)
			for _, o := range *spans {
				if s.lo < o.hi && o.lo < s.hi {
					t.Fatalf("run [%#x, %#x) overlaps [%#x, %#x)", s.lo, s.hi, o.lo, o.hi)
				}
			}
			*spans = append(*spans, s)
		}
		for len(prog) >= 2 {
			op, arg := prog[0]%8, int(prog[1])
			prog = prog[2:]
			switch op {
			case 0:
				p := slab.Get()
				take(&slabSpans, unsafe.Slice(p, 1))
				handed = append(handed, p)
			case 1:
				take(&runSpans, runs.Carve(arg%150))
			case 2:
				take(&slabsSpans, unsafe.Slice(Carve[rewindObj](&slabs), 1))
			case 3:
				p := Carve[int64](&slabs)
				if *p != 0 {
					t.Fatalf("carved int64 is %d", *p)
				}
				*p = int64(next)
				next++
			case 4:
				slab.Reset()
				slabSpans, handed = nil, nil
			case 5:
				runs.Reset()
				runSpans = nil
			case 6:
				slabs.Reset()
				slabsSpans = nil
			case 7:
				slab.Reset()
				runs.Reset()
				slabs.Reset()
				slabSpans, handed, runSpans, slabsSpans = nil, nil, nil, nil
			}
			if slab.Allocated() != len(handed) {
				t.Fatalf("Allocated = %d, %d handed out since the last Reset", slab.Allocated(), len(handed))
			}
		}
		i := 0
		slab.Each(func(p *rewindObj) {
			if i >= len(handed) || p != handed[i] {
				t.Fatalf("Each visited %p as object %d of %d handed out", p, i, len(handed))
			}
			i++
		})
		if i != len(handed) {
			t.Fatalf("Each visited %d objects, %d handed out since the last Reset", i, len(handed))
		}
	})
}

// TestRewindCarvesWithoutAllocating: after a Reset, carving again up to
// the previous high-water mark — single objects, runs longer than a chunk,
// objects of two types — reuses the chunks and allocates nothing.
func TestRewindCarvesWithoutAllocating(t *testing.T) {
	var (
		slab  Slab[rewindObj]
		runs  Runs[rewindObj]
		slabs Slabs
	)
	cycle := func() {
		for i := 0; i < 300; i++ {
			slab.Get()
			runs.Carve(1 + i%5)
			Carve[rewindObj](&slabs)
			Carve[int64](&slabs)
			if i%100 == 0 {
				runs.Carve(2 * GrowBytes / int(unsafe.Sizeof(rewindObj{})))
			}
		}
		slab.Reset()
		runs.Reset()
		slabs.Reset()
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("carving to the high-water mark after Reset allocated %.1f times", allocs)
	}
}
