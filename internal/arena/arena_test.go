package arena

import "testing"

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
