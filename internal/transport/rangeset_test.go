package transport

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRangeSetAddMerge(t *testing.T) {
	var s rangeSet
	s.Add(10, 12)
	s.Add(14, 16)
	if s.Count() != 4 {
		t.Fatalf("count %d", s.Count())
	}
	s.Add(12, 14) // bridges the gap
	if len(s.ranges) != 1 || s.ranges[0] != (segRange{10, 16}) {
		t.Fatalf("merge failed: %+v", s.ranges)
	}
	s.Add(9, 10) // touching below
	s.Add(16, 17)
	if len(s.ranges) != 1 || s.ranges[0] != (segRange{9, 17}) {
		t.Fatalf("touch-merge failed: %+v", s.ranges)
	}
	s.Add(30, 31)
	s.Add(5, 40) // absorbs everything
	if len(s.ranges) != 1 || s.ranges[0] != (segRange{5, 40}) {
		t.Fatalf("absorb failed: %+v", s.ranges)
	}
}

func TestRangeSetContains(t *testing.T) {
	var s rangeSet
	s.Add(5, 8)
	s.Add(10, 11)
	for seg, want := range map[int64]bool{4: false, 5: true, 7: true, 8: false, 9: false, 10: true, 11: false} {
		if s.Contains(seg) != want {
			t.Errorf("Contains(%d) = %v", seg, !want)
		}
	}
}

func TestRangeSetTrimBelow(t *testing.T) {
	var s rangeSet
	s.Add(5, 10)
	s.Add(15, 20)
	s.TrimBelow(7)
	if s.Count() != 8 || s.Contains(6) || !s.Contains(7) {
		t.Fatalf("trim mid-range failed: %+v", s.ranges)
	}
	s.TrimBelow(12)
	if len(s.ranges) != 1 || s.ranges[0] != (segRange{15, 20}) {
		t.Fatalf("trim whole range failed: %+v", s.ranges)
	}
	s.TrimBelow(100)
	if !s.Empty() {
		t.Fatal("trim-all failed")
	}
}

func TestRangeSetFirstHoleAbove(t *testing.T) {
	var s rangeSet
	if _, ok := s.FirstHoleAbove(0); ok {
		t.Fatal("empty set has no bounded hole")
	}
	s.Add(5, 8)
	s.Add(10, 12)
	cases := map[int64]int64{0: 0, 5: 8, 6: 8, 8: 8, 9: 9}
	for from, want := range cases {
		got, ok := s.FirstHoleAbove(from)
		if !ok || got != want {
			t.Errorf("FirstHoleAbove(%d) = %d,%v want %d", from, got, ok, want)
		}
	}
	if _, ok := s.FirstHoleAbove(10); ok {
		t.Fatal("no hole above the last range start inside it")
	}
	if _, ok := s.FirstHoleAbove(50); ok {
		t.Fatal("no hole above max")
	}
}

func TestRangeSetBlocksAndMax(t *testing.T) {
	var s rangeSet
	for i := int64(0); i < 5; i++ {
		s.Add(i*10, i*10+2)
	}
	var dst [3]segRange
	n := s.Blocks(dst[:], 3)
	if n != 3 || dst[0] != (segRange{0, 2}) || dst[2] != (segRange{20, 22}) {
		t.Fatalf("blocks: n=%d %+v", n, dst)
	}
	if s.Max() != 42 {
		t.Fatalf("max %d", s.Max())
	}
	s.Clear()
	if !s.Empty() || s.Max() != 0 {
		t.Fatal("clear failed")
	}
}

// Property: a rangeSet behaves exactly like a set of integers under
// Add/TrimBelow, with invariants: sorted, disjoint, non-touching ranges.
func TestRangeSetModelProperty(t *testing.T) {
	type op struct {
		Add  bool
		A, B uint8
	}
	f := func(ops []op) bool {
		var s rangeSet
		model := map[int64]bool{}
		for _, o := range ops {
			a, b := int64(o.A%64), int64(o.B%64)
			if o.Add {
				if a > b {
					a, b = b, a
				}
				s.Add(a, b+1)
				for v := a; v <= b; v++ {
					model[v] = true
				}
			} else {
				s.TrimBelow(a)
				for v := range model {
					if v < a {
						delete(model, v)
					}
				}
			}
			// Invariants.
			for i := 1; i < len(s.ranges); i++ {
				if s.ranges[i-1].end >= s.ranges[i].start {
					return false
				}
			}
			for _, r := range s.ranges {
				if r.start >= r.end {
					return false
				}
			}
			// Agreement with the model.
			var count int64
			for v := range model {
				if !s.Contains(v) {
					return false
				}
				count++
			}
			if s.Count() != count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// oracleAdd is rangeSet.Add as it was before it edited in place: every call
// builds a fresh slice. The in-place Add must leave exactly its ranges.
func oracleAdd(s *rangeSet, start, end int64) {
	if start >= end {
		return
	}
	out := s.ranges[:0:0]
	inserted := false
	for _, r := range s.ranges {
		switch {
		case r.end < start:
			out = append(out, r)
		case end < r.start:
			if !inserted {
				out = append(out, segRange{start, end})
				inserted = true
			}
			out = append(out, r)
		default:
			start, end = min(start, r.start), max(end, r.end)
		}
	}
	if !inserted {
		out = append(out, segRange{start, end})
	}
	s.ranges = out
}

// TestRangeSetAddMatchesOracle drives the in-place Add and the
// copy-on-write oracle through the same random Add/TrimBelow/Clear
// sequences and requires identical ranges after every step.
func TestRangeSetAddMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 2000; seq++ {
		var got, want rangeSet
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(20); {
			case op < 16:
				a, n := rng.Int63n(100), rng.Int63n(8)-1 // n = -1 and 0 are no-ops
				got.Add(a, a+n)
				oracleAdd(&want, a, a+n)
			case op < 19:
				a := rng.Int63n(100)
				got.TrimBelow(a)
				want.TrimBelow(a)
			default:
				got.Clear()
				want.Clear()
			}
			if !slices.Equal(got.ranges, want.ranges) {
				t.Fatalf("sequence %d step %d: ranges %v, oracle %v", seq, step, got.ranges, want.ranges)
			}
		}
	}
}

// TestRangeSetAddZeroAlloc: once the ranges have capacity, Add — inserting,
// merging, bridging — allocates nothing.
func TestRangeSetAddZeroAlloc(t *testing.T) {
	var s rangeSet
	s.ranges = make([]segRange, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		s.Clear()
		s.Add(10, 12)
		s.Add(20, 22)
		s.Add(0, 2)
		s.Add(15, 16)
		s.Add(12, 15)
		s.Add(1, 30)
	})
	if allocs != 0 {
		t.Fatalf("Add allocated %v times per run", allocs)
	}
}
