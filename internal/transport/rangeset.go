package transport

// rangeSet maintains a sorted set of disjoint half-open segment ranges
// [start, end). It backs both the receiver's out-of-order tracking for
// SACK block generation and the sender's scoreboard of SACKed segments.
type rangeSet struct {
	// ranges is sorted by start; entries never touch or overlap.
	ranges []segRange
}

type segRange struct {
	start, end int64 // [start, end)
}

func (r segRange) len() int64 { return r.end - r.start }

// Add inserts [start, end), merging with any adjacent/overlapping ranges.
// It edits the slice in place and allocates only to grow its capacity.
func (s *rangeSet) Add(start, end int64) {
	if start >= end {
		return
	}
	// ranges[i:j] are the ranges that overlap or touch [start, end).
	i := 0
	for i < len(s.ranges) && s.ranges[i].end < start {
		i++
	}
	j := i
	for j < len(s.ranges) && s.ranges[j].start <= end {
		j++
	}
	if i == j {
		s.ranges = append(s.ranges, segRange{})
		copy(s.ranges[i+1:], s.ranges[i:])
		s.ranges[i] = segRange{start, end}
		return
	}
	s.ranges[i] = segRange{min(start, s.ranges[i].start), max(end, s.ranges[j-1].end)}
	s.ranges = append(s.ranges[:i+1], s.ranges[j:]...)
}

// Contains reports whether seg is in the set.
func (s *rangeSet) Contains(seg int64) bool {
	for _, r := range s.ranges {
		if seg < r.start {
			return false
		}
		if seg < r.end {
			return true
		}
	}
	return false
}

// TrimBelow removes everything before seq (cumulative ACK advance).
func (s *rangeSet) TrimBelow(seq int64) {
	out := s.ranges[:0]
	for _, r := range s.ranges {
		if r.end <= seq {
			continue
		}
		if r.start < seq {
			r.start = seq
		}
		out = append(out, r)
	}
	s.ranges = out
}

// Count returns the total number of segments in the set.
func (s *rangeSet) Count() int64 {
	var n int64
	for _, r := range s.ranges {
		n += r.len()
	}
	return n
}

// Empty reports whether the set has no segments.
func (s *rangeSet) Empty() bool { return len(s.ranges) == 0 }

// Max returns the largest segment in the set plus one (the end of the
// last range); 0 when empty.
func (s *rangeSet) Max() int64 {
	if len(s.ranges) == 0 {
		return 0
	}
	return s.ranges[len(s.ranges)-1].end
}

// FirstHoleAbove returns the first segment >= from that is NOT in the set
// and is below the set's Max; ok is false when no such hole exists.
func (s *rangeSet) FirstHoleAbove(from int64) (int64, bool) {
	hole := from
	for _, r := range s.ranges {
		if hole < r.start {
			return hole, true
		}
		if hole < r.end {
			hole = r.end
		}
	}
	return 0, false
}

// Blocks copies up to max ranges into dst (most recent last is not
// tracked; we report in ascending order, which suffices for the
// simulator's scoreboard). Returns the number written.
func (s *rangeSet) Blocks(dst []segRange, max int) int {
	n := 0
	// Report the ranges nearest the cumulative ACK first: they unblock
	// the sender's earliest holes.
	for _, r := range s.ranges {
		if n == max {
			break
		}
		dst[n] = r
		n++
	}
	return n
}

// Clear empties the set.
func (s *rangeSet) Clear() { s.ranges = s.ranges[:0] }
