package transport

import (
	"xmp/internal/netem"
)

// Supply is the application-data source a connection drains. The sender
// calls Next each time it wants to extend snd_nxt by one segment; a false
// return means the source is exhausted and the transfer completes once
// everything outstanding is acknowledged.
//
// An MPTCP flow hands the same shared Supply to every subflow, which is
// how data is apportioned across paths on demand (a subflow with a wider
// window simply pulls more segments).
type Supply interface {
	// Next returns the payload size in bytes of the next segment (1..MSS)
	// and whether a segment was available. Only the last segment may be
	// short: a connection panics on a second one.
	Next() (int, bool)
}

// FixedSupply yields exactly total bytes, in MSS-sized segments with a
// short final segment.
type FixedSupply struct {
	remaining int64
}

// NewFixedSupply returns a supply of total bytes (> 0).
func NewFixedSupply(total int64) *FixedSupply {
	if total <= 0 {
		panic("transport: fixed supply must be positive")
	}
	return &FixedSupply{remaining: total}
}

// Next implements Supply.
func (s *FixedSupply) Next() (int, bool) {
	if s.remaining <= 0 {
		return 0, false
	}
	n := int64(netem.MSS)
	if s.remaining < n {
		n = s.remaining
	}
	s.remaining -= n
	return int(n), true
}

// Remaining returns the bytes not yet handed to the sender.
func (s *FixedSupply) Remaining() int64 { return s.remaining }

// InfiniteSupply yields full-sized segments forever: the long-lived bulk
// flows of the rate/fairness experiments.
type InfiniteSupply struct{}

// Next implements Supply.
func (InfiniteSupply) Next() (int, bool) { return netem.MSS, true }
