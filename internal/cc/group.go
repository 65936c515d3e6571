package cc

import (
	"xmp/internal/sim"
)

// Member is the live state one subflow publishes to its flow's coupling
// group. The owning controller updates it in place; sibling controllers
// read it when recomputing their coupled parameters.
type Member struct {
	// Cwnd is the subflow's current congestion window in segments.
	Cwnd int
	// SRTT is the subflow's smoothed RTT; zero until measured.
	SRTT sim.Duration
	// Active reports whether the subflow is established and transferring.
	Active bool
	// Ext carries algorithm-specific sibling-visible state (e.g. OLIA's
	// inter-loss statistics); owned by the controller that joined.
	Ext any
}

// Rate returns the subflow's instantaneous rate estimate cwnd/srtt in
// segments per second (the kernel's instant_rate), or 0 before the first
// RTT sample.
func (m *Member) Rate() float64 {
	if m.SRTT <= 0 || !m.Active {
		return 0
	}
	return float64(m.Cwnd) / m.SRTT.Seconds()
}

// FlowGroup couples the subflows of one multipath flow: every coupled
// controller (TraSh, LIA, OLIA) joins the group of its flow and derives
// its increase parameters from the group snapshot. A single-path flow
// simply never shares its group.
type FlowGroup struct {
	members []*Member
}

// NewFlowGroup returns an empty group.
func NewFlowGroup() *FlowGroup { return &FlowGroup{} }

// Grow reserves room for n more members, so the following n Joins or Adds
// append without reallocating.
func (g *FlowGroup) Grow(n int) {
	if cap(g.members)-len(g.members) < n {
		grown := make([]*Member, len(g.members), len(g.members)+n)
		copy(grown, g.members)
		g.members = grown
	}
}

// Join registers a new subflow and returns its state slot.
func (g *FlowGroup) Join() *Member {
	m := &Member{}
	g.Add(m)
	return m
}

// Add registers m, a slot its caller owns, as the group's next subflow:
// Join for owners that lay members out in their own storage (mptcp.Flow
// keeps each in its subflow's record).
func (g *FlowGroup) Add(m *Member) { g.members = append(g.members, m) }

// Members returns the group's subflow states (shared, do not modify
// entries you do not own).
func (g *FlowGroup) Members() []*Member { return g.members }

// TotalRate returns the flow's aggregate instantaneous rate Σ cwnd_r/srtt_r
// in segments per second.
func (g *FlowGroup) TotalRate() float64 {
	total := 0.0
	for _, m := range g.members {
		total += m.Rate()
	}
	return total
}

// MinSRTT returns the smallest measured smoothed RTT across active
// subflows (the paper's T_s = min{T_s,r}), or 0 if none is measured yet.
func (g *FlowGroup) MinSRTT() sim.Duration {
	var min sim.Duration
	for _, m := range g.members {
		if !m.Active || m.SRTT <= 0 {
			continue
		}
		if min == 0 || m.SRTT < min {
			min = m.SRTT
		}
	}
	return min
}

// ActiveCount returns the number of established subflows.
func (g *FlowGroup) ActiveCount() int {
	n := 0
	for _, m := range g.members {
		if m.Active {
			n++
		}
	}
	return n
}
