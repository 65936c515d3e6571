package core

import (
	"xmp/internal/cc"
)

// TraSh is the Traffic Shifting algorithm: it couples the subflows of one
// MPTCP flow by recomputing each subflow's additive-increase parameter δ
// once per round from the flow-wide state (Algorithm 1):
//
//	delta[r] = snd_cwnd[r] / (total_rate × min_rtt)
//
// which is Equation 9, δ_r = T_r·x_r / (T_s·y_s), expressed with
// instantaneous rates x_r = cwnd_r/srtt_r. Proposition 1 shows this update
// follows the Congestion Equality Principle: δ grows on subflows whose
// congestion is below the flow's expected congestion extent and shrinks on
// those above, shifting traffic toward less congested paths.
//
// The coupling needs no state of its own: an XMP subflow's BOS evaluates
// δ straight from its flow's cc.FlowGroup and its own cc.Member (see
// InitBOS). TraSh names that evaluation for callers holding a group.
type TraSh struct {
	group *cc.FlowGroup
}

// DeltaFunc supplies an additive-increase parameter δ on demand.
type DeltaFunc func() float64

// NewTraSh returns the coupler for one flow's group.
func NewTraSh(group *cc.FlowGroup) *TraSh {
	if group == nil {
		panic("core: TraSh requires a flow group")
	}
	return &TraSh{group: group}
}

// DeltaFor returns the δ of the subflow owning member, evaluated on each
// call from the group's current state — the value that subflow's BOS
// takes at its next round boundary. The member must belong to the
// coupler's group.
func (t *TraSh) DeltaFor(member *cc.Member) DeltaFunc {
	found := false
	for _, m := range t.group.Members() {
		if m == member {
			found = true
			break
		}
	}
	if !found {
		panic("core: member not in TraSh group")
	}
	return func() float64 {
		return delta(t.group, member)
	}
}

// deltaMin and deltaMax clamp δ for numerical robustness when rates are
// transiently zero (e.g. a sibling subflow in RTO); the paper's kernel
// module is similarly guarded by its integer arithmetic.
const (
	deltaMin = 1.0 / 64
	deltaMax = 64
)

// delta evaluates Equation 9 for subflow m of group g from the group
// snapshot.
func delta(g *cc.FlowGroup, m *cc.Member) float64 {
	if m.SRTT <= 0 || !m.Active {
		return 1 // no measurement yet: start with the BOS default δ(0)=1
	}
	total := g.TotalRate() // Σ cwnd_r/srtt_r  (segments/second)
	minRTT := g.MinSRTT()
	if total <= 0 || minRTT <= 0 {
		return 1
	}
	d := float64(m.Cwnd) / (total * minRTT.Seconds())
	if d < deltaMin {
		d = deltaMin
	}
	if d > deltaMax {
		d = deltaMax
	}
	return d
}

// Subflow bundles the pieces of one XMP subflow: the BOS controller and
// the group member it publishes through.
type Subflow struct {
	*BOS
	Member *cc.Member
}

// XMP builds the controllers for an n-subflow XMP flow with the given β:
// one shared cc.FlowGroup and n BOS instances coupled through it, each
// publishing through its own member. The caller wires each Subflow's
// controller and Member into its transport connection.
func XMP(n, initialCwnd, beta int) []Subflow {
	if n < 1 {
		panic("core: XMP needs at least one subflow")
	}
	group := cc.NewFlowGroup()
	subs := make([]Subflow, n)
	for i := range subs {
		m := group.Join()
		subs[i] = Subflow{BOS: InitBOS(new(BOS), initialCwnd, beta, group, m), Member: m}
	}
	return subs
}
