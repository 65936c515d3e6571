package mptcp

import (
	"xmp/internal/cc"
)

// OLIA is the Opportunistic Linked-Increases Algorithm (Khalili et al.,
// CoNEXT 2012), the non-Pareto-optimality fix for LIA that the paper's
// future-work section points at. Implemented here as the extension
// baseline. Per ACKed segment on path r in congestion avoidance:
//
//	w_r += w_r/rtt_r² / ( Σ_k w_k/rtt_k )²  +  α_r/w_r
//
// where α_r redistributes a unit of aggressiveness from the set of
// maximum-window paths B toward the "best" paths M (highest
// l_r²/rtt_r, with l_r the bytes sent between the last two losses):
//
//	α_r =  1/(|M\B|·N)  if r ∈ M\B and M\B ≠ ∅
//	α_r = -1/(|B|·N)    if r ∈ B and M\B ≠ ∅
//	α_r =  0            otherwise.
type OLIA struct {
	cc.RenoWindow
	group  *cc.FlowGroup
	member *cc.Member

	// Inter-loss volume tracking for l_r (in segments).
	sinceLastLoss float64 // segments acked since the most recent loss
	lastInterLoss float64 // segments between the previous two losses
}

// NewOLIA returns the controller for one subflow of an OLIA flow.
func NewOLIA(initialCwnd int, group *cc.FlowGroup, member *cc.Member) *OLIA {
	return initOLIA(new(OLIA), initialCwnd, group, member)
}

// initOLIA is NewOLIA in place, in storage its caller owns. The member's
// Ext points at the controller itself, whose window and inter-loss
// statistics are what siblings read to evaluate the M and B sets.
func initOLIA(o *OLIA, initialCwnd int, group *cc.FlowGroup, member *cc.Member) *OLIA {
	if group == nil || member == nil {
		panic("mptcp: OLIA requires a group and a member")
	}
	*o = OLIA{group: group, member: member}
	o.Init(initialCwnd)
	member.Ext = o
	return o
}

// Name implements cc.Controller.
func (o *OLIA) Name() string { return "olia" }

// ECNCapable implements cc.Controller.
func (o *OLIA) ECNCapable() bool { return false }

// interLossGap returns l_r: the larger of the last completed inter-loss
// interval and the current one (the RFC 84xx draft's smoothing choice).
func (o *OLIA) interLossGap() float64 {
	if o.sinceLastLoss > o.lastInterLoss {
		return o.sinceLastLoss
	}
	return o.lastInterLoss
}

// sets classifies the group's subflows into M (collected best paths) and
// B (maximum-window paths) and reports this controller's α numerator sign.
func (o *OLIA) alphaR() float64 {
	members := o.group.Members()
	n := 0
	var bestMetric, maxW float64
	for _, m := range members {
		sib, ok := m.Ext.(*OLIA)
		if !ok || !m.Active {
			continue
		}
		n++
		l := sib.interLossGap()
		rtt := m.SRTT.Seconds()
		if rtt <= 0 {
			rtt = 1e-6
		}
		if metric := l * l / rtt; metric > bestMetric {
			bestMetric = metric
		}
		if w := sib.Cwnd; w > maxW {
			maxW = w
		}
	}
	if n <= 1 {
		return 0
	}
	const eps = 1e-9
	var inM, inB bool
	var sizeMnotB, sizeB int
	selfInMnotB, selfInB := false, false
	for _, m := range members {
		sib, ok := m.Ext.(*OLIA)
		if !ok || !m.Active {
			continue
		}
		l := sib.interLossGap()
		rtt := m.SRTT.Seconds()
		if rtt <= 0 {
			rtt = 1e-6
		}
		inM = l*l/rtt >= bestMetric-eps
		inB = sib.Cwnd >= maxW-eps
		if inM && !inB {
			sizeMnotB++
			if sib == o {
				selfInMnotB = true
			}
		}
		if inB {
			sizeB++
			if sib == o {
				selfInB = true
			}
		}
	}
	if sizeMnotB == 0 {
		return 0
	}
	switch {
	case selfInMnotB:
		return 1 / (float64(sizeMnotB) * float64(n))
	case selfInB:
		return -1 / (float64(sizeB) * float64(n))
	default:
		return 0
	}
}

// OnAck implements cc.Controller.
func (o *OLIA) OnAck(a cc.Ack) {
	for i := int64(0); i < a.NewlyAcked; i++ {
		o.sinceLastLoss++
		if o.SlowStart() {
			o.Cwnd++
			continue
		}
		var sumRate float64
		for _, m := range o.group.Members() {
			if !m.Active || m.SRTT <= 0 {
				continue
			}
			sumRate += float64(m.Cwnd) / m.SRTT.Seconds()
		}
		rtt := a.SRTT.Seconds()
		var inc float64
		if sumRate > 0 && rtt > 0 {
			inc = (o.Cwnd / (rtt * rtt)) / (sumRate * sumRate)
		} else {
			inc = 1 / o.Cwnd
		}
		inc += o.alphaR() / o.Cwnd
		o.Cwnd += inc
		if o.Cwnd < cc.MinWindow {
			o.Cwnd = cc.MinWindow
		}
	}
	o.member.Cwnd = o.Window()
}

// OnFastRetransmit implements cc.Controller.
func (o *OLIA) OnFastRetransmit() {
	o.lastInterLoss = o.sinceLastLoss
	o.sinceLastLoss = 0
	o.Halve()
	o.member.Cwnd = o.Window()
}

// OnRetransmitTimeout implements cc.Controller.
func (o *OLIA) OnRetransmitTimeout() {
	o.lastInterLoss = o.sinceLastLoss
	o.sinceLastLoss = 0
	o.Collapse()
	o.member.Cwnd = o.Window()
}

// Reset implements cc.Controller: restore the as-constructed state. The
// group, member, and member.Ext bindings are structural and survive the
// reset; the inter-loss history restarts from zero like a fresh flow, and
// the member's published state is reset separately by the flow rebind.
func (o *OLIA) Reset(initialCwnd int) {
	o.Init(initialCwnd)
	o.sinceLastLoss = 0
	o.lastInterLoss = 0
}
