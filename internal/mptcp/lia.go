package mptcp

import (
	"xmp/internal/cc"
)

// LIA is MPTCP's Linked-Increases Algorithm (RFC 6356; Wischik et al.,
// NSDI 2011), the paper's primary multipath baseline. It is loss-based and
// by nature TCP-Reno: per-subflow slow start, coupled congestion-avoidance
// increase
//
//	w_r += min( α/w_total , 1/w_r )  per ACKed segment, with
//	α = w_total · max_r(w_r/rtt_r²) / ( Σ_r w_r/rtt_r )²
//
// and a 50% cut on loss — the very cut Section 1 argues makes LIA unable
// to hold both high utilization and low buffer occupancy in DCNs.
type LIA struct {
	cc.RenoWindow
	group  *cc.FlowGroup
	member *cc.Member
}

// NewLIA returns the controller for one subflow of a LIA flow.
func NewLIA(initialCwnd int, group *cc.FlowGroup, member *cc.Member) *LIA {
	return initLIA(new(LIA), initialCwnd, group, member)
}

// initLIA is NewLIA in place, in storage its caller owns.
func initLIA(l *LIA, initialCwnd int, group *cc.FlowGroup, member *cc.Member) *LIA {
	if group == nil || member == nil {
		panic("mptcp: LIA requires a group and a member")
	}
	*l = LIA{group: group, member: member}
	l.Init(initialCwnd)
	return l
}

// Name implements cc.Controller.
func (l *LIA) Name() string { return "lia" }

// ECNCapable implements cc.Controller: LIA is loss-driven.
func (l *LIA) ECNCapable() bool { return false }

// alpha computes the RFC 6356 aggressiveness factor from the group
// snapshot. It returns alpha and the total window; ok is false when RTT
// estimates are not yet available on any subflow.
func (l *LIA) alpha() (alpha, wTotal float64, ok bool) {
	var maxTerm, sumRate float64
	for _, m := range l.group.Members() {
		if !m.Active || m.Cwnd <= 0 {
			continue
		}
		wTotal += float64(m.Cwnd)
		if m.SRTT <= 0 {
			continue
		}
		rtt := m.SRTT.Seconds()
		if t := float64(m.Cwnd) / (rtt * rtt); t > maxTerm {
			maxTerm = t
		}
		sumRate += float64(m.Cwnd) / rtt
	}
	if wTotal <= 0 || sumRate <= 0 || maxTerm <= 0 {
		return 0, wTotal, false
	}
	return wTotal * maxTerm / (sumRate * sumRate), wTotal, true
}

// OnAck implements cc.Controller.
func (l *LIA) OnAck(a cc.Ack) {
	for i := int64(0); i < a.NewlyAcked; i++ {
		if l.SlowStart() {
			l.Cwnd++
			continue
		}
		alpha, wTotal, ok := l.alpha()
		inc := 1 / l.Cwnd
		if ok {
			if coupled := alpha / wTotal; coupled < inc {
				inc = coupled
			}
		}
		l.Cwnd += inc
	}
	l.member.Cwnd = l.Window()
}

// OnFastRetransmit implements cc.Controller: per-subflow Reno halving.
func (l *LIA) OnFastRetransmit() {
	l.Halve()
	l.member.Cwnd = l.Window()
}

// OnRetransmitTimeout implements cc.Controller.
func (l *LIA) OnRetransmitTimeout() {
	l.Collapse()
	l.member.Cwnd = l.Window()
}

// Reset implements cc.Controller: restore the as-constructed state. The
// group and member bindings are structural and survive the reset; the
// member's published state is reset separately by the flow rebind.
func (l *LIA) Reset(initialCwnd int) { l.Init(initialCwnd) }
