package cc

// AMP implements the Adaptive Multi-Path congestion controller of
// Kheirkhah & Lee (arXiv 1707.00322), proposed as a successor to XMP for
// data-center multipath transport. Like DCTCP it is ECN-driven with exact
// marked-segment feedback (EchoDCTCP), but it drops DCTCP's EWMA: at the
// end of each window of data it cuts by the *instantaneous* marked
// fraction F of that window,
//
//	w_r ← w_r · (1 − F/2)   once per window, when F > 0
//
// reacting to congestion onset within one RTT instead of smoothing it over
// ~1/g windows. The congestion-avoidance increase is semi-coupled across
// the flow's subflows,
//
//	w_r += min( 1/w_total , 1/w_r )   per ACKed segment
//
// so the aggregate grows like one TCP flow (the RFC 6356 goal) without
// LIA's RTT-dependent α computation. Loss handling is standard: halving on
// fast retransmit, collapse to MinWindow on RTO.
type AMP struct {
	RenoWindow
	group  *FlowGroup
	member *Member

	// Window-of-data bookkeeping for the per-window cut.
	windowEnd   int64
	ackedInWin  int64
	markedInWin int64
}

// NewAMP returns the controller for one subflow of an AMP flow.
func NewAMP(initialCwnd int, group *FlowGroup, member *Member) *AMP {
	return InitAMP(new(AMP), initialCwnd, group, member)
}

// InitAMP is NewAMP in place, in storage its caller owns.
func InitAMP(a *AMP, initialCwnd int, group *FlowGroup, member *Member) *AMP {
	if group == nil || member == nil {
		panic("cc: AMP requires a group and a member")
	}
	*a = AMP{group: group, member: member}
	a.Reset(initialCwnd)
	return a
}

// Name implements Controller.
func (a *AMP) Name() string { return "amp" }

// ECNCapable implements Controller.
func (a *AMP) ECNCapable() bool { return true }

// wTotal is the flow's aggregate window across active subflows, floored at
// this subflow's own window so the coupled increase never exceeds 1/w_r
// (before siblings establish, the group may know only part of the flow).
func (a *AMP) wTotal() float64 {
	total := 0.0
	for _, m := range a.group.Members() {
		if m.Active && m.Cwnd > 0 {
			total += float64(m.Cwnd)
		}
	}
	if total < a.Cwnd {
		total = a.Cwnd
	}
	return total
}

// OnAck implements Controller.
func (a *AMP) OnAck(k Ack) {
	if a.windowEnd < 0 {
		a.windowEnd = k.SndNxt
	}
	a.ackedInWin += k.NewlyAcked
	if k.ECNEcho > 0 {
		a.markedInWin += int64(k.ECNEcho)
	}
	// End of an observation window: cut once by the window's instantaneous
	// marked fraction. The ACK that closes a marked window does not also
	// grow the window (CWR semantics).
	if k.SndUna > a.windowEnd {
		cut := false
		if a.markedInWin > 0 && a.ackedInWin > 0 {
			f := float64(a.markedInWin) / float64(a.ackedInWin)
			if f > 1 {
				f = 1
			}
			a.Cwnd *= 1 - float64(f/2)
			if a.Cwnd < MinWindow {
				a.Cwnd = MinWindow
			}
			a.Ssthresh = a.Cwnd
			cut = true
		}
		a.ackedInWin, a.markedInWin = 0, 0
		a.windowEnd = k.SndNxt
		if cut {
			a.member.Cwnd = a.Window()
			return
		}
	}
	for i := int64(0); i < k.NewlyAcked; i++ {
		if a.SlowStart() {
			a.Cwnd++
			continue
		}
		inc := 1 / a.Cwnd
		if wt := a.wTotal(); wt > a.Cwnd {
			inc = 1 / wt
		}
		a.Cwnd += inc
	}
	a.member.Cwnd = a.Window()
}

// OnFastRetransmit implements Controller: loss still halves, as in TCP.
func (a *AMP) OnFastRetransmit() {
	a.Halve()
	a.member.Cwnd = a.Window()
}

// OnRetransmitTimeout implements Controller.
func (a *AMP) OnRetransmitTimeout() {
	a.Collapse()
	a.ackedInWin, a.markedInWin = 0, 0
	a.windowEnd = -1
	a.member.Cwnd = a.Window()
}

// Reset implements Controller: restore the as-constructed state. The group
// and member bindings are structural and survive the reset; the member's
// published state is reset separately by the flow rebind.
func (a *AMP) Reset(initialCwnd int) {
	a.Init(initialCwnd)
	a.ackedInWin, a.markedInWin = 0, 0
	a.windowEnd = -1
}
