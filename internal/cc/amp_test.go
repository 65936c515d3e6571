package cc

import (
	"math"
	"testing"

	"xmp/internal/sim"
)

// newAMPPair builds an AMP controller with one sibling member in its group,
// returning the controller and the sibling slot (whose Cwnd the test sets
// to exercise the coupled increase).
func newAMPPair(icw int) (*AMP, *Member) {
	g := NewFlowGroup()
	me := g.Join()
	sib := g.Join()
	a := NewAMP(icw, g, me)
	me.Cwnd, me.Active = a.Window(), true
	return a, sib
}

func TestAMPSlowStartDoubles(t *testing.T) {
	a, _ := newAMPPair(2)
	ackSeq(a, 10, nil)
	if got := a.Window(); got != 12 {
		t.Fatalf("cwnd after 10 slow-start acks = %d, want 12", got)
	}
}

func TestAMPSemiCoupledIncrease(t *testing.T) {
	a, sib := newAMPPair(2)
	ackSeq(a, 8, nil) // cwnd 10
	a.OnFastRetransmit()
	w0 := float64(a.Window()) // 5, ssthresh 5 -> CA
	// Sibling carries 3x our window: per-ack increase is 1/w_total, not
	// 1/w_r — one ack grows by 1/(w0+3*w0).
	sib.Cwnd, sib.Active = int(3*w0), true
	a.member.Cwnd = a.Window()
	a.OnAck(Ack{NewlyAcked: 1, SndUna: 100, SndNxt: 200, SRTT: 200 * sim.Microsecond})
	want := w0 + 1/(4*w0)
	if math.Abs(a.Cwnd-want) > 1e-9 {
		t.Fatalf("coupled CA increase: cwnd %.6f, want %.6f", a.Cwnd, want)
	}
	// With an inactive sibling the increase falls back to 1/w_r.
	sib.Active = false
	before := a.Cwnd
	a.OnAck(Ack{NewlyAcked: 1, SndUna: 101, SndNxt: 200, SRTT: 200 * sim.Microsecond})
	want = before + 1/before
	if math.Abs(a.Cwnd-want) > 1e-9 {
		t.Fatalf("uncoupled CA increase: cwnd %.6f, want %.6f", a.Cwnd, want)
	}
}

func TestAMPCutsByInstantaneousFractionPerWindow(t *testing.T) {
	a, _ := newAMPPair(2)
	ackSeq(a, 30, nil) // cwnd 32, in slow start
	a.OnFastRetransmit()
	// Discard the observation window ackSeq left half-open so the cut below
	// sees exactly the marks of the scripted window.
	a.windowEnd, a.ackedInWin, a.markedInWin = -1, 0, 0
	w0 := a.Cwnd // CA from here
	// One window of 10 acked segments, 4 marked: F = 0.4. The window ends
	// when SndUna passes windowEnd (set on the first ack below).
	a.OnAck(Ack{NewlyAcked: 5, SndUna: 1000, SndNxt: 2000, ECNEcho: 2})
	a.OnAck(Ack{NewlyAcked: 5, SndUna: 1500, SndNxt: 2000, ECNEcho: 2})
	grown := a.Cwnd // growth suppressed? no: no window closed yet, marks only accumulate
	if grown <= w0 {
		t.Fatalf("cwnd shrank before the window closed: %.3f -> %.3f", w0, grown)
	}
	a.OnAck(Ack{NewlyAcked: 1, SndUna: 2001, SndNxt: 3000}) // closes window
	// F = 4/11 over the closed window; cwnd was `grown` plus nothing (the
	// closing ack does not grow a cut window).
	want := grown * (1 - (4.0/11)/2)
	if math.Abs(a.Cwnd-want) > 1e-9 {
		t.Fatalf("post-cut cwnd %.6f, want %.6f", a.Cwnd, want)
	}
	if a.Ssthresh != a.Cwnd {
		t.Fatalf("ssthresh %.3f not pinned to cut cwnd %.3f", a.Ssthresh, a.Cwnd)
	}
}

func TestAMPCleanWindowDoesNotCut(t *testing.T) {
	a, _ := newAMPPair(2)
	ackSeq(a, 30, nil)
	a.OnFastRetransmit()
	w0 := a.Cwnd
	a.OnAck(Ack{NewlyAcked: 5, SndUna: 1000, SndNxt: 2000})
	a.OnAck(Ack{NewlyAcked: 5, SndUna: 2001, SndNxt: 3000}) // closes a clean window
	if a.Cwnd <= w0 {
		t.Fatalf("clean window cut cwnd: %.3f -> %.3f", w0, a.Cwnd)
	}
}

func TestAMPNoEWMAReactsImmediately(t *testing.T) {
	// Unlike DCTCP (whose alpha decays from 1 over ~1/g windows), AMP's cut
	// depends only on the current window: two controllers with different
	// histories cut identically for the same window.
	fresh, _ := newAMPPair(2)
	ackSeq(fresh, 30, nil)
	fresh.OnFastRetransmit()
	veteran, _ := newAMPPair(2)
	ackSeq(veteran, 30, nil)
	veteran.OnFastRetransmit()
	// Veteran first survives many clean windows.
	var una, nxt int64 = 1000, 2000
	for i := 0; i < 50; i++ {
		veteran.OnAck(Ack{NewlyAcked: 1, SndUna: una, SndNxt: nxt})
		una, nxt = nxt+1, nxt+1000
	}
	// Align windows (and clear half-open observation state), then hit both
	// with the same heavily-marked window.
	fresh.Cwnd, veteran.Cwnd = 20, 20
	for _, a := range []*AMP{fresh, veteran} {
		a.windowEnd, a.ackedInWin, a.markedInWin = -1, 0, 0
		a.OnAck(Ack{NewlyAcked: 4, SndUna: 10000, SndNxt: 11000, ECNEcho: 4})
		a.OnAck(Ack{NewlyAcked: 1, SndUna: 11001, SndNxt: 12000})
	}
	if math.Abs(fresh.Cwnd-veteran.Cwnd) > 1e-9 {
		t.Fatalf("history changed the cut: fresh %.6f vs veteran %.6f", fresh.Cwnd, veteran.Cwnd)
	}
	// The first ack grows 4 CA steps from 20, the closing ack cuts by
	// F/2 = (4/5)/2 without growing.
	w := 20.0
	for i := 0; i < 4; i++ {
		w += 1 / w
	}
	want := w * (1 - 4.0/5/2)
	if math.Abs(fresh.Cwnd-want) > 1e-9 {
		t.Fatalf("marked window cut to %.6f, want %.6f", fresh.Cwnd, want)
	}
}

func TestAMPLossReactions(t *testing.T) {
	a, _ := newAMPPair(2)
	ackSeq(a, 30, nil) // cwnd 32
	a.OnFastRetransmit()
	if got := a.Window(); got != 16 {
		t.Fatalf("after fast retransmit cwnd = %d, want 16", got)
	}
	a.OnRetransmitTimeout()
	if got := a.Window(); got != MinWindow {
		t.Fatalf("after RTO cwnd = %d, want %d", got, MinWindow)
	}
	if a.Ssthresh != 8 {
		t.Fatalf("after RTO ssthresh = %.1f, want 8", a.Ssthresh)
	}
	if a.member.Cwnd != a.Window() {
		t.Fatalf("member cwnd %d not published", a.member.Cwnd)
	}
}

func TestAMPResetRestoresFreshState(t *testing.T) {
	a, _ := newAMPPair(4)
	ackSeq(a, 25, map[int]int{10: 2, 20: 1})
	a.OnFastRetransmit()
	a.Reset(4)
	b := NewAMP(4, a.group, a.member)
	if a.Cwnd != b.Cwnd || a.Ssthresh != b.Ssthresh ||
		a.windowEnd != b.windowEnd || a.ackedInWin != b.ackedInWin ||
		a.markedInWin != b.markedInWin {
		t.Fatalf("reset AMP %+v differs from fresh %+v", a, b)
	}
	if a.group != b.group || a.member != b.member {
		t.Fatal("reset lost the structural group/member bindings")
	}
}
