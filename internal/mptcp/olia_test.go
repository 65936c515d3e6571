package mptcp

import (
	"testing"

	"xmp/internal/cc"
	"xmp/internal/sim"
)

func oliaPair() (*OLIA, *OLIA, *cc.FlowGroup) {
	g := cc.NewFlowGroup()
	m1, m2 := g.Join(), g.Join()
	o1, o2 := NewOLIA(2, g, m1), NewOLIA(2, g, m2)
	m1.Active, m2.Active = true, true
	m1.SRTT, m2.SRTT = 200*sim.Microsecond, 200*sim.Microsecond
	return o1, o2, g
}

func driveCA(o *OLIA, acks int, srtt sim.Duration) {
	// Pull the controller out of slow start first.
	o.OnFastRetransmit()
	var una int64
	for i := 0; i < acks; i++ {
		una += 100
		o.OnAck(cc.Ack{NewlyAcked: 1, SndUna: una, SndNxt: una + 50, SRTT: srtt})
	}
}

func TestOLIASlowStartAndWindowFloor(t *testing.T) {
	o, _, _ := oliaPair()
	for i := 1; i <= 10; i++ {
		o.OnAck(cc.Ack{NewlyAcked: 1, SndUna: int64(i), SndNxt: int64(i + 10), SRTT: 200 * sim.Microsecond})
	}
	if o.Window() != 12 {
		t.Fatalf("slow start window %d, want 12", o.Window())
	}
	o.OnRetransmitTimeout()
	if o.Window() != cc.MinWindow {
		t.Fatalf("RTO window %d", o.Window())
	}
}

func TestOLIAHalvesOnLoss(t *testing.T) {
	o, _, _ := oliaPair()
	for i := 1; i <= 30; i++ {
		o.OnAck(cc.Ack{NewlyAcked: 1, SndUna: int64(i), SndNxt: int64(i + 10), SRTT: 200 * sim.Microsecond})
	}
	w := o.Window()
	o.OnFastRetransmit()
	if o.Window() != w/2 {
		t.Fatalf("loss cut %d -> %d, want halving", w, o.Window())
	}
}

func TestOLIAInterLossTracking(t *testing.T) {
	o, _, _ := oliaPair()
	driveCA(o, 50, 200*sim.Microsecond)
	if o.interLossGap() < 50 {
		t.Fatalf("inter-loss gap %v after 50 clean acks", o.interLossGap())
	}
	o.OnFastRetransmit()
	// After a loss the last completed interval is remembered.
	if o.interLossGap() < 50 {
		t.Fatalf("gap forgot the completed interval: %v", o.interLossGap())
	}
}

func TestOLIAAlphaRedistribution(t *testing.T) {
	o1, o2, _ := oliaPair()
	// o1: big window but lossy (small l). o2: small window, long
	// inter-loss gap -> o2 is in M\B (best but small), o1 in B.
	driveCA(o1, 100, 200*sim.Microsecond) // builds window and gap
	o1.OnFastRetransmit()
	o1.sinceLastLoss, o1.lastInterLoss = 5, 5 // force poor loss history
	driveCA(o2, 30, 200*sim.Microsecond)
	o2.Cwnd = 4 // smaller window than o1
	o1.member.Cwnd, o2.member.Cwnd = o1.Window(), o2.Window()

	a1, a2 := o1.alphaR(), o2.alphaR()
	if a2 <= 0 {
		t.Fatalf("best-path small-window subflow should gain: alpha2=%v", a2)
	}
	if a1 >= 0 {
		t.Fatalf("max-window subflow should shed: alpha1=%v", a1)
	}
}

func TestOLIAAlphaZeroWhenSymmetric(t *testing.T) {
	o1, o2, _ := oliaPair()
	// Identical state: both are in M and in B -> M\B empty -> alpha = 0.
	o1.Cwnd, o2.Cwnd = 10, 10
	o1.sinceLastLoss, o2.sinceLastLoss = 50, 50
	o1.member.Cwnd, o2.member.Cwnd = 10, 10
	if a := o1.alphaR(); a != 0 {
		t.Fatalf("symmetric subflows: alpha=%v, want 0", a)
	}
	if a := o2.alphaR(); a != 0 {
		t.Fatalf("symmetric subflows: alpha=%v, want 0", a)
	}
}

func TestOLIASinglePathAlphaZero(t *testing.T) {
	g := cc.NewFlowGroup()
	m := g.Join()
	o := NewOLIA(2, g, m)
	m.Active = true
	if o.alphaR() != 0 {
		t.Fatal("single path must have alpha 0")
	}
}

func TestOLIAValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil group accepted")
		}
	}()
	NewOLIA(2, nil, nil)
}

func TestLIAAlphaFormula(t *testing.T) {
	g := cc.NewFlowGroup()
	m1, m2 := g.Join(), g.Join()
	l := NewLIA(2, g, m1)
	m1.Cwnd, m1.SRTT, m1.Active = 10, 200*sim.Microsecond, true
	m2.Cwnd, m2.SRTT, m2.Active = 40, 400*sim.Microsecond, true
	alpha, wTotal, ok := l.alpha()
	if !ok {
		t.Fatal("alpha unavailable")
	}
	if wTotal != 50 {
		t.Fatalf("total window %v", wTotal)
	}
	// max(w/rtt^2): m1: 10/(2e-4)^2 = 2.5e8 ; m2: 40/(4e-4)^2 = 2.5e8.
	// sum(w/rtt): 10/2e-4 + 40/4e-4 = 5e4+1e5 = 1.5e5.
	// alpha = 50 * 2.5e8 / (1.5e5)^2 = 50*2.5e8/2.25e10 = 0.5555...
	if alpha < 0.55 || alpha > 0.56 {
		t.Fatalf("alpha %v, want ~0.556", alpha)
	}
}

func TestLIAIncreaseCappedByCoupling(t *testing.T) {
	g := cc.NewFlowGroup()
	m1, m2 := g.Join(), g.Join()
	l := NewLIA(2, g, m1)
	m1.Cwnd, m1.SRTT, m1.Active = 10, 200*sim.Microsecond, true
	m2.Cwnd, m2.SRTT, m2.Active = 40, 400*sim.Microsecond, true
	l.Cwnd, l.Ssthresh = 10, 5 // force congestion avoidance
	w0 := l.Cwnd
	l.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 1, SndNxt: 20, SRTT: 200 * sim.Microsecond})
	inc := l.Cwnd - w0
	// Coupled increase alpha/wTotal = 0.556/50 ~ 0.011 < 1/w = 0.1.
	if inc > 0.02 || inc <= 0 {
		t.Fatalf("coupled increase %v, want ~0.011", inc)
	}
}

func TestLIAFallsBackWithoutRTT(t *testing.T) {
	g := cc.NewFlowGroup()
	m := g.Join()
	l := NewLIA(2, g, m)
	m.Cwnd, m.Active = 10, true // no SRTT yet
	l.Cwnd, l.Ssthresh = 10, 5
	w0 := l.Cwnd
	l.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 1, SndNxt: 20})
	if inc := l.Cwnd - w0; inc < 0.09 || inc > 0.11 {
		t.Fatalf("uncoupled fallback increase %v, want 1/w = 0.1", inc)
	}
}
