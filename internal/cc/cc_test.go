package cc

import (
	"testing"

	"xmp/internal/sim"
)

// ackSeq drives a controller through n clean acks of one segment each,
// simulating continuous progress so rounds keep ending.
func ackSeq(c Controller, n int, echoAt map[int]int) {
	var una, nxt int64 = 0, 10
	for i := 0; i < n; i++ {
		una++
		if nxt < una+int64(c.Window()) {
			nxt = una + int64(c.Window())
		}
		a := Ack{NewlyAcked: 1, SndUna: una, SndNxt: nxt, SRTT: 200 * sim.Microsecond}
		if e, ok := echoAt[i]; ok {
			a.ECNEcho = e
		}
		c.OnAck(a)
	}
}

func TestRenoSlowStartDoubles(t *testing.T) {
	r := NewReno(2, false)
	ackSeq(r, 10, nil)
	if got := r.Window(); got != 12 {
		t.Fatalf("cwnd after 10 slow-start acks = %d, want 12", got)
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	r := NewReno(2, false)
	ackSeq(r, 8, nil) // cwnd 10
	r.OnFastRetransmit()
	w0 := r.Window() // 5, ssthresh 5 -> CA
	// ~one window of acks grows cwnd by ~1 (the divisor rises as cwnd
	// grows, so a couple of extra acks are needed to cross the integer).
	ackSeq(r, w0+1, nil)
	if got := r.Window(); got != w0+1 {
		t.Fatalf("CA after %d acks: cwnd %d, want %d", w0+1, got, w0+1)
	}
}

func TestRenoHalvesOnLossAndECE(t *testing.T) {
	r := NewReno(2, true)
	ackSeq(r, 30, nil) // cwnd 32
	r.OnFastRetransmit()
	if got := r.Window(); got != 16 {
		t.Fatalf("after loss cwnd = %d, want 16", got)
	}
	r.OnAck(Ack{NewlyAcked: 1, SndUna: 100, SndNxt: 200, ECNEcho: 1})
	if got := r.Window(); got != 8 {
		t.Fatalf("after ECE cwnd = %d, want 8", got)
	}
}

func TestRenoECEOncePerWindow(t *testing.T) {
	r := NewReno(2, true)
	ackSeq(r, 30, nil) // cwnd 32
	r.OnAck(Ack{NewlyAcked: 1, SndUna: 100, SndNxt: 200, ECNEcho: 1})
	w := r.Window()
	// More ECE before snd_una reaches 200: no further cuts.
	r.OnAck(Ack{NewlyAcked: 1, SndUna: 150, SndNxt: 220, ECNEcho: 1})
	if r.Window() != w {
		t.Fatalf("second ECE in same window cut again: %d -> %d", w, r.Window())
	}
	// Past cwr_seq: cuts again.
	r.OnAck(Ack{NewlyAcked: 1, SndUna: 201, SndNxt: 240, ECNEcho: 1})
	if r.Window() >= w {
		t.Fatalf("ECE after cwr_seq did not cut: %d", r.Window())
	}
}

func TestRenoIgnoresECEWhenNotECN(t *testing.T) {
	r := NewReno(4, false)
	r.OnAck(Ack{NewlyAcked: 1, SndUna: 1, SndNxt: 10, ECNEcho: 1})
	if r.Window() < 4 {
		t.Fatal("non-ECN Reno reacted to ECE")
	}
	if r.ECNCapable() {
		t.Fatal("ECNCapable wrong")
	}
}

func TestRenoRTOCollapses(t *testing.T) {
	r := NewReno(2, false)
	ackSeq(r, 30, nil)
	r.OnRetransmitTimeout()
	if got := r.Window(); got != MinWindow {
		t.Fatalf("after RTO cwnd = %d, want %d", got, MinWindow)
	}
	// ssthresh = 16: slow start until 16.
	ackSeq(r, 15, nil)
	if got := r.Window(); got != 16 {
		t.Fatalf("slow-start restart reached %d, want 16", got)
	}
}

func TestRenoNames(t *testing.T) {
	if NewReno(2, false).Name() != "reno" || NewReno(2, true).Name() != "reno-ecn" {
		t.Fatal("names wrong")
	}
}

func TestDCTCPAlphaConvergesToMarkFraction(t *testing.T) {
	d := NewDCTCP(2, DefaultG)
	// Constant 25% marking across many windows: alpha -> 0.25.
	var una, nxt int64 = 0, 100
	for i := 0; i < 4000; i++ {
		una++
		nxt = una + 100
		a := Ack{NewlyAcked: 1, SndUna: una, SndNxt: nxt}
		if i%4 == 0 {
			a.ECNEcho = 1
		}
		d.OnAck(a)
	}
	if alpha := d.Alpha(); alpha < 0.15 || alpha > 0.35 {
		t.Fatalf("alpha = %.3f, want ~0.25", alpha)
	}
}

func TestDCTCPCutsProportionally(t *testing.T) {
	d := NewDCTCP(2, DefaultG)
	// Establish alpha ~ 0.25 while in "congestion avoidance" territory.
	var una, nxt int64 = 0, 100
	for i := 0; i < 4000; i++ {
		una++
		nxt = una + 100
		a := Ack{NewlyAcked: 1, SndUna: una, SndNxt: nxt}
		if i%4 == 0 {
			a.ECNEcho = 1
		}
		d.OnAck(a)
	}
	alpha := d.Alpha()
	w0 := float64(d.Window())
	una += 200 // move past any cwr guard
	d.OnAck(Ack{NewlyAcked: 1, SndUna: una, SndNxt: una + 100, ECNEcho: 1})
	w1 := float64(d.Window())
	wantCut := alpha / 2
	gotCut := (w0 - w1) / w0
	if gotCut < wantCut-0.1 || gotCut > wantCut+0.1 {
		t.Fatalf("cut fraction %.3f, want ~%.3f (alpha=%.3f)", gotCut, wantCut, alpha)
	}
}

func TestDCTCPFirstMarkCutsByAlphaHalf(t *testing.T) {
	d := NewDCTCP(2, DefaultG)
	ackSeq(d, 30, nil) // cwnd 32; alpha decays from its initial 1
	alpha := d.Alpha()
	if alpha <= 0 || alpha > 1 {
		t.Fatalf("alpha %v out of (0,1]", alpha)
	}
	w0 := float64(d.Window())
	d.OnAck(Ack{NewlyAcked: 1, SndUna: 100, SndNxt: 200, ECNEcho: 1})
	w1 := float64(d.Window())
	// The mark's own window update nudges alpha before the cut; allow a
	// generous band around alpha/2.
	gotCut := (w0 - w1) / w0
	if gotCut < alpha/2-0.15 || gotCut > alpha/2+0.15 {
		t.Fatalf("cut fraction %.3f, want ~alpha/2 = %.3f", gotCut, alpha/2)
	}
}

func TestDCTCPZeroMarksDecaysAlpha(t *testing.T) {
	d := NewDCTCP(2, DefaultG)
	// Force alpha up, then run clean windows; alpha must decay.
	var una, nxt int64 = 0, 10
	for i := 0; i < 400; i++ {
		una++
		nxt = una + 10
		d.OnAck(Ack{NewlyAcked: 1, SndUna: una, SndNxt: nxt, ECNEcho: 1})
	}
	hi := d.Alpha()
	for i := 0; i < 400; i++ {
		una++
		nxt = una + 10
		d.OnAck(Ack{NewlyAcked: 1, SndUna: una, SndNxt: nxt})
	}
	if d.Alpha() >= hi/4 {
		t.Fatalf("alpha did not decay: %.3f -> %.3f", hi, d.Alpha())
	}
}

func TestDCTCPGainValidation(t *testing.T) {
	for _, g := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("g=%v did not panic", g)
				}
			}()
			NewDCTCP(2, g)
		}()
	}
}

func TestEchoModeStrings(t *testing.T) {
	cases := map[EchoMode]string{
		EchoNone:     "none",
		EchoStandard: "standard",
		EchoCounter:  "counter",
		EchoDCTCP:    "dctcp",
		EchoMode(99): "unknown",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
	if EchoCounter.EchoCap() != 3 || EchoStandard.EchoCap() != 1 || EchoNone.EchoCap() != 0 {
		t.Fatal("echo caps wrong")
	}
	if EchoDCTCP.EchoCap() < 1000 {
		t.Fatal("dctcp echo should be effectively uncapped")
	}
}

func TestFlowGroupAggregates(t *testing.T) {
	g := NewFlowGroup()
	m1, m2 := g.Join(), g.Join()
	if len(g.Members()) != 2 {
		t.Fatal("join count wrong")
	}
	m1.Cwnd, m1.SRTT, m1.Active = 10, 200*sim.Microsecond, true
	m2.Cwnd, m2.SRTT, m2.Active = 20, 400*sim.Microsecond, true
	wantTotal := 10/0.0002 + 20/0.0004
	if got := g.TotalRate(); got < wantTotal*0.99 || got > wantTotal*1.01 {
		t.Fatalf("TotalRate = %v, want %v", got, wantTotal)
	}
	if got := g.MinSRTT(); got != 200*sim.Microsecond {
		t.Fatalf("MinSRTT = %v", got)
	}
	if g.ActiveCount() != 2 {
		t.Fatal("active count")
	}
	m2.Active = false
	if g.ActiveCount() != 1 {
		t.Fatal("active count after deactivate")
	}
	if got := g.MinSRTT(); got != 200*sim.Microsecond {
		t.Fatalf("MinSRTT with inactive member = %v", got)
	}
}

func TestFlowGroupEmptyAndUnmeasured(t *testing.T) {
	g := NewFlowGroup()
	if g.TotalRate() != 0 || g.MinSRTT() != 0 || g.ActiveCount() != 0 {
		t.Fatal("empty group aggregates nonzero")
	}
	m := g.Join()
	m.Active = true // no SRTT yet
	if g.MinSRTT() != 0 {
		t.Fatal("unmeasured member contributed an SRTT")
	}
	if m.Rate() != 0 {
		t.Fatal("unmeasured member has nonzero rate")
	}
}
