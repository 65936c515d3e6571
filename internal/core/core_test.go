package core

import (
	"math"
	"testing"
	"testing/quick"

	"xmp/internal/cc"
	"xmp/internal/sim"
)

func cleanAcks(b *BOS, n int) {
	var una, nxt int64 = 0, 10
	for i := 0; i < n; i++ {
		una++
		if nxt < una+int64(b.Window()) {
			nxt = una + int64(b.Window())
		}
		b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: una, SndNxt: nxt, SRTT: 200 * sim.Microsecond})
	}
}

func TestBOSSlowStartGrowsPerAck(t *testing.T) {
	b := NewBOS(2, 4)
	cleanAcks(b, 20)
	if got := b.Window(); got != 22 {
		t.Fatalf("slow-start window %d, want 22", got)
	}
}

func TestBOSMarkExitsSlowStartThenCuts(t *testing.T) {
	b := NewBOS(2, 4)
	cleanAcks(b, 38) // cwnd 40
	b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 50, SndNxt: 100, ECNEcho: 1})
	if got := b.Window(); got != 40 {
		t.Fatalf("slow-start mark changed window to %d", got)
	}
	if b.Reductions() != 1 {
		t.Fatalf("reductions %d", b.Reductions())
	}
	// Next round's mark cuts by 1/4.
	b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 101, SndNxt: 140, ECNEcho: 2})
	if got := b.Window(); got != 30 {
		t.Fatalf("CA mark: window %d, want 30", got)
	}
	// Eligible again once snd_una reaches cwr_seq (140).
	b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 141, SndNxt: 170, ECNEcho: 1})
	if got := b.Window(); got != 23 {
		t.Fatalf("next-round mark: window %d, want 30-30/4=23", got)
	}
}

func TestBOSOnceRoundGuardAndAblation(t *testing.T) {
	run := func(disable bool) int {
		b := NewBOS(2, 4)
		b.DisableCwrGuard = disable
		cleanAcks(b, 38)
		b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 50, SndNxt: 100, ECNEcho: 1})  // exit SS
		b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 101, SndNxt: 140, ECNEcho: 1}) // cut 1
		b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 105, SndNxt: 141, ECNEcho: 1}) // same round
		b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 108, SndNxt: 142, ECNEcho: 1}) // same round
		return b.Window()
	}
	guarded, unguarded := run(false), run(true)
	if guarded != 30 {
		t.Fatalf("guarded window %d, want 30", guarded)
	}
	if unguarded >= guarded {
		t.Fatalf("ablation: disabling the cwr guard should over-reduce (%d vs %d)", unguarded, guarded)
	}
}

// coupledBOS returns an XMP subflow's BOS publishing through self, in a
// flow whose only other subflow is sibling. Whole-second SRTTs keep
// Equation 9's arithmetic exact.
func coupledBOS(self, sibling cc.Member) *BOS {
	group := cc.NewFlowGroup()
	m, s := group.Join(), group.Join()
	*m, *s = self, sibling
	return InitBOS(new(BOS), 2, 4, group, m)
}

func TestBOSDeltaGrowth(t *testing.T) {
	// The controller adds δ per round in CA: 2 when Equation 9 says so
	// (cwnd 4 over 2 s against a 1 s sibling: δ = 4/(2/s·1 s)), exactly 1
	// uncoupled (Figure 1's fixed-β "halving" sender).
	for _, tc := range []struct {
		b    *BOS
		want int
	}{
		{coupledBOS(cc.Member{Cwnd: 4, SRTT: 2 * sim.Second, Active: true}, cc.Member{SRTT: sim.Second, Active: true}), 2},
		{NewBOS(2, 4), 1},
	} {
		b := tc.b
		cleanAcks(b, 18)                                                   // cwnd 20
		b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 30, SndNxt: 60, ECNEcho: 1}) // exit SS at 20
		w := b.Window()
		b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 61, SndNxt: 90})  // ends the REDUCED round
		b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 91, SndNxt: 120}) // ends a clean round: +δ
		if got := b.Window(); got != w+tc.want {
			t.Fatalf("delta=%d growth %d -> %d, want +%d per round", tc.want, w, got, tc.want)
		}
	}
}

func TestBOSFractionalDeltaAccumulates(t *testing.T) {
	// Two equal subflows: δ = 3/(6/s·1 s) = 0.5 each.
	even := cc.Member{Cwnd: 3, SRTT: sim.Second, Active: true}
	b := coupledBOS(even, even)
	cleanAcks(b, 18)
	b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 30, SndNxt: 60, ECNEcho: 1})
	w := b.Window()
	// Five round-ending acks: the first lands while still in REDUCED
	// state (no growth), the remaining four each add 0.5 -> +2 total.
	una := int64(61)
	for i := 0; i < 5; i++ {
		b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: una, SndNxt: una + 30})
		una += 31
	}
	if got := b.Window(); got != w+2 {
		t.Fatalf("fractional delta: %d -> %d, want +2 over the growth rounds", w, got)
	}
}

func TestBOSFloorsAtMinCwnd(t *testing.T) {
	b := NewBOS(2, 4)
	for i := 1; i < 30; i++ {
		b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: int64(100 * i), SndNxt: int64(100*i + 50), ECNEcho: 1})
	}
	if got := b.Window(); got != MinCwnd {
		t.Fatalf("window %d, want floor %d", got, MinCwnd)
	}
}

func TestBOSLossFallback(t *testing.T) {
	b := NewBOS(2, 4)
	cleanAcks(b, 38)
	b.OnFastRetransmit()
	if got := b.Window(); got != 30 {
		t.Fatalf("loss cut to %d, want 30", got)
	}
	b.OnRetransmitTimeout()
	if got := b.Window(); got != MinCwnd {
		t.Fatalf("RTO window %d, want %d", got, MinCwnd)
	}
}

func TestTraShEquation9(t *testing.T) {
	group := cc.NewFlowGroup()
	trash := NewTraSh(group)
	m1, m2 := group.Join(), group.Join()
	m1.Cwnd, m1.SRTT, m1.Active = 20, 200*sim.Microsecond, true
	m2.Cwnd, m2.SRTT, m2.Active = 10, 400*sim.Microsecond, true
	d1 := trash.DeltaFor(m1)()
	d2 := trash.DeltaFor(m2)()
	// x1 = 20/200us = 100000 seg/s, x2 = 10/400us = 25000 seg/s.
	// total = 125000; Tmin = 200us.
	// d1 = 20/(125000*0.0002) = 0.8 ; d2 = 10/(125000*0.0002) = 0.4.
	if math.Abs(d1-0.8) > 1e-9 || math.Abs(d2-0.4) > 1e-9 {
		t.Fatalf("deltas %v, %v; want 0.8, 0.4", d1, d2)
	}
	// Cross-check against the closed-form Equation 9.
	want1 := Equation9Delta(m1.SRTT, m1.Rate(), group.MinSRTT(), group.TotalRate())
	if math.Abs(d1-want1) > 1e-9 {
		t.Fatalf("TraSh %v != Equation9 %v", d1, want1)
	}
}

func TestTraShSinglePathDeltaIsOne(t *testing.T) {
	group := cc.NewFlowGroup()
	trash := NewTraSh(group)
	m := group.Join()
	m.Cwnd, m.SRTT, m.Active = 17, 350*sim.Microsecond, true
	if d := trash.DeltaFor(m)(); math.Abs(d-1) > 1e-9 {
		t.Fatalf("single-path delta %v, want 1", d)
	}
}

func TestTraShUnmeasuredDefaultsToOne(t *testing.T) {
	group := cc.NewFlowGroup()
	trash := NewTraSh(group)
	m := group.Join()
	if d := trash.DeltaFor(m)(); d != 1 {
		t.Fatalf("unmeasured delta %v, want 1", d)
	}
}

func TestTraShForeignMemberPanics(t *testing.T) {
	trash := NewTraSh(cc.NewFlowGroup())
	other := cc.NewFlowGroup().Join()
	defer func() {
		if recover() == nil {
			t.Fatal("foreign member accepted")
		}
	}()
	trash.DeltaFor(other)
}

// TestTraShPropositionOne checks Proposition 1: whenever subflow r's
// equilibrium marking probability is below the flow's expected congestion
// extent U'(y), the TraSh update strictly increases delta_r.
func TestTraShPropositionOne(t *testing.T) {
	const beta = 4
	f := func(w1, w2 uint8, r1, r2 uint16) bool {
		cw1, cw2 := int(w1%60)+2, int(w2%60)+2
		rtt1 := sim.Duration(int(r1%800)+100) * sim.Microsecond
		rtt2 := sim.Duration(int(r2%800)+100) * sim.Microsecond

		group := cc.NewFlowGroup()
		trash := NewTraSh(group)
		m1, m2 := group.Join(), group.Join()
		m1.Cwnd, m1.SRTT, m1.Active = cw1, rtt1, true
		m2.Cwnd, m2.SRTT, m2.Active = cw2, rtt2, true

		y := group.TotalRate()
		tmin := group.MinSRTT()
		uPrime := CongestionExtent(y, beta, tmin)
		for _, m := range group.Members() {
			deltaOld := 1.0 // the paper's delta(0)
			x := m.Rate()
			p := SubflowEquilibriumProb(x, deltaOld, beta, m.SRTT)
			deltaNew := trash.DeltaFor(m)()
			if p < uPrime && deltaNew <= deltaOld {
				return false
			}
			if p > uPrime && deltaNew >= deltaOld {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMinMarkingThresholdEquation1(t *testing.T) {
	// The paper's running example: 1 Gbps, 225 us -> BDP ~ 19 packets;
	// halving (beta=2) needs K >= 19, beta=4 allows K >= 7.
	bdp := BDPPackets(1e9, 225*sim.Microsecond, 1500)
	if bdp < 18 || bdp > 20 {
		t.Fatalf("BDP %v, want ~19 packets", bdp)
	}
	if k := MinMarkingThreshold(bdp, 2); k != 19 {
		t.Fatalf("K(beta=2) = %d, want 19", k)
	}
	if k := MinMarkingThreshold(bdp, 4); k != 7 {
		t.Fatalf("K(beta=4) = %d, want 7", k)
	}
	// And the deployment guidance: 1 Gbps, 400 us, beta=4 -> K=10 fits.
	bdp = BDPPackets(1e9, 400*sim.Microsecond, 1500)
	if k := MinMarkingThreshold(bdp, 4); k > 12 {
		t.Fatalf("K for the paper's DCN setting = %d, expected ~11", k)
	}
}

func TestEquilibriumInverses(t *testing.T) {
	for _, w := range []float64{4, 10, 33, 100} {
		p := EquilibriumMarkProb(w, 1, 4)
		back := EquilibriumWindow(p, 1, 4)
		if math.Abs(back-w) > 1e-6 {
			t.Fatalf("inverse mismatch: w=%v -> p=%v -> %v", w, p, back)
		}
	}
}

func TestUtilityConcaveIncreasing(t *testing.T) {
	tRTT := 300 * sim.Microsecond
	prev := math.Inf(-1)
	prevSlope := math.Inf(1)
	for x := 1000.0; x <= 1e6; x += 1000 {
		u := Utility(x, 1, 4, tRTT)
		if u <= prev {
			t.Fatalf("utility not increasing at x=%v", x)
		}
		slope := u - prev
		if prev != math.Inf(-1) && slope > prevSlope+1e-9 {
			t.Fatalf("utility not concave at x=%v", x)
		}
		prev, prevSlope = u, slope
	}
}

func TestCongestionExtentMatchesUtilityDerivative(t *testing.T) {
	// U'(y) computed numerically from Utility must match CongestionExtent.
	tRTT := 250 * sim.Microsecond
	for _, y := range []float64{1e4, 1e5, 5e5} {
		const h = 1.0
		num := (Utility(y+h, 1, 4, tRTT) - Utility(y-h, 1, 4, tRTT)) / (2 * h)
		ana := CongestionExtent(y, 4, tRTT)
		if math.Abs(num-ana)/ana > 1e-4 {
			t.Fatalf("derivative mismatch at y=%v: %v vs %v", y, num, ana)
		}
	}
}

func TestXMPConstructor(t *testing.T) {
	subs := XMP(3, 2, 4)
	if len(subs) != 3 {
		t.Fatalf("subflows %d", len(subs))
	}
	group := subs[0].Member
	_ = group
	// All members share one group: activating two and computing delta on
	// one must reflect the other.
	subs[0].Member.Cwnd, subs[0].Member.SRTT, subs[0].Member.Active = 10, 200*sim.Microsecond, true
	subs[1].Member.Cwnd, subs[1].Member.SRTT, subs[1].Member.Active = 10, 200*sim.Microsecond, true
	cleanForDelta := func(s Subflow) float64 {
		// Trigger a round end so deltaFn runs.
		s.BOS.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 5, SndNxt: 10})
		s.BOS.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 11, SndNxt: 20})
		return s.BOS.Delta()
	}
	d := cleanForDelta(subs[0])
	if math.Abs(d-0.5) > 1e-9 {
		t.Fatalf("two equal active subflows: delta %v, want 0.5", d)
	}
}

func TestXMPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("XMP(0) accepted")
		}
	}()
	XMP(0, 2, 4)
}

func TestBOSBadBetaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("beta=1 accepted")
		}
	}()
	NewBOS(2, 1)
}
