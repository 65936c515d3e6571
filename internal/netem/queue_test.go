package netem

import (
	"math"
	"testing"
	"testing/quick"

	"xmp/internal/sim"
)

func dataPkt(ect bool) *Packet {
	return NewDataPacket(1, 0, 1, 0, MSS, ect)
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(10)
	pkts := make([]*Packet, 5)
	for i := range pkts {
		pkts[i] = NewDataPacket(1, 0, 1, int64(i), MSS, false)
		if !q.Enqueue(0, pkts[i]) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	for i := range pkts {
		got := q.Dequeue(0)
		if got != pkts[i] {
			t.Fatalf("dequeue %d returned wrong packet", i)
		}
	}
	if q.Dequeue(0) != nil {
		t.Fatal("empty queue returned a packet")
	}
}

func TestDropTailLimit(t *testing.T) {
	q := NewDropTail(3)
	for i := 0; i < 3; i++ {
		if !q.Enqueue(0, dataPkt(false)) {
			t.Fatalf("enqueue %d rejected below limit", i)
		}
	}
	if q.Enqueue(0, dataPkt(false)) {
		t.Fatal("enqueue accepted above limit")
	}
	st := q.Stats()
	if st.DroppedPackets != 1 || st.EnqueuedPackets != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestDropTailBytes(t *testing.T) {
	q := NewDropTail(10)
	q.Enqueue(0, dataPkt(false))
	q.Enqueue(0, NewAckPacket(1, 0, 1, 0))
	if got := q.Bytes(); got != MaxPacketBytes+HeaderBytes {
		t.Fatalf("bytes = %d, want %d", got, MaxPacketBytes+HeaderBytes)
	}
	q.Dequeue(0)
	if got := q.Bytes(); got != HeaderBytes {
		t.Fatalf("bytes after dequeue = %d", got)
	}
}

func TestThresholdECNMarksAboveK(t *testing.T) {
	q := NewThresholdECN(100, 3)
	// First 3 packets arrive with occupancy 0,1,2 -> unmarked.
	for i := 0; i < 3; i++ {
		p := dataPkt(true)
		q.Enqueue(0, p)
		if p.CE {
			t.Fatalf("packet %d marked below threshold", i)
		}
	}
	// Occupancy now 3 (=K): the arriving packet makes it 4 > K -> marked.
	p := dataPkt(true)
	q.Enqueue(0, p)
	if !p.CE {
		t.Fatal("packet arriving above threshold not marked")
	}
	if q.Stats().MarkedPackets != 1 {
		t.Fatalf("marked = %d", q.Stats().MarkedPackets)
	}
}

func TestThresholdECNIgnoresNonECT(t *testing.T) {
	q := NewThresholdECN(100, 0)
	p := dataPkt(false)
	q.Enqueue(0, dataPkt(true))
	q.Enqueue(0, p)
	if p.CE {
		t.Fatal("non-ECT packet was marked")
	}
}

func TestThresholdECNStrictDropsNonECTAboveK(t *testing.T) {
	q := NewThresholdECN(100, 2)
	q.DropNonECT = true
	// Below K: non-ECT accepted.
	if !q.Enqueue(0, dataPkt(false)) || !q.Enqueue(0, dataPkt(false)) {
		t.Fatal("non-ECT rejected below threshold")
	}
	// At/above K: non-ECT dropped, ECT marked.
	if q.Enqueue(0, dataPkt(false)) {
		t.Fatal("strict queue accepted non-ECT above K")
	}
	p := dataPkt(true)
	if !q.Enqueue(0, p) || !p.CE {
		t.Fatal("ECT packet should be accepted and marked above K")
	}
	st := q.Stats()
	if st.DroppedPackets != 1 || st.MarkedPackets != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestThresholdECNTailDrop(t *testing.T) {
	q := NewThresholdECN(4, 2)
	for i := 0; i < 4; i++ {
		if !q.Enqueue(0, dataPkt(true)) {
			t.Fatal("rejected below limit")
		}
	}
	if q.Enqueue(0, dataPkt(true)) {
		t.Fatal("accepted above limit")
	}
}

func TestThresholdECNRequiresKBelowLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("K >= limit did not panic")
		}
	}()
	NewThresholdECN(10, 10)
}

func TestQueueOccupancyIntegral(t *testing.T) {
	q := NewDropTail(10)
	q.Enqueue(0, dataPkt(false))                         // len 1 over [0, 1ms)
	q.Enqueue(sim.Time(sim.Millisecond), dataPkt(false)) // len 2 over [1ms, 2ms)
	q.Dequeue(sim.Time(2 * sim.Millisecond))
	q.Dequeue(sim.Time(2 * sim.Millisecond))
	avg := q.Stats().AvgLen(sim.Time(2 * sim.Millisecond))
	if avg < 1.49 || avg > 1.51 {
		t.Fatalf("time-average occupancy %v, want 1.5", avg)
	}
}

func TestQueueMaxLen(t *testing.T) {
	q := NewDropTail(10)
	for i := 0; i < 7; i++ {
		q.Enqueue(0, dataPkt(false))
	}
	for i := 0; i < 3; i++ {
		q.Dequeue(0)
	}
	if q.Stats().MaxLen != 7 {
		t.Fatalf("max len %d, want 7", q.Stats().MaxLen)
	}
}

func TestFIFORingGrowthPreservesOrder(t *testing.T) {
	// Force wraparound + growth of the ring buffer.
	q := NewDropTail(1000)
	next := int64(0)
	popped := int64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Enqueue(0, NewDataPacket(1, 0, 1, next, MSS, false))
			next++
		}
		for i := 0; i < 3; i++ {
			p := q.Dequeue(0)
			if p.Seq != popped {
				t.Fatalf("order violated: got seq %d, want %d", p.Seq, popped)
			}
			popped++
		}
	}
	for {
		p := q.Dequeue(0)
		if p == nil {
			break
		}
		if p.Seq != popped {
			t.Fatalf("drain order violated: got %d want %d", p.Seq, popped)
		}
		popped++
	}
	if popped != next {
		t.Fatalf("popped %d of %d", popped, next)
	}
}

// Property: for any interleaving of enqueues and dequeues, a drop-tail
// queue never exceeds its limit, never reorders packets, and conserves
// packets (enqueued-accepted = dequeued + still-queued).
func TestDropTailConservationProperty(t *testing.T) {
	f := func(ops []bool, limit uint8) bool {
		lim := int(limit%32) + 1
		q := NewDropTail(lim)
		var pushed, popped, accepted int64
		var acceptedSeqs []int64 // mirror of the accepted order
		for _, isPush := range ops {
			if isPush {
				p := NewDataPacket(1, 0, 1, pushed, MSS, false)
				pushed++
				if q.Enqueue(0, p) {
					accepted++
					acceptedSeqs = append(acceptedSeqs, p.Seq)
				}
			} else if p := q.Dequeue(0); p != nil {
				// Accepted packets must come out in acceptance order;
				// rejected ones leave gaps in the raw sequence space.
				if p.Seq != acceptedSeqs[popped] {
					return false
				}
				popped++
			}
			if q.Len() > lim {
				return false
			}
		}
		return accepted == popped+int64(q.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestREDDegenerateMatchesThreshold(t *testing.T) {
	// RED with Wq=1, MinTh=MaxTh=K must mark exactly when the instantaneous
	// queue (including the arrival) exceeds K — the paper's deployment
	// trick for commodity switches.
	k := 5
	red := NewRED(DegenerateREDConfig(100, k), 12*sim.Microsecond, sim.NewRNG(1))
	thr := NewThresholdECN(100, k)
	for i := 0; i < 20; i++ {
		pr, pt := dataPkt(true), dataPkt(true)
		red.Enqueue(0, pr)
		thr.Enqueue(0, pt)
		if pr.CE != pt.CE {
			t.Fatalf("packet %d: RED mark=%v, threshold mark=%v", i, pr.CE, pt.CE)
		}
	}
}

func TestREDBelowMinThNeverMarks(t *testing.T) {
	cfg := DefaultREDConfig(100)
	q := NewRED(cfg, 12*sim.Microsecond, sim.NewRNG(2))
	for i := 0; i < 5; i++ {
		p := dataPkt(true)
		q.Enqueue(0, p)
		if p.CE {
			t.Fatal("marked while average below MinTh")
		}
		q.Dequeue(0)
	}
}

func TestREDDropsWhenMarkDisabled(t *testing.T) {
	cfg := DegenerateREDConfig(100, 2)
	cfg.Mark = false
	q := NewRED(cfg, 12*sim.Microsecond, sim.NewRNG(3))
	drops := 0
	for i := 0; i < 10; i++ {
		if !q.Enqueue(0, dataPkt(true)) {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("drop-mode RED never dropped above threshold")
	}
	if q.Stats().MarkedPackets != 0 {
		t.Fatal("drop-mode RED marked packets")
	}
}

func TestREDDropsNonECTWhenCongested(t *testing.T) {
	q := NewRED(DegenerateREDConfig(100, 1), 12*sim.Microsecond, sim.NewRNG(4))
	q.Enqueue(0, dataPkt(false))
	q.Enqueue(0, dataPkt(false))
	// Queue holds 2 > MinTh=1 with Wq=1: next non-ECT arrival must drop.
	if q.Enqueue(0, dataPkt(false)) {
		t.Fatal("congested RED accepted non-ECT packet instead of dropping")
	}
}

func TestREDIdleDecay(t *testing.T) {
	cfg := REDConfig{Limit: 100, MinTh: 5, MaxTh: 15, MaxP: 0.1, Wq: 0.25, Mark: true}
	q := NewRED(cfg, sim.Duration(12*sim.Microsecond), sim.NewRNG(5))
	now := sim.Time(0)
	for i := 0; i < 40; i++ {
		q.Enqueue(now, dataPkt(true))
	}
	avgBusy := q.AvgEstimate()
	for q.Len() > 0 {
		q.Dequeue(now)
	}
	// A long idle period must decay the average before the next arrival.
	now = now.Add(100 * sim.Millisecond)
	q.Enqueue(now, dataPkt(true))
	if q.AvgEstimate() >= avgBusy {
		t.Fatalf("average did not decay across idle period: %v -> %v", avgBusy, q.AvgEstimate())
	}
}

func TestREDConfigValidation(t *testing.T) {
	for name, cfg := range map[string]REDConfig{
		"zero limit":    {Limit: 0, MinTh: 1, MaxTh: 2, MaxP: 0.1, Wq: 0.1},
		"maxth < minth": {Limit: 10, MinTh: 5, MaxTh: 1, MaxP: 0.1, Wq: 0.1},
		"bad wq":        {Limit: 10, MinTh: 1, MaxTh: 2, MaxP: 0.1, Wq: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewRED(cfg, 0, sim.NewRNG(1))
		}()
	}
}

// TestREDMarkingCurve measures RED's marking from outside against its
// definition. With Wq = 1 the average is the instantaneous occupancy, so a
// queue held at L packets (each arrival enqueued, then one packet dequeued)
// shows every arrival the ramp's pb(L): 0 below MinTh,
// MaxP·(L−MinTh)/(MaxTh−MinTh) up to MaxTh, with Gentle
// MaxP + (1−MaxP)·(L−MaxTh)/MaxTh up to 2·MaxTh, and 1 from there.
//
// Enqueue uniformizes the gaps between marks as Floyd and Jacobson's RED
// does (pa = pb/(1−count·pb)), so marks are not Bernoulli(pb): the gap G
// from one mark to the next (the marked packet included) is k with
// probability pb for k = 1…n, n = ⌊1/pb⌋, and n+1 with the remaining
// 1−n·pb. Closed form: E[G] = pb·n(n+1)/2 + (1−n·pb)(n+1), and
// E[G²] = pb·n(n+1)(2n+1)/6 + (1−n·pb)(n+1)²; when 1/pb is an integer,
// G is uniform on 1…1/pb and the marked fraction is 2·pb/(1+pb). At each
// level the mean of the gaps after the first mark must lie within 5
// standard errors, 5·σ_G/√gaps, of E[G]. Wherever pb ≤ 0.25 that interval
// excludes 1/pb, Bernoulli marking's mean gap, which the test also checks
// of itself.
func TestREDMarkingCurve(t *testing.T) {
	cfg := REDConfig{Limit: 100, MinTh: 5, MaxTh: 15, MaxP: 0.1, Wq: 1, Mark: true, Gentle: true}
	ramp := func(l float64) float64 {
		switch {
		case l < cfg.MinTh:
			return 0
		case l < cfg.MaxTh:
			return cfg.MaxP * (l - cfg.MinTh) / (cfg.MaxTh - cfg.MinTh)
		case l < 2*cfg.MaxTh:
			return cfg.MaxP + (1-cfg.MaxP)*(l-cfg.MaxTh)/cfg.MaxTh
		}
		return 1
	}
	const arrivals = 30000
	for level := 0; level <= 2*int(cfg.MaxTh)+2; level++ {
		q := NewRED(cfg, 12*sim.Microsecond, sim.NewRNG(int64(7+level)))
		for q.Len() < level {
			q.Enqueue(0, dataPkt(true))
		}
		marks, last := 0, -1
		var gaps []float64
		for i := 0; i < arrivals; i++ {
			p := dataPkt(true)
			if !q.Enqueue(0, p) {
				t.Fatalf("level %d: arrival %d dropped", level, i)
			}
			q.Dequeue(0)
			if !p.CE {
				continue
			}
			marks++
			if last >= 0 {
				gaps = append(gaps, float64(i-last))
			}
			last = i
		}
		pb := ramp(float64(level))
		switch {
		case pb == 0:
			if marks != 0 {
				t.Errorf("level %d (pb 0): %d of %d arrivals marked", level, marks, arrivals)
			}
			continue
		case pb == 1:
			if marks != arrivals {
				t.Errorf("level %d (pb 1): %d of %d arrivals marked", level, marks, arrivals)
			}
			continue
		}
		n := math.Floor(1/pb + 1e-9)
		mean := pb*n*(n+1)/2 + (1-n*pb)*(n+1)
		sq := pb*n*(n+1)*(2*n+1)/6 + (1-n*pb)*(n+1)*(n+1)
		tol := 5 * math.Sqrt((sq-mean*mean)/float64(len(gaps)))
		var sum float64
		for _, g := range gaps {
			sum += g
		}
		if got := sum / float64(len(gaps)); math.Abs(got-mean) > tol {
			t.Errorf("level %d (pb %.3f): mean gap %.3f over %d gaps, uniformized RED gives %.3f ± %.3f",
				level, pb, got, len(gaps), mean, tol)
		}
		if pb <= 0.25 && math.Abs(1/pb-mean) <= tol {
			t.Errorf("level %d (pb %.3f): the interval %.3f ± %.3f cannot tell uniformized from Bernoulli marking (%.3f)",
				level, pb, mean, tol, 1/pb)
		}
	}
}
