package netem

import (
	"fmt"
	"math"
	"testing"

	"xmp/internal/sim"
)

// The tests in this file calibrate the emulated links from outside: they
// drive a link or queue with known traffic, observe only what a sink or the
// counters see, and compare with the closed form of the configured model.

// TestLinkTimingExact pins a link's delivery times to the nanosecond over
// the capacities of the evaluation — Figure 7's 0.5, 0.8, 1.2, 1.5 and
// 2 Gbps, the testbeds' 300 Mbps, 1 and 10 Gbps — for bare ACKs and
// full-MSS data packets, at two propagation delays. The closed form, for a
// train of n packets of B wire bytes handed to an idle link of capacity C
// bit/s and propagation delay d at time t0:
//
//	arrival_i = t0 + (i+1)·⌊8·B·10⁹ / C⌋ + d,   i = 0..n-1
//
// Serialization is rounded down to whole nanoseconds (the link's stated
// rule, Link.TxTime), each packet starts serializing the instant its
// predecessor finishes, and propagation overlaps the next serialization.
// Tolerance: none. A single packet is the train with n = 1.
func TestLinkTimingExact(t *testing.T) {
	capacities := []Bps{500 * Mbps, 800 * Mbps, 1200 * Mbps, 1500 * Mbps, 2 * Gbps, 300 * Mbps, Gbps, 10 * Gbps}
	delays := []sim.Duration{20 * sim.Microsecond, 225*sim.Microsecond + 7}
	const t0 = sim.Time(3*sim.Microsecond + 1)
	for _, c := range capacities {
		for _, d := range delays {
			for _, size := range []struct {
				name  string
				bytes int
				pkt   func(i int) *Packet
			}{
				{"ack", HeaderBytes, func(i int) *Packet { return NewAckPacket(1, 0, 1, int64(i)) }},
				{"mss", MaxPacketBytes, func(i int) *Packet { return NewDataPacket(1, 0, 1, int64(i), MSS, false) }},
			} {
				ser := sim.Duration(int64(8*size.bytes) * int64(sim.Second) / int64(c))
				for _, n := range []int{1, 100} {
					eng := sim.NewEngine()
					s := &sink{eng: eng}
					l := NewLink(eng, "l", c, d, NewDropTail(n), s)
					eng.ScheduleAt(t0, func() {
						for i := 0; i < n; i++ {
							l.Send(size.pkt(i))
						}
					})
					eng.Run(sim.MaxTime)
					if len(s.at) != n {
						t.Fatalf("%v %s d=%v: %d of %d packets delivered", c, size.name, d, len(s.at), n)
					}
					for i, at := range s.at {
						want := t0.Add(sim.Duration(i+1)*ser + d)
						if at != want {
							t.Fatalf("%v %s d=%v train of %d: packet %d arrived at %d ns, want t0 + %d·%d + %d = %d ns",
								c, size.name, d, n, i, at, i+1, ser, d, want)
						}
					}
				}
			}
		}
	}
}

// binomialPMF returns the probability mass function of Binomial(n, p),
// evaluated in log space.
func binomialPMF(n int, p float64) func(k int) float64 {
	lgn, _ := math.Lgamma(float64(n + 1))
	lp, lq := math.Log(p), math.Log1p(-p)
	return func(k int) float64 {
		a, _ := math.Lgamma(float64(k + 1))
		b, _ := math.Lgamma(float64(n - k + 1))
		return math.Exp(lgn - a - b + float64(k)*lp + float64(n-k)*lq)
	}
}

// binomialInterval returns the exact two-sided acceptance interval of
// Binomial(n, p) at level 1-alpha: the smallest lo with P(X ≤ lo) > alpha/2
// and the largest hi with P(X ≥ hi) > alpha/2, so that P(X < lo) and
// P(X > hi) are each at most alpha/2. The pmf is summed from each tail
// inwards.
func binomialInterval(n int, p, alpha float64) (lo, hi int) {
	pmf := binomialPMF(n, p)
	cdf := 0.0
	for lo = 0; lo < n; lo++ {
		if cdf += pmf(lo); cdf > alpha/2 {
			break
		}
	}
	tail := 0.0
	for hi = n; hi > 0; hi-- {
		if tail += pmf(hi); tail > alpha/2 {
			break
		}
	}
	return lo, hi
}

// binomialQuantile returns the smallest m with P(X ≤ m) ≥ q for
// X ~ Binomial(n, p).
func binomialQuantile(n int, p, q float64) int {
	pmf := binomialPMF(n, p)
	cdf := 0.0
	for m := 0; m < n; m++ {
		if cdf += pmf(m); cdf >= q {
			return m
		}
	}
	return n
}

// TestLossyBinomialAcrossSeeds calibrates Lossy's drop process against its
// model: each arrival is dropped independently with probability p, so the
// drops among N arrivals are Binomial(N, p). For p in {0.01, 0.05, 0.25}
// and 32 seeds of 20,000 arrivals each:
//   - the pooled count over all 640,000 arrivals lies inside the exact
//     two-sided 99.9 % binomial interval of Binomial(640000, p);
//   - each seed falls outside its own exact 95 % interval with probability
//     at most 0.05, independently, so the number of seeds outside may not
//     exceed the 99.9 % quantile of Binomial(32, 0.05).
//
// A false failure of either check has probability at most 0.001 per p.
func TestLossyBinomialAcrossSeeds(t *testing.T) {
	const seeds, arrivals = 32, 20_000
	maxOutside := binomialQuantile(seeds, 0.05, 0.999)
	for _, p := range []float64{0.01, 0.05, 0.25} {
		seedLo, seedHi := binomialInterval(arrivals, p, 0.05)
		poolLo, poolHi := binomialInterval(seeds*arrivals, p, 0.001)
		pooled, outside := 0, 0
		for seed := int64(1); seed <= seeds; seed++ {
			q := NewLossy(NewDropTail(1), p, sim.NewRNG(seed))
			pkt := NewDataPacket(1, 0, 1, 0, MSS, false)
			for i := 0; i < arrivals; i++ {
				if q.Enqueue(0, pkt) {
					q.Dequeue(0)
				}
			}
			k := int(q.Injected())
			pooled += k
			if k < seedLo || k > seedHi {
				outside++
			}
		}
		if pooled < poolLo || pooled > poolHi {
			t.Errorf("p=%v: %d drops in %d arrivals, outside the exact 99.9%% interval [%d, %d]",
				p, pooled, seeds*arrivals, poolLo, poolHi)
		}
		if outside > maxOutside {
			t.Errorf("p=%v: %d of %d seeds outside their 95%% interval [%d, %d]; at most %d (99.9%% quantile of Binomial(%d, 0.05))",
				p, outside, seeds, seedLo, seedHi, maxOutside, seeds)
		}
	}
}

// TestThresholdECNMarkingStep walks every occupancy of a ThresholdECN
// queue for buffer limits 100 and 250 and several thresholds K. The model
// is a step at K on the occupancy o a packet finds on arrival:
//   - an ECT arrival is dropped iff o ≥ limit, else marked iff o ≥ K;
//   - a non-ECT arrival is dropped iff o ≥ K with DropNonECT, iff
//     o ≥ limit without, and never marked;
//   - MarkedPackets and DroppedPackets count exactly those events.
//
// The queue is brought to o by o ECT arrivals (of which max(0, o-K) are
// marked on the way), then probed once. Tolerance: none.
func TestThresholdECNMarkingStep(t *testing.T) {
	for _, limit := range []int{100, 250} {
		for _, k := range []int{0, 1, 10, 15, 20, 65, limit / 2, limit - 1} {
			for _, strict := range []bool{false, true} {
				for _, ect := range []bool{true, false} {
					for o := 0; o <= limit; o++ {
						name := fmt.Sprintf("limit=%d K=%d DropNonECT=%v ECT=%v occupancy=%d", limit, k, strict, ect, o)
						q := NewThresholdECN(limit, k)
						q.DropNonECT = strict
						for i := 0; i < o; i++ {
							if !q.Enqueue(0, NewDataPacket(1, 0, 1, int64(i), MSS, true)) {
								t.Fatalf("%s: fill arrival %d dropped", name, i)
							}
						}
						wantDrop := o >= limit || (!ect && strict && o >= k)
						wantMark := ect && !wantDrop && o >= k
						p := NewDataPacket(1, 0, 1, int64(o), MSS, ect)
						if accepted := q.Enqueue(0, p); accepted == wantDrop {
							t.Fatalf("%s: accepted=%v, want dropped=%v", name, accepted, wantDrop)
						}
						if p.CE != wantMark {
							t.Fatalf("%s: marked=%v, want %v", name, p.CE, wantMark)
						}
						marks, drops := int64(max(0, o-k)), int64(0)
						if wantMark {
							marks++
						}
						if wantDrop {
							drops++
						}
						if st := q.Stats(); st.MarkedPackets != marks || st.DroppedPackets != drops {
							t.Fatalf("%s: counted %d marks and %d drops, want %d and %d", name, st.MarkedPackets, st.DroppedPackets, marks, drops)
						}
					}
				}
			}
		}
	}
}
