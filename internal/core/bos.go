// Package core implements the paper's contribution: the eXplicit MultiPath
// (XMP) congestion-control scheme, composed of
//
//   - BOS (Buffer Occupancy Suppression, Section 2.1): per-subflow window
//     control against instantaneous-threshold ECN marking — grow cwnd by δ
//     per round, cut by 1/β at most once per round when ACKs echo CE marks,
//     with the exact CE count conveyed in the two-bit ECE+CWR encoding; and
//   - TraSh (Traffic Shifting, Section 2.2): the coupler that retunes each
//     subflow's δ once per round to δ_r = T_r·x_r / (T_min·y) (Equation 9),
//     moving traffic from more- to less-congested paths until the flow
//     perceives equal congestion everywhere (the Congestion Equality
//     Principle).
//
// The analytical results of Section 2 (utility function, equilibrium
// marking probability, the K ≥ BDP/(β−1) bound) are in math.go.
package core

import (
	"fmt"
	"math"

	"xmp/internal/cc"
)

// MinCwnd is the lower bound the paper places on a subflow's congestion
// window ("it is more reasonable to set 2 packets as the lower-bound of
// cwnd", Section 2.2 footnote).
const MinCwnd = 2

// DefaultBeta is the paper's recommended window-reduction divisor for
// 1 Gbps DCN links (β=4, with marking threshold K=10).
const DefaultBeta = 4

// BOS is the Buffer Occupancy Suppression congestion controller, the
// per-subflow half of XMP. It implements cc.Controller and follows the
// paper's Algorithm 1 structure: per-round operations (round delimited by
// snd_una passing beg_seq, Figure 2), per-ack slow start, and the
// REDUCED/NORMAL state machine keyed on cwr_seq that limits window
// reductions to one per round.
//
// Every sender of an XMP incast burst holds one per subflow, so the record
// is packed (TestBOSLayout): the window, ssthresh and β are int32 — β is
// checked at construction, and the window only grows through grow, which
// panics at 2^31-1 segments rather than wrap — and the flags share a word.
type BOS struct {
	delta float64
	adder float64

	// group and member couple the subflow to its flow: once per round δ
	// is Equation 9 evaluated from them (TraSh). Nil for standalone BOS,
	// whose δ stays 1.
	group  *cc.FlowGroup
	member *cc.Member

	begSeq int64
	cwrSeq int64

	rounds     int64
	reductions int64

	cwnd     int32
	ssthresh int32
	beta     int32

	reduced bool
	// DisableCwrGuard removes the once-per-round reduction guard; only for
	// the ablation showing the over-reduction pathology (DESIGN.md §4).
	DisableCwrGuard bool
}

// NewBOS returns a standalone BOS controller with reduction factor 1/beta
// and a fixed δ=1: the single-path BOS of Section 2.1.
func NewBOS(initialCwnd, beta int) *BOS { return InitBOS(new(BOS), initialCwnd, beta, nil, nil) }

// InitBOS builds a BOS controller in b, storage its caller owns (a flow
// arena's slab), and returns b. With a group, the controller is one XMP
// subflow publishing through member, a member of group: TraSh retunes its
// δ every round. With a nil group δ stays 1.
func InitBOS(b *BOS, initialCwnd, beta int, group *cc.FlowGroup, member *cc.Member) *BOS {
	if beta < 2 || beta > math.MaxInt32 {
		panic(fmt.Sprintf("core: beta must be in [2, 2^31-1], got %d", beta))
	}
	*b = BOS{beta: int32(beta), group: group, member: member}
	b.Reset(initialCwnd)
	return b
}

// Name implements cc.Controller.
func (b *BOS) Name() string { return "bos" }

// ECNCapable implements cc.Controller: BOS requires ECN (EchoCounter).
func (b *BOS) ECNCapable() bool { return true }

// Window implements cc.Controller.
func (b *BOS) Window() int { return int(b.cwnd) }

// Beta returns the reduction divisor β.
func (b *BOS) Beta() int { return int(b.beta) }

// Delta returns the current additive-increase parameter δ.
func (b *BOS) Delta() float64 { return b.delta }

// Rounds returns how many rounds have completed (for tests).
func (b *BOS) Rounds() int64 { return b.rounds }

// Reductions returns how many window reductions occurred.
func (b *BOS) Reductions() int64 { return b.reductions }

// OnAck implements cc.Controller, mirroring Algorithm 1.
func (b *BOS) OnAck(a cc.Ack) {
	if b.begSeq < 0 {
		b.begSeq = a.SndNxt
	}
	// Per-round operations: the round ends when the specified packet
	// (beg_seq) is acknowledged.
	if a.SndUna > b.begSeq {
		b.rounds++
		if b.group != nil {
			if d := delta(b.group, b.member); d > 0 {
				b.delta = d
			}
		}
		if !b.reduced && b.cwnd > b.ssthresh {
			// Congestion avoidance: cwnd += δ once per round, carrying the
			// fractional remainder in adder (packet granularity).
			b.adder += b.delta
			inc := int64(b.adder)
			b.grow(inc)
			b.adder -= float64(inc)
		}
		b.begSeq = a.SndNxt
	}
	// Per-ack operations.
	if b.reduced && a.SndUna >= b.cwrSeq {
		b.reduced = false
	}
	if a.ECNEcho > 0 {
		b.reduce(a.SndNxt)
		return
	}
	if !b.reduced && b.cwnd <= b.ssthresh {
		// Slow start: +1 per clean ACK; a marked ACK both reduces and
		// leaves slow start via the ssthresh update in reduce.
		b.grow(a.NewlyAcked)
	}
}

// grow adds n segments to the window, panicking at the int32 limit rather
// than wrapping.
func (b *BOS) grow(n int64) {
	w := int64(b.cwnd) + n
	if w > math.MaxInt32 {
		panic(fmt.Sprintf("core: BOS window of %d segments grows past 2^31-1 by %d", b.cwnd, n))
	}
	b.cwnd = int32(w)
}

// reduce cuts cwnd by 1/β, at most once per round (state REDUCED until
// snd_una reaches cwr_seq).
func (b *BOS) reduce(sndNxt int64) {
	if b.reduced && !b.DisableCwrGuard {
		return
	}
	b.reduced = true
	b.cwrSeq = sndNxt
	b.reductions++
	// Algorithm 1 cuts only in congestion avoidance; a mark during slow
	// start just exits slow start via the ssthresh update below.
	if b.cwnd > b.ssthresh {
		cut := b.cwnd / b.beta
		if cut < 1 {
			cut = 1
		}
		b.cwnd -= cut
		if b.cwnd < MinCwnd {
			b.cwnd = MinCwnd
		}
	}
	// Avoid re-entering slow start.
	b.ssthresh = b.cwnd - 1
}

// OnFastRetransmit implements cc.Controller: packet loss falls back to the
// same 1/β multiplicative cut.
func (b *BOS) OnFastRetransmit() {
	cut := b.cwnd / b.beta
	if cut < 1 {
		cut = 1
	}
	b.cwnd -= cut
	if b.cwnd < MinCwnd {
		b.cwnd = MinCwnd
	}
	b.ssthresh = b.cwnd - 1
}

// OnRetransmitTimeout implements cc.Controller.
func (b *BOS) OnRetransmitTimeout() {
	b.ssthresh = b.cwnd / 2
	if b.ssthresh < MinCwnd {
		b.ssthresh = MinCwnd
	}
	b.cwnd = MinCwnd
	b.reduced = false
}

// Reset implements cc.Controller: restore the as-constructed state,
// retaining β, the coupling to the flow, and the ablation flag — those are
// the controller's configuration, not per-connection state.
func (b *BOS) Reset(initialCwnd int) {
	if initialCwnd < MinCwnd {
		initialCwnd = MinCwnd
	}
	if initialCwnd > math.MaxInt32 {
		panic(fmt.Sprintf("core: BOS initial window %d past 2^31-1", initialCwnd))
	}
	*b = BOS{
		cwnd:            int32(initialCwnd),
		ssthresh:        cc.DefaultSsthresh,
		beta:            b.beta,
		delta:           1,
		group:           b.group,
		member:          b.member,
		begSeq:          -1,
		DisableCwrGuard: b.DisableCwrGuard,
	}
}
