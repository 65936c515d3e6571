package cc

// Reno is TCP-Reno congestion control with optional standard-ECN (RFC
// 3168) reaction: slow start, AIMD congestion avoidance (+1 per RTT, halve
// on loss or ECE), fast-retransmit window halving. It is the "TCP" used by
// the paper's small flows and the Table 2 coexistence runs, and the base
// behaviour LIA falls back to on a single path.
type Reno struct {
	RenoWindow
	ecn bool
	// cwrSeq guards one reduction per window for ECE, mirroring the
	// cwr_seq mechanism: no further cuts until snd_una passes it.
	cwrSeq  int64
	reduced bool
}

// NewReno returns a Reno controller. If ecn is true the connection is
// ECN-capable and halves on ECE in addition to loss.
func NewReno(initialCwnd int, ecn bool) *Reno { return InitReno(new(Reno), initialCwnd, ecn) }

// InitReno is NewReno in place: it builds the controller in r, storage
// its caller owns (a flow arena's slab), and returns r.
func InitReno(r *Reno, initialCwnd int, ecn bool) *Reno {
	*r = Reno{ecn: ecn}
	r.Init(initialCwnd)
	return r
}

// Name implements Controller.
func (r *Reno) Name() string {
	if r.ecn {
		return "reno-ecn"
	}
	return "reno"
}

// ECNCapable implements Controller.
func (r *Reno) ECNCapable() bool { return r.ecn }

// OnAck implements Controller.
func (r *Reno) OnAck(a Ack) {
	if r.reduced && a.SndUna >= r.cwrSeq {
		r.reduced = false
	}
	if r.ecn && a.ECNEcho > 0 {
		if !r.reduced {
			r.Halve()
			r.reduced = true
			r.cwrSeq = a.SndNxt
		}
		return
	}
	for i := int64(0); i < a.NewlyAcked; i++ {
		if r.SlowStart() {
			r.Cwnd++ // slow start: +1 per ACKed segment
		} else {
			r.Cwnd += 1 / r.Cwnd // congestion avoidance: ~+1 per RTT
		}
		if r.Cwnd > DefaultSsthresh {
			r.Cwnd = DefaultSsthresh
		}
	}
}

// OnFastRetransmit implements Controller.
func (r *Reno) OnFastRetransmit() { r.Halve() }

// OnRetransmitTimeout implements Controller.
func (r *Reno) OnRetransmitTimeout() {
	r.Collapse()
	r.reduced = false
}

// Reset implements Controller: restore the as-constructed state.
func (r *Reno) Reset(initialCwnd int) {
	*r = Reno{ecn: r.ecn}
	r.Init(initialCwnd)
}
