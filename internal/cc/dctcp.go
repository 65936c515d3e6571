package cc

// DCTCP implements Data Center TCP (Alizadeh et al., SIGCOMM 2010), the
// single-path ECN baseline of the paper's evaluation. The receiver conveys
// the exact sequence of CE marks (EchoDCTCP mode); the sender maintains an
// EWMA estimate α of the marked fraction per window and, once per window
// of data, cuts cwnd by α/2 when marks were observed:
//
//	α ← (1-g)·α + g·F        (F = fraction of marked segments this window)
//	cwnd ← cwnd · (1 − α/2)  (on the first marked ACK of a window)
type DCTCP struct {
	RenoWindow
	alpha float64
	g     float64

	// Window-of-data bookkeeping for the α update.
	windowEnd   int64
	ackedInWin  int64
	markedInWin int64
	reduced     bool
	cwrSeq      int64
}

// DefaultG is the EWMA gain recommended by the DCTCP paper (1/16).
const DefaultG = 1.0 / 16

// NewDCTCP returns a DCTCP controller with EWMA gain g (use DefaultG).
func NewDCTCP(initialCwnd int, g float64) *DCTCP { return InitDCTCP(new(DCTCP), initialCwnd, g) }

// InitDCTCP is NewDCTCP in place, in storage its caller owns.
func InitDCTCP(d *DCTCP, initialCwnd int, g float64) *DCTCP {
	if g <= 0 || g > 1 {
		panic("cc: DCTCP gain out of (0,1]")
	}
	d.g = g
	d.Reset(initialCwnd)
	return d
}

// Name implements Controller.
func (d *DCTCP) Name() string { return "dctcp" }

// ECNCapable implements Controller.
func (d *DCTCP) ECNCapable() bool { return true }

// Alpha exposes the current congestion estimate (for tests and traces).
func (d *DCTCP) Alpha() float64 { return d.alpha }

// OnAck implements Controller.
func (d *DCTCP) OnAck(a Ack) {
	if d.windowEnd < 0 {
		d.windowEnd = a.SndNxt
	}
	d.ackedInWin += a.NewlyAcked
	if a.ECNEcho > 0 {
		d.markedInWin += int64(a.ECNEcho)
	}
	// End of an observation window: update α.
	if a.SndUna > d.windowEnd {
		if d.ackedInWin > 0 {
			f := float64(d.markedInWin) / float64(d.ackedInWin)
			if f > 1 {
				f = 1
			}
			d.alpha = float64((1-d.g)*d.alpha) + float64(d.g*f)
		}
		d.ackedInWin, d.markedInWin = 0, 0
		d.windowEnd = a.SndNxt
	}
	if d.reduced && a.SndUna >= d.cwrSeq {
		d.reduced = false
	}
	if a.ECNEcho > 0 {
		if !d.reduced {
			d.reduced = true
			d.cwrSeq = a.SndNxt
			d.Cwnd *= 1 - float64(d.alpha/2)
			if d.Cwnd < MinWindow {
				d.Cwnd = MinWindow
			}
			d.Ssthresh = d.Cwnd
		}
		return
	}
	for i := int64(0); i < a.NewlyAcked; i++ {
		if d.SlowStart() {
			d.Cwnd++
		} else {
			d.Cwnd += 1 / d.Cwnd
		}
	}
}

// OnFastRetransmit implements Controller: loss still halves, as in TCP.
func (d *DCTCP) OnFastRetransmit() { d.Halve() }

// OnRetransmitTimeout implements Controller.
func (d *DCTCP) OnRetransmitTimeout() {
	d.Collapse()
	d.reduced = false
}

// Reset implements Controller: restore the as-constructed state. α starts
// at 1, as in the Linux module: the first-ever mark cuts conservatively (a
// halving) and clean windows decay α from there.
func (d *DCTCP) Reset(initialCwnd int) {
	*d = DCTCP{alpha: 1, g: d.g, windowEnd: -1}
	d.Init(initialCwnd)
}
