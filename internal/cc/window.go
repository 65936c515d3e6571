package cc

// RenoWindow is the float-valued Reno window every loss-halving controller
// here is built on — Reno, DCTCP, AMP, and mptcp's LIA and OLIA embed it,
// the way each Linux coupled controller is a tcp_congestion_ops that
// overrides cong_avoid and reuses Reno's slow start and ssthresh. It owns
// what they share: the floored Window, the slow-start test, halving on
// fast retransmit and collapse on RTO. What an embedder adds is what its
// paper says is different: its congestion-avoidance increase, its reaction
// to ECN echoes, and the state it publishes to its FlowGroup.
type RenoWindow struct {
	Cwnd, Ssthresh float64
}

// Init restores the as-constructed window: initialCwnd floored at
// MinWindow, slow-start threshold effectively unbounded.
func (w *RenoWindow) Init(initialCwnd int) {
	w.Cwnd = float64(max(initialCwnd, MinWindow))
	w.Ssthresh = DefaultSsthresh
}

// Window implements Controller.
func (w *RenoWindow) Window() int { return max(int(w.Cwnd), MinWindow) }

// SlowStart reports whether the next ACKed segment grows the window by a
// whole segment rather than by the controller's congestion-avoidance step.
func (w *RenoWindow) SlowStart() bool { return w.Cwnd < w.Ssthresh }

// Halve is the fast-retransmit response: ssthresh and cwnd to half the
// window, no lower than two segments.
func (w *RenoWindow) Halve() {
	w.Ssthresh = max(w.Cwnd/2, 2)
	w.Cwnd = w.Ssthresh
}

// Collapse is the RTO response: remember half the window as ssthresh and
// restart slow start from MinWindow.
func (w *RenoWindow) Collapse() {
	w.Ssthresh = max(w.Cwnd/2, 2)
	w.Cwnd = MinWindow
}

// OnDupAck implements Controller: the embedders react at the third
// duplicate via OnFastRetransmit; individual dupacks are ignored.
func (w *RenoWindow) OnDupAck(int) {}
