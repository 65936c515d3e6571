// Package cc defines the congestion-controller interface the simulated TCP
// transport drives, the Reno window (RenoWindow) every loss-halving
// controller embeds, and the controllers built on it that need nothing
// from a multipath flow but its FlowGroup: Reno with standard ECN
// semantics, DCTCP, and AMP (arXiv 1707.00322). LIA and OLIA, on the same
// window, live in internal/mptcp.
//
// The paper's own algorithms (BOS and the TraSh coupler, together XMP)
// live in internal/core and implement the same Controller interface; the
// fixed-factor "halving cwnd" sender of Figure 1(c)/(d) is BOS at β=2 with
// no coupler.
package cc

import (
	"xmp/internal/sim"
)

// Ack describes one acknowledgement to a controller. All sequence numbers
// are in MSS-sized segments, matching the packet-granularity windows used
// throughout the paper.
type Ack struct {
	Now sim.Time
	// NewlyAcked is the number of segments this ACK cumulatively
	// acknowledged for the first time (0 for a pure duplicate).
	NewlyAcked int64
	// SndUna and SndNxt are the connection's post-ack send state, used by
	// round-based algorithms (BOS, DCTCP) to delimit rounds.
	SndUna, SndNxt int64
	// ECNEcho is the congestion feedback on this ACK: for the 2-bit BOS
	// echo it is the decoded CE count (0..3); for DCTCP-style feedback the
	// exact count of CE-marked segments covered; for standard ECN 1 if ECE
	// was set.
	ECNEcho int
	// SRTT is the connection's current smoothed RTT (microsecond
	// granularity in the kernel; nanoseconds here). Zero until the first
	// RTT sample.
	SRTT sim.Duration
	// RTTSample is the RTT measured from this ACK's timestamp echo, or 0.
	RTTSample sim.Duration
}

// Controller is the congestion-control state machine of one connection
// (one MPTCP subflow). Implementations are single-threaded, driven by the
// simulation event loop.
type Controller interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Window is the current congestion window in segments; the transport
	// caps its flight size at this value. Must be >= 1.
	Window() int
	// ECNCapable reports whether the connection should negotiate ECN and
	// send ECT-marked data packets.
	ECNCapable() bool
	// OnAck processes a (possibly congestion-marked) acknowledgement that
	// advanced snd_una.
	OnAck(a Ack)
	// OnFastRetransmit fires when the transport enters fast-retransmit
	// loss recovery (third duplicate ACK).
	OnFastRetransmit()
	// OnRetransmitTimeout fires on an RTO; controllers collapse to a
	// minimal window and re-enter slow start.
	OnRetransmitTimeout()
	// Reset returns the controller to its as-constructed state with the
	// given initial window, so the flow arena can recycle a controller
	// into a fresh connection without reallocating it. A reset controller
	// must be indistinguishable from a newly constructed one.
	Reset(initialCwnd int)
}

// EchoMode selects the receiver's congestion-feedback behaviour.
type EchoMode int

const (
	// EchoNone disables ECN feedback (plain TCP).
	EchoNone EchoMode = iota
	// EchoStandard is RFC 3168: ECE latched on every ACK from the first CE
	// until a CWR-flagged data packet arrives.
	EchoStandard
	// EchoCounter is the BOS two-bit echo: each ACK carries the exact
	// count of pending CE marks, at most 3, encoded in ECE+CWR.
	EchoCounter
	// EchoDCTCP carries the exact number of CE-marked segments covered by
	// each ACK (the information DCTCP's receiver state machine conveys).
	EchoDCTCP
)

// String names the echo mode.
func (m EchoMode) String() string {
	switch m {
	case EchoNone:
		return "none"
	case EchoStandard:
		return "standard"
	case EchoCounter:
		return "counter"
	case EchoDCTCP:
		return "dctcp"
	default:
		return "unknown"
	}
}

// EchoCap returns the per-ACK ceiling on the echoed CE count for the mode
// (the BOS two-bit encoding can carry at most 3); the receiver carries any
// excess over to its next ACK.
func (m EchoMode) EchoCap() int {
	switch m {
	case EchoCounter:
		return 3
	case EchoDCTCP:
		return 1 << 30 // effectively uncapped
	case EchoStandard:
		return 1
	default:
		return 0
	}
}

// Common window bounds shared by the implementations.
const (
	// MinWindow is the floor congestion window for the baselines. The
	// paper sets 2 packets as the lower bound for XMP subflows (Section 2,
	// footnote 5); Reno/DCTCP use 1.
	MinWindow = 1
	// DefaultInitialWindow is the initial congestion window in segments.
	DefaultInitialWindow = 2
	// DefaultSsthresh is the effectively-unbounded initial slow-start
	// threshold.
	DefaultSsthresh = 1 << 20
)
