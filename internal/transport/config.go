// Package transport implements the packet-granularity TCP machinery the
// simulation's flows run over: connection establishment, sliding-window
// data transfer with cumulative and delayed ACKs, duplicate-ACK fast
// retransmit, RFC 6298 retransmission timeouts with the Linux 200 ms
// RTOmin the paper's results depend on, and the three ECN feedback modes
// (standard RFC 3168, DCTCP exact counts, and the BOS two-bit echo).
//
// Congestion control is delegated to a cc.Controller; the transport owns
// reliability and feedback plumbing only. One Conn is one unidirectional
// data transfer (an MPTCP subflow is exactly one Conn).
package transport

import (
	"xmp/internal/cc"
	"xmp/internal/sim"
)

// Config carries the transport parameters of one connection. The zero
// value is not valid; start from DefaultConfig. Its counts are int32 and
// its echo mode a byte, the widths a connection keeps them at, so the
// Config that a flow's recycling key carries is 24 bytes on 64-bit.
type Config struct {
	// RTOMin is the minimum retransmission timeout. The paper attributes
	// LIA's poor small-flow behaviour and the Figure 9 CDF jumps to the
	// Linux default of 200 ms, which is also the initial RTO it may not
	// exceed.
	RTOMin sim.Duration

	// DelAckCount is the number of in-order segments that trigger an
	// immediate cumulative ACK (2 = standard delayed ACKs, each withheld
	// at most 1 ms; 1 disables delaying).
	DelAckCount int32

	// EchoMode selects the receiver's congestion-feedback behaviour; it
	// must agree with the controller (e.g. BOS needs EchoCounter).
	EchoMode cc.EchoMode

	// MaxRetries bounds retransmissions of a single segment before the
	// connection is declared failed (0 = unlimited).
	MaxRetries int32

	// EnableSACK turns on selective acknowledgments (RFC 2018-style, up
	// to 3 blocks per ACK) with scoreboard-driven hole retransmission.
	// Off by default to match the paper's NS-3.14 stack; the SACK
	// ablation bench quantifies what it buys the loss-based schemes.
	EnableSACK bool
}

// The timers no configuration varies.
const (
	// rtoInit is the timeout used before the first RTT sample (applies to
	// SYNs too).
	rtoInit = 200 * sim.Millisecond
	// rtoMax caps exponential backoff.
	rtoMax = 4 * sim.Second
	// delAckTimeout bounds how long an ACK may be withheld.
	delAckTimeout = sim.Millisecond
)

// DefaultConfig returns the paper's transport settings.
func DefaultConfig() Config {
	return Config{
		RTOMin:      200 * sim.Millisecond,
		DelAckCount: 2,
		EchoMode:    cc.EchoNone,
		MaxRetries:  0,
	}
}

// Validate reports configuration errors early.
func (c Config) Validate() error {
	switch {
	case c.RTOMin <= 0:
		return errConfig("RTOMin must be positive")
	case c.RTOMin > rtoInit:
		return errConfig("RTOMin above the initial RTO")
	case c.DelAckCount < 1:
		return errConfig("DelAckCount must be >= 1")
	}
	return nil
}

type errConfig string

func (e errConfig) Error() string { return "transport: " + string(e) }
