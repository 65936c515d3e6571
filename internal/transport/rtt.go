package transport

import (
	"xmp/internal/sim"
)

// rttEstimator implements RFC 6298 smoothed RTT / RTT variance tracking
// with a configurable minimum RTO. Samples come from TCP timestamp echoes
// (the kernel's TCP_CONG_RTT_STAMP microsecond-granularity path the XMP
// module enables), so Karn's ambiguity problem does not arise.
type rttEstimator struct {
	srtt    sim.Duration
	rttvar  sim.Duration
	rto     sim.Duration
	rtoMin  sim.Duration
	sampled bool
}

func newRTTEstimator(cfg Config) rttEstimator {
	return rttEstimator{rto: rtoInit, rtoMin: cfg.RTOMin}
}

// addSample folds one RTT measurement into the estimator.
func (e *rttEstimator) addSample(rtt sim.Duration) {
	if rtt <= 0 {
		return
	}
	if !e.sampled {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.sampled = true
	} else {
		// RFC 6298: beta=1/4, alpha=1/8.
		dev := e.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		e.rttvar = (3*e.rttvar + dev) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	rto := e.srtt + 4*e.rttvar
	if rto < e.rtoMin {
		rto = e.rtoMin
	}
	if rto > rtoMax {
		rto = rtoMax
	}
	e.rto = rto
}

// backoff doubles the RTO after a timeout, capped at the maximum.
func (e *rttEstimator) backoff() {
	e.rto *= 2
	if e.rto > rtoMax {
		e.rto = rtoMax
	}
}

// SRTT returns the smoothed RTT (0 before the first sample).
func (e *rttEstimator) SRTT() sim.Duration { return e.srtt }

// RTO returns the current retransmission timeout.
func (e *rttEstimator) RTO() sim.Duration { return e.rto }
