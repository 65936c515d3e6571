package netem

import (
	"math"

	"xmp/internal/sim"
)

// REDConfig parameterizes the classic Floyd/Jacobson RED gateway. It exists
// for two purposes:
//
//  1. the ablation comparing BOS over instantaneous-threshold marking
//     against BOS over EWMA-averaged RED (Section 2.1 argues the EWMA
//     average is the wrong congestion metric in DCNs), and
//  2. the paper's implementation trick (Section 3): RED with Wq=1 and
//     MinTh=MaxTh=K degenerates to the instantaneous-threshold marker, which
//     is how XMP deploys on commodity RED/ECN switches.
type REDConfig struct {
	Limit int // buffer limit in packets
	MinTh float64
	MaxTh float64
	MaxP  float64 // marking probability at MaxTh
	Wq    float64 // EWMA weight for the average queue estimate
	// Mark selects ECN marking (true, requires ECT) vs dropping (false).
	Mark bool
	// Gentle enables the "gentle RED" ramp from MaxP to 1 between MaxTh and
	// 2*MaxTh instead of marking everything above MaxTh.
	Gentle bool
}

// DefaultREDConfig returns a conventional Internet-style configuration for
// a queue of the given limit.
func DefaultREDConfig(limit int) REDConfig {
	return REDConfig{
		Limit: limit,
		MinTh: float64(limit) / 8,
		MaxTh: float64(limit) / 2,
		MaxP:  0.1,
		Wq:    0.002,
		Mark:  true,
	}
}

// DegenerateREDConfig returns the paper's switch configuration: Wq=1 and
// both thresholds at K, which reproduces the instantaneous marking rule on
// RED hardware.
func DegenerateREDConfig(limit, k int) REDConfig {
	return REDConfig{Limit: limit, MinTh: float64(k), MaxTh: float64(k), MaxP: 1, Wq: 1, Mark: true}
}

// RED implements the Random Early Detection queue discipline with ECN
// support.
type RED struct {
	cfg REDConfig
	fifo
	avg       float64
	emptyAt   sim.Time // when the queue last went empty, for idle decay
	idle      bool
	count     int // packets since last mark/drop, for uniformization
	rng       *sim.RNG
	txTimePkt sim.Duration // estimated per-packet service time for idle decay
}

// NewRED returns a RED queue. txTimePerPacket is the bottleneck service
// time of a full packet, used to age the average during idle periods; rng
// drives the marking randomization.
func NewRED(cfg REDConfig, txTimePerPacket sim.Duration, rng *sim.RNG) *RED {
	if cfg.Limit <= 0 {
		panic("netem: RED limit must be positive")
	}
	if cfg.MaxTh < cfg.MinTh {
		panic("netem: RED MaxTh below MinTh")
	}
	if cfg.Wq <= 0 || cfg.Wq > 1 {
		panic("netem: RED Wq out of (0,1]")
	}
	return &RED{cfg: cfg, fifo: newFIFO(cfg.Limit), rng: rng, txTimePkt: txTimePerPacket, count: -1}
}

// updateAvg advances the EWMA estimate on a packet arrival.
func (q *RED) updateAvg(now sim.Time) {
	if q.idle && q.txTimePkt > 0 {
		// Decay the average for the packets that "could have been"
		// transmitted while the queue sat empty (Floyd & Jacobson eq. 3).
		m := float64(now-q.emptyAt) / float64(q.txTimePkt)
		if m > 0 {
			q.avg *= math.Pow(1-q.cfg.Wq, m)
		}
		q.idle = false
	}
	q.avg = float64((1-q.cfg.Wq)*q.avg) + float64(q.cfg.Wq*float64(q.count1()))
}

func (q *RED) count1() int { return q.fifo.count }

// markProbability returns the uniformized marking probability for the
// current average.
func (q *RED) markProbability() float64 {
	avg := q.avg
	cfg := q.cfg
	switch {
	case avg < cfg.MinTh:
		return 0
	case avg < cfg.MaxTh:
		if cfg.MaxTh == cfg.MinTh {
			return 1
		}
		return cfg.MaxP * (avg - cfg.MinTh) / (cfg.MaxTh - cfg.MinTh)
	case cfg.Gentle && avg < 2*cfg.MaxTh:
		return cfg.MaxP + (1-cfg.MaxP)*(avg-cfg.MaxTh)/cfg.MaxTh
	default:
		return 1
	}
}

// Enqueue implements Queue.
func (q *RED) Enqueue(now sim.Time, p *Packet) bool {
	if q.fifo.count >= q.cfg.Limit {
		q.integrate(now)
		q.stats.DroppedPackets++
		return false
	}
	q.updateAvg(now)
	pb := q.markProbability()
	congested := false
	if pb >= 1 {
		congested = true
	} else if pb > 0 {
		// Uniformize inter-mark gaps as in the original RED paper.
		q.count++
		pa := pb / math.Max(1-float64(float64(q.count)*pb), 1e-9)
		if q.rng.Float64() < pa {
			congested = true
		}
	} else {
		q.count = -1
	}
	if congested {
		q.count = -1
		if q.cfg.Mark && p.ECT {
			if !p.CE {
				p.CE = true
				q.stats.MarkedPackets++
			}
		} else {
			q.integrate(now)
			q.stats.DroppedPackets++
			return false
		}
	}
	q.push(now, p)
	return true
}

// Dequeue implements Queue.
func (q *RED) Dequeue(now sim.Time) *Packet {
	p := q.pop(now)
	if q.fifo.count == 0 {
		q.idle = true
		q.emptyAt = now
	}
	return p
}

// Len implements Queue.
func (q *RED) Len() int { return q.fifo.count }

// Bytes implements Queue.
func (q *RED) Bytes() int { return q.bytes }

// Stats implements Queue.
func (q *RED) Stats() QueueStats { return q.stats }

// AvgEstimate exposes the current EWMA average queue length (for tests).
func (q *RED) AvgEstimate() float64 { return q.avg }
