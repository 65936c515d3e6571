// Package metrics collects and summarizes experiment measurements: sample
// distributions (CDFs, percentiles), time-binned rate series for the rate
// plots, Jain's fairness index, and small formatting helpers for the
// table/figure renderers in internal/exp.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"xmp/internal/sim"
)

// Dist accumulates float64 samples and answers distribution queries. The
// zero value is ready to use.
type Dist struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Add appends one sample.
func (d *Dist) Add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
	d.sum += v
}

// AddDuration appends a duration sample in milliseconds (the unit the
// paper's RTT and completion-time plots use).
func (d *Dist) AddDuration(v sim.Duration) {
	d.Add(float64(v) / float64(sim.Millisecond))
}

// N returns the sample count.
func (d *Dist) N() int { return len(d.samples) }

// Mean returns the sample mean (0 for no samples).
func (d *Dist) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.sum / float64(len(d.samples))
}

func (d *Dist) sortSamples() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sortSamples()
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[len(d.samples)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(d.samples))))
	if rank < 1 {
		rank = 1
	}
	return d.samples[rank-1]
}

// Min returns the smallest sample.
func (d *Dist) Min() float64 { return d.Percentile(0) }

// Max returns the largest sample.
func (d *Dist) Max() float64 { return d.Percentile(100) }

// FractionAbove returns the fraction of samples strictly above x (e.g.
// the paper's ">300ms" job-completion column).
func (d *Dist) FractionAbove(x float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sortSamples()
	idx := sort.SearchFloat64s(d.samples, math.Nextafter(x, math.Inf(1)))
	return float64(len(d.samples)-idx) / float64(len(d.samples))
}

// CDF returns (x, F(x)) pairs at every distinct sample value, suitable for
// printing the paper's CDF figures.
func (d *Dist) CDF() (xs, fs []float64) {
	if len(d.samples) == 0 {
		return nil, nil
	}
	d.sortSamples()
	n := float64(len(d.samples))
	for i, v := range d.samples {
		if i+1 < len(d.samples) && d.samples[i+1] == v {
			continue
		}
		xs = append(xs, v)
		fs = append(fs, float64(i+1)/n)
	}
	return xs, fs
}

// CDFAt returns F(x): the fraction of samples <= x.
func (d *Dist) CDFAt(x float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sortSamples()
	idx := sort.SearchFloat64s(d.samples, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(d.samples))
}

// Summary renders "mean p10/p50/p90 [min,max] (n)" for logs.
func (d *Dist) Summary() string {
	if d.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("mean=%.2f p10=%.2f p50=%.2f p90=%.2f [%.2f,%.2f] n=%d",
		d.Mean(), d.Percentile(10), d.Percentile(50), d.Percentile(90), d.Min(), d.Max(), d.N())
}

// JainIndex computes Jain's fairness index: (Σx)²/(n·Σx²); 1.0 means
// perfectly equal shares.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += float64(x * x)
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// RateSeries bins byte counts into fixed time intervals and reports the
// rate of each bin — the paper's normalized-rate-vs-time plots.
type RateSeries struct {
	bin   sim.Duration
	bytes []int64
}

// NewRateSeries returns a series with the given bin width.
func NewRateSeries(bin sim.Duration) *RateSeries {
	if bin <= 0 {
		panic("metrics: bin width must be positive")
	}
	return &RateSeries{bin: bin}
}

// Add records n bytes delivered at time t.
func (r *RateSeries) Add(t sim.Time, n int) {
	idx := int(int64(t) / int64(r.bin))
	for len(r.bytes) <= idx {
		r.bytes = append(r.bytes, 0)
	}
	r.bytes[idx] += int64(n)
}

// Bins returns the number of bins recorded.
func (r *RateSeries) Bins() int { return len(r.bytes) }

// BinWidth returns the configured bin duration.
func (r *RateSeries) BinWidth() sim.Duration { return r.bin }

// RateBps returns the average rate of bin i in bits per second.
func (r *RateSeries) RateBps(i int) float64 {
	if i < 0 || i >= len(r.bytes) {
		return 0
	}
	return float64(r.bytes[i]*8) / r.bin.Seconds()
}

// AvgRateBps returns the mean rate over bins [from, to).
func (r *RateSeries) AvgRateBps(from, to int) float64 {
	if to > len(r.bytes) {
		to = len(r.bytes)
	}
	if from >= to {
		return 0
	}
	var total int64
	for i := from; i < to; i++ {
		total += r.bytes[i]
	}
	return float64(total*8) / (r.bin.Seconds() * float64(to-from))
}

// Normalized returns RateBps(i) divided by capacity (bits/sec), the y-axis
// of the paper's normalized-rate plots.
func (r *RateSeries) Normalized(i int, capacityBps float64) float64 {
	if capacityBps <= 0 {
		return 0
	}
	return r.RateBps(i) / capacityBps
}

// Mbps converts bits/sec to the Mbps figures the paper's tables print.
func Mbps(bps float64) float64 { return bps / 1e6 }
