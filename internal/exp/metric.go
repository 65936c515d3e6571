package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"xmp/internal/metrics"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/workload"
)

// A matrix cell leaves its worker as named numbers. This file is the table
// that defines each of them once, as a reduction of one cell's full
// result. Every matrix table and view declares the names it reads
// (matrixFamily in table.go); a spec's metric selection picks tables and
// views, and MatrixPlan reduces each cell to the union of their names
// before it is encoded, so a shard file carries what its tables print.

// MatrixCell is one matrix cell as a shard file carries it: its row, its
// scheme and its metrics by name.
type MatrixCell struct {
	Row
	Scheme  workload.Scheme
	Metrics Metrics
	// run is what the cell's progress line prints of its run, taken where
	// the full result is at hand. It does not travel.
	run runSummary
}

// runSummary is the run a matrix cell's progress line describes.
type runSummary struct {
	flows        int
	goodput, jct float64
	drops, marks int64
	sim          sim.Duration
}

// writeLine prints the cell's one-line progress summary.
func (c *MatrixCell) writeLine(w io.Writer) {
	r := &c.run
	fmt.Fprintf(w, "%-12s %-12s flows=%-5d goodput=%7.1f Mbps  jct(avg)=%6.1f ms  drops=%-6d marks=%-8d sim=%.2fs\n",
		c.Row, workload.SchemeString(c.Scheme), r.flows, r.goodput, r.jct, r.drops, r.marks, r.sim.Seconds())
}

// Metrics are a matrix cell's numbers by name.
type Metrics map[string]float64

// MarshalJSON writes m as encoding/json writes a map[string]float64 —
// names sorted bytewise and escaped alike, each float spelled as its float
// encoder spells it, null for a nil map, an error for NaN or ±Inf — but
// without the two objects per entry that encoding/json's map encoder
// allocates to read a map through reflection.
func (m Metrics) MarshalJSON() ([]byte, error) {
	if m == nil {
		return []byte("null"), nil
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	b := make([]byte, 0, 2+32*len(m))
	b = append(b, '{')
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, n)
		b = append(b, ':')
		v := m[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("exp: metric %q is %v, which JSON cannot carry", n, v)
		}
		b = appendJSONFloat(b, v)
	}
	return append(b, '}'), nil
}

// appendJSONString appends s as encoding/json quotes a string, HTML
// escaping included: metric names are printable ASCII that needs no
// escape, and anything else goes through encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends the finite v as encoding/json spells a float64:
// the shortest round-trip decimal, in exponent form below 1e-6 and from
// 1e21 on, with a one-digit negative exponent unpadded ("1e-7").
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// Metric returns the named metric, panicking with the cell and the name
// if the cell does not carry it. Merge refuses a cell that lacks a
// selected metric, so only a reader of an undeclared name gets here.
func (c *MatrixCell) Metric(name string) float64 {
	v, ok := c.Metrics[name]
	if !ok {
		panic(fmt.Sprintf("exp: cell %s %s carries no metric %q", c.Row, workload.SchemeString(c.Scheme), name))
	}
	return v
}

// carries returns an error unless the cell holds exactly the named
// metrics, naming one it lacks or, failing that, one it holds beyond them.
func (c *MatrixCell) carries(names []string) error {
	for _, n := range names {
		if _, ok := c.Metrics[n]; !ok {
			return fmt.Errorf("%s %s lacks metric %q", c.Row, workload.SchemeString(c.Scheme), n)
		}
	}
	if len(c.Metrics) == len(names) {
		return nil
	}
	var extra []string
	for n := range c.Metrics {
		if !slices.Contains(names, n) {
			extra = append(extra, n)
		}
	}
	return fmt.Errorf("%s %s carries metric %q, which no selected table reads",
		c.Row, workload.SchemeString(c.Scheme), slices.Min(extra))
}

// reduceCell reduces a cell's full result to the named metrics and what
// its progress line prints.
func reduceCell(r *FatTreeResult, names []string) *MatrixCell {
	c := &MatrixCell{Row: r.Row, Scheme: r.Scheme, Metrics: make(Metrics, len(names))}
	for _, n := range names {
		of, ok := cellMetrics[n]
		if !ok {
			panic(fmt.Sprintf("exp: no metric %q in the metric table", n))
		}
		c.Metrics[n] = of(r)
	}
	col := r.Collector
	c.run = runSummary{col.FlowsCompleted, col.Goodput.Mean(), col.JCT.Mean(), r.Drops, r.Marks, r.SimDuration}
	return c
}

// distStat is a statistic of a distribution, named as a metric's suffix.
type distStat struct {
	name string
	of   func(*metrics.Dist) float64
}

var (
	statN        = distStat{"n", func(d *metrics.Dist) float64 { return float64(d.N()) }}
	statMean     = distStat{"mean", (*metrics.Dist).Mean}
	statMin      = distStat{"min", (*metrics.Dist).Min}
	statMax      = distStat{"max", (*metrics.Dist).Max}
	statAbove300 = distStat{"above300", func(d *metrics.Dist) float64 { return d.FractionAbove(300) }}
)

// quantiles are the percentiles qs, named "p5", "p99.9".
func quantiles(qs ...float64) (out []distStat) {
	for _, q := range qs {
		out = append(out, distStat{fmt.Sprintf("p%g", q), func(d *metrics.Dist) float64 { return d.Percentile(q) }})
	}
	return out
}

// cdfPoints are the CDF at each of ts milliseconds, named "cdf@25ms".
func cdfPoints(ts ...float64) (out []distStat) {
	for _, t := range ts {
		out = append(out, distStat{fmt.Sprintf("cdf@%gms", t), func(d *metrics.Dist) float64 { return d.CDFAt(t) }})
	}
	return out
}

// names lists dist's metrics of stats: "jct.n", "jct.mean".
func names(dist string, stats ...distStat) (out []string) {
	for _, s := range stats {
		out = append(out, dist+"."+s.name)
	}
	return out
}

// The localities and layers a cell's distributions are kept by, as metric
// names spell them: "goodput.inter-pod.p90", "util.core.min".
var (
	categories = []topo.Category{topo.InterPod, topo.InterRack, topo.InnerRack}
	catNames   = func() (out []string) {
		for _, c := range categories {
			out = append(out, catName(c))
		}
		return out
	}()
	layers = []string{topo.LayerCore, topo.LayerAggregation, topo.LayerRack}
)

func catName(c topo.Category) string { return strings.ToLower(c.String()) }

// each names dist's statistics in each of parts, a map per part from
// statistic to name: each("rtt", catNames, rttStats)[0]["p95"] is
// "rtt.inter-pod.p95". Renderers look the names up instead of building
// them per cell.
func each(dist string, parts []string, stats []distStat) []map[string]string {
	out := make([]map[string]string, len(parts))
	for i, p := range parts {
		out[i] = make(map[string]string, len(stats))
		for _, s := range stats {
			out[i][s.name] = dist + "." + p + "." + s.name
		}
	}
	return out
}

// values lists the names of ms, sorted.
func values(ms []map[string]string) (out []string) {
	for _, m := range ms {
		for _, n := range m {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

// The statistics the tables print of each distribution.
var (
	goodputStats = append([]distStat{statMean}, quantiles(fig8Quantiles...)...)
	localStats   = append([]distStat{statN}, append(quantiles(10, 50, 90), statMin, statMax)...)
	rttStats     = append([]distStat{statN, statMean}, quantiles(50, 95)...)
	jctStats     = append([]distStat{statN, statMean, statAbove300}, append(quantiles(50, 99), cdfPoints(fig9Points...)...)...)
	utilStats    = append(quantiles(50), statMin, statMax)
)

// cellMetrics is the metric table: every number a matrix table, view or
// claim reads off a cell, by name. The coexist.* names read the coexisting
// half of a Coexist row's hosts, the others its cell's scheme's half; only
// a Coexist row has coexist.* (internal/scenario refuses a selection that
// reads them on any other).
var cellMetrics = func() map[string]func(*FatTreeResult) float64 {
	t := map[string]func(*FatTreeResult) float64{
		"flows":   func(r *FatTreeResult) float64 { return float64(r.Collector.FlowsCompleted) },
		"drops":   func(r *FatTreeResult) float64 { return float64(r.Drops) },
		"servers": func(r *FatTreeResult) float64 { return float64(r.IncastServers) },
	}
	dist := func(name string, d func(*FatTreeResult) *metrics.Dist, stats []distStat) {
		for _, s := range stats {
			t[name+"."+s.name] = func(r *FatTreeResult) float64 { return s.of(d(r)) }
		}
	}
	dist("goodput", func(r *FatTreeResult) *metrics.Dist { return r.Collector.Goodput }, goodputStats)
	dist("coexist.goodput", func(r *FatTreeResult) *metrics.Dist { return r.Coexist.Goodput }, []distStat{statMean})
	dist("jct", func(r *FatTreeResult) *metrics.Dist { return r.Collector.JCT }, jctStats)
	for i, c := range categories {
		dist("goodput."+catNames[i], func(r *FatTreeResult) *metrics.Dist { return r.Collector.GoodputByCat[c] }, localStats)
		dist("rtt."+catNames[i], func(r *FatTreeResult) *metrics.Dist { return r.Collector.RTT[c] }, rttStats)
	}
	for _, l := range layers {
		dist("util."+l, func(r *FatTreeResult) *metrics.Dist { return r.Collector.UtilByLayer[l] }, utilStats)
	}
	return t
}()
