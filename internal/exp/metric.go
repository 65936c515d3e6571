package exp

import (
	"fmt"
	"slices"
	"strings"

	"xmp/internal/metrics"
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
	Metrics map[string]float64
	// line is the cell's progress line, written where the full result is
	// at hand. It does not travel.
	line string
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

// reduceCell reduces a cell's full result to the named metrics.
func reduceCell(r *FatTreeResult, names []string) *MatrixCell {
	c := &MatrixCell{Row: r.Row, Scheme: r.Scheme, Metrics: make(map[string]float64, len(names))}
	for _, n := range names {
		of, ok := cellMetrics[n]
		if !ok {
			panic(fmt.Sprintf("exp: no metric %q in the metric table", n))
		}
		c.Metrics[n] = of(r)
	}
	var line strings.Builder
	RenderFatTreeRun(&line, r)
	c.line = line.String()
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
// claim reads off a cell, by name.
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
	dist("jct", func(r *FatTreeResult) *metrics.Dist { return r.Collector.JCT }, jctStats)
	for i, c := range categories {
		dist("goodput."+catNames[i], func(r *FatTreeResult) *metrics.Dist { return r.Collector.GoodputByCat[c] }, localStats)
		dist("rtt."+catNames[i], func(r *FatTreeResult) *metrics.Dist { return r.Collector.RTT[c] }, rttStats)
	}
	for _, l := range layers {
		dist("util."+l, func(r *FatTreeResult) *metrics.Dist { return r.UtilByLayer[l] }, utilStats)
	}
	return t
}()
