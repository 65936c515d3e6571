package exp

import (
	"fmt"
	"io"

	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/workload"
)

// VL2Point is one scheme's outcome on the VL2 fabric.
type VL2Point struct {
	Scheme      string
	GoodputMbps float64
	RTTMs       float64
	Flows       int
	Drops       int64
}

// VL2Plan plans the Random pattern over a VL2 Clos (the other multi-rooted
// architecture the paper cites) for each Table 1 scheme — the
// generalization experiment showing XMP's behaviour is not an artifact of
// the Fat-Tree. Cell i is Table1Schemes[i]. The Clos has no arity, so -k
// does not reach it.
func VL2Plan(p RunParams) Plan[VL2Point] {
	cell := p.cell(100 * sim.Millisecond)
	cell.VL2, cell.K, cell.RTTStride = true, 0, 8
	return Plan[VL2Point]{
		Desc:  describe(CampaignVL2, map[string]any{"cell": cell.WithDefaults(), "schemes": schemeLabels(Table1Schemes)}),
		Cells: len(Table1Schemes),
		Run: func(w *Worker, i int) VL2Point {
			c := NewCell(w, cell, Table1Schemes[i])
			workload.StartRandom(randomCfg(c.Base, c.cfg.SizeScale))
			c.Run()
			col := c.Base.Collector
			return VL2Point{
				Scheme:      Table1Schemes[i].Label(),
				GoodputMbps: col.Goodput.Mean(),
				RTTMs:       col.RTT[topo.InterPod].Mean(),
				Flows:       col.FlowsCompleted,
				Drops:       c.Drops(),
			}
		},
		Progress: func(w io.Writer, p VL2Point) {
			fmt.Fprintf(w, "vl2 %-6s goodput=%6.1f Mbps rtt=%5.2f ms flows=%d\n",
				p.Scheme, p.GoodputMbps, p.RTTMs, p.Flows)
		},
	}
}

// RenderVL2 prints the comparison.
func RenderVL2(w io.Writer, pts []VL2Point) {
	fmt.Fprintln(w, "VL2 Clos (32 servers): Random-pattern goodput by scheme")
	tb := newTable(w, 10, 16, 12, 8, 10)
	tb.row("scheme", "goodput(Mbps)", "rtt(ms)", "flows", "drops")
	tb.rule()
	for _, p := range pts {
		tb.row(p.Scheme, f1(p.GoodputMbps), f2(p.RTTMs), fmt.Sprintf("%d", p.Flows), fmt.Sprintf("%d", p.Drops))
	}
}
