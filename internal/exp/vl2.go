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
// the Fat-Tree. Cell i is schemes[i].
func VL2Plan(schemes []workload.Scheme, duration sim.Duration) Plan[VL2Point] {
	if len(schemes) == 0 {
		schemes = Table1Schemes
	}
	return Plan[VL2Point]{
		Desc:  fmt.Sprintf("vl2 schemes=%v duration=%d", schemeLabels(schemes), int64(duration)),
		Cells: len(schemes),
		Run: func(w *Worker, i int) VL2Point {
			c := NewCell(w, CellConfig{VL2: true, Duration: duration, RTTStride: 8}, schemes[i])
			workload.StartRandom(randomCfg(c.Base, 16))
			c.Run()
			col := c.Base.Collector
			return VL2Point{
				Scheme:      schemes[i].Label(),
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
