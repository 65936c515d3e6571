// Trafficshift replays the paper's Figure 4 scenario live: an XMP flow
// with one subflow per bottleneck, competitors pinning each path, and
// background flows that load DN1 and then DN2 — printing the subflow
// rates every 250 ms so you can watch TraSh move the traffic.
//
// Run: go run ./examples/trafficshift
package main

import (
	"fmt"
	"strings"

	"xmp"
)

const phase = 2 * xmp.Second // the paper's 10 s epochs, scaled

func main() {
	eng := xmp.NewEngine()
	tb := xmp.NewTestbedA(eng, xmp.TestbedAConfig{
		BottleneckCapacity: 300 * xmp.Mbps,
		EdgeCapacity:       xmp.Gbps,
		HopDelay:           225 * xmp.Microsecond,
		BottleneckQueue:    xmp.ECNQueue(100, 15),
		Background:         1,
	})

	mk := func(name string, src, dst *xmp.Host, paths ...int) *xmp.Flow {
		specs := make([]xmp.SubflowSpec, len(paths))
		for i, p := range paths {
			specs[i] = xmp.SubflowSpec{SrcAddr: tb.PathAddr(src, p), DstAddr: tb.PathAddr(dst, p)}
		}
		return xmp.NewFlow(eng, xmp.FlowOptions{
			Name: name, Src: src, Dst: dst,
			Subflows:   specs,
			TotalBytes: -1,
			Algorithm:  xmp.AlgXMP,
			Transport:  xmp.DefaultTransportConfig(),
			NextConnID: tb.NextConnID,
		})
	}

	flow1 := mk("flow1", tb.S[0], tb.D[0], 0) // pins DN1
	flow3 := mk("flow3", tb.S[2], tb.D[2], 1) // pins DN2
	flow2 := mk("flow2", tb.S[1], tb.D[1], 0, 1)
	flow1.Start()
	flow2.Start()
	flow3.Start()

	bg1 := mk("bg1", tb.BG[0][0].Src, tb.BG[0][0].Dst, 0)
	bg2 := mk("bg2", tb.BG[1][0].Src, tb.BG[1][0].Dst, 1)
	eng.Schedule(1*phase, bg1.Start)
	eng.Schedule(2*phase, bg1.StopSending)
	eng.Schedule(2*phase, bg2.Start)
	eng.Schedule(3*phase, bg2.StopSending)

	fmt.Println("flow2 = XMP, subflow 1 via DN1, subflow 2 via DN2 (300 Mbps each)")
	fmt.Println("background joins DN1 during phase 1 and DN2 during phase 2")
	fmt.Println()
	fmt.Printf("%8s  %22s  %22s  %s\n", "t", "flow2-1 (DN1)", "flow2-2 (DN2)", "event")

	var prev [2]int64
	const tick = 250 * xmp.Millisecond
	var sample func()
	sample = func() {
		now := eng.Now()
		var rates [2]float64
		for s := 0; s < 2; s++ {
			b := flow2.Subflow(s).AckedBytes()
			rates[s] = float64(b-prev[s]) * 8 / tick.Seconds() / 300e6
			prev[s] = b
		}
		event := ""
		switch now {
		case xmp.Time(1 * phase):
			event = "<- background joins DN1"
		case xmp.Time(2 * phase):
			event = "<- bg leaves DN1, joins DN2"
		case xmp.Time(3 * phase):
			event = "<- background leaves"
		}
		fmt.Printf("%8s  %-12s %5.0f%%    %-12s %5.0f%%   %s\n",
			now, bar(rates[0]), 100*rates[0], bar(rates[1]), 100*rates[1], event)
		if now < xmp.Time(4*phase) {
			eng.Schedule(tick, sample)
		}
	}
	eng.Schedule(tick, sample)
	eng.Run(xmp.Time(4 * phase))
}

// bar renders a 12-char utilization bar.
func bar(frac float64) string {
	n := int(frac*12 + 0.5)
	if n < 0 {
		n = 0
	}
	if n > 12 {
		n = 12
	}
	return strings.Repeat("#", n) + strings.Repeat(".", 12-n)
}
