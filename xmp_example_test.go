package xmp_test

import (
	"fmt"

	"xmp"
	"xmp/internal/cc"
)

// ExampleNewFlow shows the minimal multipath transfer: two subflows over
// the Figure 3(a) testbed, run for one simulated second.
func ExampleNewFlow() {
	eng := xmp.NewEngine()
	tb := xmp.NewTestbedA(eng, xmp.TestbedAConfig{
		BottleneckCapacity: 300 * xmp.Mbps,
		HopDelay:           225 * xmp.Microsecond,
		BottleneckQueue:    xmp.ECNQueue(100, 15),
	})
	flow := xmp.NewFlow(eng, xmp.FlowOptions{
		Src: tb.S[0], Dst: tb.D[0],
		Subflows: []xmp.SubflowSpec{
			{SrcAddr: tb.PathAddr(tb.S[0], 0), DstAddr: tb.PathAddr(tb.D[0], 0)},
			{SrcAddr: tb.PathAddr(tb.S[0], 1), DstAddr: tb.PathAddr(tb.D[0], 1)},
		},
		TotalBytes: -1,
		Algorithm:  xmp.AlgXMP,
		Transport:  xmp.DefaultTransportConfig(),
		NextConnID: tb.NextConnID,
	})
	flow.Start()
	eng.Run(xmp.Time(xmp.Second))
	// An XMP flow alone on two 300 Mbps paths pulls well over 500 Mbps.
	fmt.Println(flow.GoodputBps(eng.Now()) > 500e6)
	// Output: true
}

// ExampleNewFlow_amp selects a scheme other than the paper's — any row of
// the algorithm table is one Algorithm constant away — and runs a finite
// two-subflow transfer to completion.
func ExampleNewFlow_amp() {
	eng := xmp.NewEngine()
	tb := xmp.NewTestbedA(eng, xmp.TestbedAConfig{
		BottleneckCapacity: 300 * xmp.Mbps,
		HopDelay:           225 * xmp.Microsecond,
		BottleneckQueue:    xmp.ECNQueue(100, 15),
	})
	flow := xmp.NewFlow(eng, xmp.FlowOptions{
		Src: tb.S[0], Dst: tb.D[0],
		Subflows: []xmp.SubflowSpec{
			{SrcAddr: tb.PathAddr(tb.S[0], 0), DstAddr: tb.PathAddr(tb.D[0], 0)},
			{SrcAddr: tb.PathAddr(tb.S[0], 1), DstAddr: tb.PathAddr(tb.D[0], 1)},
		},
		TotalBytes: 8 << 20,
		Algorithm:  xmp.AlgAMP,
		Transport:  xmp.DefaultTransportConfig(),
		NextConnID: tb.NextConnID,
	})
	flow.Start()
	eng.Run(xmp.Time(xmp.Second))
	fmt.Println(flow.Algorithm(), flow.NumSubflows(), flow.Done(), flow.AckedBytes())
	// Output: AMP 2 true 8388608
}

// ExampleMinMarkingThreshold evaluates Equation 1 for the paper's running
// example: a 1 Gbps link at 225 µs RTT has a BDP of ~19 packets, so
// halving (β=2) needs K ≥ 19 while β=4 tolerates K ≥ 7.
func ExampleMinMarkingThreshold() {
	const bdp = 19.0
	fmt.Println(xmp.MinMarkingThreshold(bdp, 2))
	fmt.Println(xmp.MinMarkingThreshold(bdp, 4))
	// Output:
	// 19
	// 7
}

// ExampleJainIndex: equal shares score 1; a single hog scores 1/n.
func ExampleJainIndex() {
	fmt.Printf("%.2f\n", xmp.JainIndex([]float64{1, 1, 1, 1}))
	fmt.Printf("%.2f\n", xmp.JainIndex([]float64{1, 0, 0, 0}))
	// Output:
	// 1.00
	// 0.25
}

// ExampleNewBOS drives the BOS controller directly: a mark in congestion
// avoidance cuts the window by 1/β at most once per round.
func ExampleNewBOS() {
	b := xmp.NewBOS(40, 4)
	// Leave slow start via a first mark, then take a congestion-avoidance
	// mark in the following round: the window drops by 1/4.
	b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 50, SndNxt: 100, ECNEcho: 1})
	b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 101, SndNxt: 140, ECNEcho: 1})
	fmt.Println(b.Window())
	// Output: 30
}
