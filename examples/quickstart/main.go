// Quickstart: one XMP flow with two subflows over the paper's
// two-bottleneck testbed (Figure 3a), next to a single-path DCTCP flow on
// one of the bottlenecks. Shows the core value proposition in ~60 lines:
// the multipath flow pulls bandwidth from BOTH 300 Mbps paths while the
// switch queues stay pinned near the marking threshold.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"

	"xmp"
)

func main() {
	eng := xmp.NewEngine()

	// The Figure 3(a) testbed: two 300 Mbps "DummyNet" bottlenecks with
	// instantaneous-threshold ECN marking at K=15 packets (queue cap 100).
	tb := xmp.NewTestbedA(eng, xmp.TestbedAConfig{
		BottleneckCapacity: 300 * xmp.Mbps,
		EdgeCapacity:       xmp.Gbps,
		HopDelay:           225 * xmp.Microsecond, // ~1.8 ms RTT
		BottleneckQueue:    xmp.ECNQueue(100, 15),
	})

	// An XMP flow from S2 to D2 with one subflow per bottleneck. TraSh
	// couples the subflows; BOS paces each against the ECN marks.
	multi := xmp.NewFlow(eng, xmp.FlowOptions{
		Name: "xmp-2",
		Src:  tb.S[1], Dst: tb.D[1],
		Subflows: []xmp.SubflowSpec{
			{SrcAddr: tb.PathAddr(tb.S[1], 0), DstAddr: tb.PathAddr(tb.D[1], 0)},
			{SrcAddr: tb.PathAddr(tb.S[1], 1), DstAddr: tb.PathAddr(tb.D[1], 1)},
		},
		TotalBytes: -1, // run until we say stop
		Algorithm:  xmp.AlgXMP,
		Transport:  xmp.DefaultTransportConfig(),
		NextConnID: tb.NextConnID,
	})

	// A DCTCP competitor from S1 to D1, pinned to the first bottleneck.
	single := xmp.NewFlow(eng, xmp.FlowOptions{
		Name: "dctcp",
		Src:  tb.S[0], Dst: tb.D[0],
		Subflows: []xmp.SubflowSpec{
			{SrcAddr: tb.PathAddr(tb.S[0], 0), DstAddr: tb.PathAddr(tb.D[0], 0)},
		},
		TotalBytes: -1,
		Algorithm:  xmp.AlgDCTCP,
		Transport:  xmp.DefaultTransportConfig(),
		NextConnID: tb.NextConnID,
	})

	multi.Start()
	single.Start()
	eng.Run(xmp.Time(3 * xmp.Second))

	now := eng.Now()
	fmt.Printf("after %v of simulated time:\n\n", now)
	fmt.Printf("  %-8s goodput %6.1f Mbps  (subflow split: %.1f / %.1f Mbps)\n",
		multi.Name(),
		multi.GoodputBps(now)/1e6,
		float64(multi.Subflow(0).AckedBytes()*8)/now.Seconds()/1e6,
		float64(multi.Subflow(1).AckedBytes()*8)/now.Seconds()/1e6)
	fmt.Printf("  %-8s goodput %6.1f Mbps\n\n", single.Name(), single.GoodputBps(now)/1e6)

	for p := 0; p < 2; p++ {
		st := tb.DNFwd[p].Queue().Stats()
		fmt.Printf("  DN%d queue: avg %.1f pkts (K=15), peak %d, %d marks, %d drops\n",
			p+1, st.AvgLen(now), st.MaxLen, st.MarkedPackets, st.DroppedPackets)
	}
	fmt.Println("\nTraSh moves the XMP flow's traffic onto the less congested DN2")
	fmt.Println("(the Congestion Equality Principle), leaving DN1 to the DCTCP flow,")
	fmt.Println("while BOS pins both queues near the marking threshold.")
}
