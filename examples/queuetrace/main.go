// Queuetrace records the bottleneck queue occupancy and a flow's
// congestion window over time for BOS (the paper's controller) vs plain
// TCP-Reno on the same dumbbell, writing plot-ready CSV files. It makes
// the paper's central claim visible in two columns: BOS pins the queue
// near the marking threshold K while Reno saws against the buffer limit.
//
// Run: go run ./examples/queuetrace   (writes bos.csv and reno.csv)
package main

import (
	"fmt"
	"os"

	"xmp"
	"xmp/internal/cc"
	"xmp/internal/core"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/trace"
	"xmp/internal/transport"
)

func main() {
	for _, variant := range []string{"bos", "reno"} {
		run(variant)
	}
	fmt.Println("wrote bos.csv and reno.csv (columns: time_s, queue_pkts, cwnd_segs)")
	fmt.Println("BOS holds queue ~K=10 with a small sawtooth; Reno fills all 100.")
}

func run(variant string) {
	eng := sim.NewEngine()
	// Fast edges so the queue under observation forms at the bottleneck
	// switch, not at the sender's NIC.
	d := topo.NewDumbbell(eng, topo.DumbbellConfig{
		Pairs:              4,
		BottleneckCapacity: netem.Gbps,
		EdgeCapacity:       10 * netem.Gbps,
		HopDelay:           37500 * sim.Nanosecond, // ~225 us base RTT
		BottleneckQueue:    topo.ECNMaker(100, 10),
	})

	var ctrl cc.Controller
	cfg := transport.DefaultConfig()
	switch variant {
	case "bos":
		ctrl = core.NewBOS(2, 4)
		cfg.EchoMode = cc.EchoCounter
	default:
		ctrl = cc.NewReno(2, false)
		cfg.EchoMode = cc.EchoNone
	}
	conn := transport.NewConn(eng, transport.Options{
		ID:         d.NextConnID(),
		Src:        d.Senders[0],
		Dst:        d.Receivers[0],
		Controller: ctrl,
		Config:     cfg,
		Supply:     transport.InfiniteSupply{},
	})
	conn.Start()

	rec := trace.NewRecorder(eng, 100*sim.Microsecond)
	rec.Add(trace.QueueLen("queue_pkts", d.Forward))
	rec.Add(trace.Cwnd("cwnd_segs", ctrl))
	rec.Start(xmp.Time(200 * sim.Millisecond))
	eng.Run(xmp.Time(200 * sim.Millisecond))

	f, err := os.Create(variant + ".csv")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := rec.WriteCSV(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := d.Forward.Queue().Stats()
	fmt.Printf("%-5s avg queue %.1f pkts, peak %d, drops %d, utilization %.2f\n",
		variant, st.AvgLen(eng.Now()), st.MaxLen, st.DroppedPackets,
		d.Forward.Utilization(eng.Now()))
}
