package exp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"xmp/internal/cc"
	"xmp/internal/chaos"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/transport"
	"xmp/internal/workload"
)

// TestCellRun pins what holds for every cell, whichever campaign composed
// it — with or without a lossy fabric and a fault schedule: a connection
// with no path between its endpoints is refused when it is set up, Run
// refuses a fabric where a packet arrived for a connection its host did
// not have, and a lossy cell forks its loss stream off the cell RNG before
// anything else draws, so one config is one result.
func TestCellRun(t *testing.T) {
	plain := CellConfig{K: 4, Seed: 1, Duration: 10 * sim.Millisecond}
	lossy := plain
	lossy.Lossy = true
	lossy.Chaos = &chaos.Schedule{Seed: 7, Events: []chaos.Event{{
		At: 2 * sim.Millisecond, Kind: chaos.LossBurst, Target: "edge0.0->agg0.0", Dur: 5 * sim.Millisecond, P: 0.05,
	}}}
	mustPanic := func(what string, f func(), want ...string) {
		t.Helper()
		defer func() {
			t.Helper()
			msg := fmt.Sprint(recover())
			for _, w := range want {
				if !strings.Contains(msg, w) {
					t.Errorf("%s panicked with %q, want a message naming %q", what, msg, w)
				}
			}
		}()
		f()
	}

	for name, cfg := range map[string]CellConfig{"plain": plain, "lossy under chaos": lossy} {
		c := NewCell(nil, cfg, SchemeXMP2)
		src, dst := c.Base.Net.Host(0), c.Base.Net.Host(5)
		mustPanic(name+": a connection to an unowned address", func() {
			transport.NewConn(c.Net.Eng, transport.Options{
				ID: c.Base.Net.NextConnID(), Src: src, Dst: dst, DstAddr: 1 << 20,
				Controller: cc.NewReno(2, false), Config: c.Base.Transport, Supply: transport.NewFixedSupply(1),
			})
		}, "no path", src.Name, dst.Name, "1048576")
		p := netem.NewDataPacket(1<<20, src.PrimaryAddr(), dst.PrimaryAddr(), 0, 100, true)
		p.SetPath(src.PathTo(dst.PrimaryAddr()))
		src.Send(p)
		mustPanic(name+": Run of a cell that carried a packet for no connection", c.Run, "host "+dst.Name+" misdelivered 1 packets")
	}

	ref := sim.NewRNG(lossy.Seed)
	ref.Fork(99)
	if got, want := NewCell(nil, lossy, SchemeXMP2).Base.RNG.Int63n(1<<62), ref.Int63n(1<<62); got != want {
		t.Errorf("lossy cell RNG is not NewRNG(seed) after exactly Fork(99): next draw %d, want %d", got, want)
	}
	point := func() *ListCell {
		return runChaosCell(nil, ChaosCellConfig{
			Cell:   lossy,
			Scheme: SchemeXMP2,
			Random: &workload.RandomConfig{ParetoMeanBytes: 256 << 10, ParetoMaxBytes: 1 << 20, MaxFlowsPerDst: 4},
			Short:  &workload.ShortFlowsConfig{Alpha: 1.1, MeanBytes: 48 << 10, MinBytes: 1 << 10, MaxBytes: 2 << 20, PerHost: 1},
		})
	}
	a, b := point(), point()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("one lossy config, two points:\n%v\n%v", a.Metrics, b.Metrics)
	}
	if a.Metric("faults") != 1 || a.Metric("flows") == 0 || a.Metric("drops") == 0 {
		t.Errorf("loss burst did not bite a running cell: %v", a.Metrics)
	}
}

// TestStuckCellPanicsNamingFlows: a cell whose senders' NIC goes down for
// good after their flows launch can never drain — the flows retry with
// backed-off RTOs forever. No flow finishes in the first drainBound past
// the horizon, so Run gives up there and panics naming the flows, in
// seconds of wall time.
func TestStuckCellPanicsNamingFlows(t *testing.T) {
	start := time.Now()
	c := NewCell(nil, CellConfig{K: 4, Seed: 1, Duration: sim.Millisecond}, SchemeXMP2)
	var flows []string
	for _, dst := range []int{5, 9} {
		flows = append(flows, workload.LaunchFlow(&c.Base, 0, dst, 1<<20, nil).String())
	}
	nic := c.Base.Net.Host(0).NIC()
	c.Net.Eng.Schedule(100*sim.Microsecond, func() { nic.SetDown(true) })
	defer func() {
		msg := fmt.Sprint(recover())
		want := append([]string{"did not drain", "2 unfinished flows"}, flows...)
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Errorf("Run panicked with %q, want a message naming %q", msg, w)
			}
		}
		if now, limit := c.Net.Eng.Now(), sim.Time(sim.Millisecond).Add(drainBound); now > limit {
			t.Errorf("the drain ran to t=%v, past its deadline %v", now, limit)
		}
		if took := time.Since(start); took > 30*time.Second {
			t.Errorf("the stuck cell took %v of wall time to fail", took)
		}
	}()
	c.Run()
}

// TestSlowDrainIsNotCut: a cell still finishing flows is drained however
// long its tail. One flow's NIC is down until a second drainBound past
// the horizon while another flow finishes in the first: each window sees
// a flow finish, so Run drains the cell instead of panicking at the first
// deadline.
func TestSlowDrainIsNotCut(t *testing.T) {
	c := NewCell(nil, CellConfig{K: 4, Seed: 1, Duration: sim.Millisecond}, SchemeTCP)
	workload.LaunchFlow(&c.Base, 0, 5, 32<<20, nil)
	var done sim.Time
	workload.LaunchFlow(&c.Base, 1, 9, 1<<20, func(f *mptcp.Flow) { done = f.CompletionTime() })
	nic := c.Base.Net.Host(1).NIC()
	c.Net.Eng.Schedule(100*sim.Microsecond, func() { nic.SetDown(true) })
	up := sim.Millisecond + drainBound + 100*sim.Second
	c.Net.Eng.Schedule(up, func() { nic.SetDown(false) })
	c.Run()
	if done < sim.Time(up) {
		t.Errorf("the late flow finished at %v; want it done after its NIC came up at %v", done, sim.Time(up))
	}
}
