package transport

import (
	"strings"
	"testing"

	"xmp/internal/cc"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
)

// zeroWindow is a controller whose window has collapsed below one segment.
type zeroWindow struct{ cc.Controller }

func (zeroWindow) Window() int { return 0 }

// TestScoreboardAudit: a finished connection passes the audit at Rebind
// and through its host (what topo.Network.CheckDrained runs); each broken
// invariant panics at both, naming the scoreboard.
func TestScoreboardAudit(t *testing.T) {
	eng := sim.NewEngine()
	d := topo.NewDumbbell(eng, topo.DumbbellConfig{
		Pairs: 1, BottleneckCapacity: netem.Gbps, EdgeCapacity: netem.Gbps,
		HopDelay: 10 * sim.Microsecond, BottleneckQueue: topo.DropTailMaker(100),
	})
	cfg := DefaultConfig()
	cfg.EnableSACK = true
	opts := func() Options {
		return Options{ID: d.NextConnID(), Src: d.Senders[0], Dst: d.Receivers[0],
			Controller: cc.NewReno(2, false), Config: cfg, Supply: NewFixedSupply(20 * netem.MSS)}
	}
	c := NewConn(eng, opts())
	c.Start()
	eng.Run(sim.MaxTime)
	if c.State() != StateDone {
		t.Fatalf("transfer ended in state %v", c.State())
	}
	d.Senders[0].Audit()
	snd := c.sndNxt
	cases := map[string]func(){
		"snd_una past snd_nxt":   func() { c.sndUna = snd + 1 },
		"sacked below snd_una":   func() { c.sacked.Add(snd-2, snd-1) },
		"sacked at snd_nxt":      func() { c.sacked.Add(snd, snd+1) },
		"ooo at rcv_nxt":         func() { c.ooo.Add(c.rcvNxt, c.rcvNxt+1) },
		"window below a segment": func() { c.ctrl = zeroWindow{c.ctrl} },
	}
	for name, corrupt := range cases {
		for _, audit := range []func(){d.Senders[0].Audit, func() { c.Rebind(opts()) }} {
			una, ctrl := c.sndUna, c.ctrl
			corrupt()
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "inconsistent scoreboard") {
						t.Errorf("%s: audit panicked with %q", name, msg)
					}
				}()
				audit()
			}()
			c.sndUna, c.ctrl = una, ctrl
			c.sacked.Clear()
			c.ooo.Clear()
		}
	}
	c.Rebind(opts())
}
