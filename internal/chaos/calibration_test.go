package chaos_test

import (
	"math"
	"sort"
	"testing"

	"xmp/internal/chaos"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
)

// probeLink is one 1 Gbps, 20 µs link named "probe" into a sink, on a
// network of its own, with a chaos schedule installed at time 0. Probes
// are full-sized packets sent into the idle link, so each one's delay is
// serialisation + propagation + whatever extra delay the link carried when
// the probe finished serialising.
type probeLink struct {
	eng       *sim.Engine
	link      *netem.Link
	inj       *chaos.Injector
	sent, got []sim.Time
}

func newProbeLink(t *testing.T, sched chaos.Schedule) *probeLink {
	t.Helper()
	eng := sim.NewEngine()
	net := topo.NewNetwork(eng)
	pl := &probeLink{eng: eng}
	pl.link = net.AddLink("probe", netem.Gbps, 20*sim.Microsecond, netem.NewDropTail(16), pl, "probe")
	inj, err := chaos.New(net, sched)
	if err != nil {
		t.Fatal(err)
	}
	inj.Install()
	pl.inj = inj
	return pl
}

func (pl *probeLink) Receive(p *netem.Packet) { pl.got[p.Seq] = pl.eng.Now() }

// probe sends one probe at t, which must not be earlier than the last.
func (pl *probeLink) probe(t sim.Time) {
	pl.eng.Run(t)
	pl.link.Send(netem.NewDataPacket(1, 1, 2, int64(len(pl.sent)), netem.MSS, false))
	pl.sent = append(pl.sent, t)
	pl.got = append(pl.got, -1)
}

// residuals finishes the run and returns each probe's measured delay less
// its serialisation and propagation.
func (pl *probeLink) residuals(t *testing.T) []sim.Duration {
	t.Helper()
	pl.eng.RunAll(1_000_000)
	base := pl.link.TxTime(netem.MaxPacketBytes) + pl.link.Delay()
	res := make([]sim.Duration, len(pl.sent))
	for i := range res {
		if pl.got[i] < 0 {
			t.Fatalf("probe %d sent at %v never arrived", i, pl.sent[i])
		}
		res[i] = pl.got[i].Sub(pl.sent[i]) - base
	}
	return res
}

// TestExtraDelayCalibration measures an extra-delay fault from outside the
// link. Closed form: a probe that finishes serialising in [At, At+Dur) is
// delayed by exactly Extra beyond serialisation and propagation, and one
// that finishes outside it by exactly 0. Tolerance: none — the residual is
// compared to the nanosecond, with probes 1 ns either side of both edges,
// each on a fresh link so no probe queues behind another.
func TestExtraDelayCalibration(t *testing.T) {
	const (
		at    = sim.Millisecond
		dur   = 2 * sim.Millisecond
		extra = 37*sim.Microsecond + 13*sim.Nanosecond
	)
	sched := chaos.Schedule{Events: []chaos.Event{
		{At: at, Kind: chaos.ExtraDelay, Target: "probe", Extra: extra, Dur: dur},
	}}
	tx := newProbeLink(t, sched).link.TxTime(netem.MaxPacketBytes)
	// Each case is the instant the probe finishes serialising.
	for _, c := range []struct {
		finish sim.Duration
		want   sim.Duration
	}{
		{at / 2, 0},
		{at - 1, 0},
		{at + 1, extra},
		{at + dur/2, extra},
		{at + dur - 1, extra},
		{at + dur + 1, 0},
		{2 * (at + dur), 0},
	} {
		pl := newProbeLink(t, sched)
		pl.probe(sim.Time(c.finish - tx))
		if got := pl.residuals(t)[0]; got != c.want {
			t.Errorf("probe finishing serialisation at %v: residual %v, want %v", c.finish, got, c.want)
		}
		if pl.inj.Applied() != 1 {
			t.Errorf("applied %d events, want 1", pl.inj.Applied())
		}
	}
}

// TestJitterCalibration measures a jitter fault from outside the link over
// n periods. Closed form: in period k of the window the residual delay R_k
// is one draw of the discrete uniform distribution on {0, 1 ns, …, Extra},
// with CDF F(x) = (x+1)/(Extra+1), held for the whole period; once the
// window closes it is 0. The test asserts that every residual lies in
// [0, Extra], that the four probes of a period agree (so R changes only
// at period boundaries) and that it does change at nearly every boundary,
// that R is 0 before and after the window, and that the n per-period draws
// pass a one-sample Kolmogorov–Smirnov test against F at α = 0.001:
// D_n ≤ sqrt(ln(2/α)/2)/sqrt(n) = 1.949/sqrt(n), 0.0436 at n = 2000.
func TestJitterCalibration(t *testing.T) {
	const (
		n      = 2000
		at     = sim.Millisecond
		period = 500 * sim.Microsecond
		extra  = 100 * sim.Microsecond
		per    = 4 // probes per period, each well clear of a boundary
	)
	pl := newProbeLink(t, chaos.Schedule{Seed: 11, Events: []chaos.Event{
		{At: at, Kind: chaos.Jitter, Target: "probe", Extra: extra, Period: period, Dur: n * period},
	}})
	tx := pl.link.TxTime(netem.MaxPacketBytes)
	if tx >= period/per/2 {
		t.Fatalf("probe serialisation %v does not fit between probes", tx)
	}
	pl.probe(sim.Time(at / 2))
	for k := 0; k < n; k++ {
		start := sim.Time(at + sim.Duration(k)*period)
		for j := 0; j < per; j++ {
			pl.probe(start.Add(period/(2*per) + sim.Duration(j)*period/per))
		}
	}
	end := sim.Time(at + n*period)
	pl.probe(end.Add(period / 8))
	pl.probe(end.Add(10 * period))
	res := pl.residuals(t)

	if res[0] != 0 {
		t.Errorf("residual before the window: %v, want 0", res[0])
	}
	for i, r := range res[len(res)-2:] {
		if r != 0 {
			t.Errorf("residual after the window (probe %d): %v, want 0", i, r)
		}
	}
	draws := make([]float64, n)
	changes := 0
	for k := 0; k < n; k++ {
		first := res[1+k*per]
		for j, r := range res[1+k*per : 1+(k+1)*per] {
			if r < 0 || r > extra {
				t.Fatalf("period %d probe %d: residual %v outside [0, %v]", k, j, r, extra)
			}
			if r != first {
				t.Fatalf("period %d: residual moved inside the period (%v then %v)", k, first, r)
			}
		}
		if k > 0 && first != res[1+(k-1)*per] {
			changes++
		}
		draws[k] = float64(first)
	}
	// Two equal draws in a row have probability 1/(Extra+1) = 1e-5.
	if changes < n-1-5 {
		t.Errorf("residual changed at %d of %d period boundaries", changes, n-1)
	}

	sort.Float64s(draws)
	cdf := func(x float64) float64 { return (x + 1) / float64(extra+1) }
	d := 0.0
	for i, x := range draws {
		// Against the step CDF: F just below x is F(x-1).
		d = max(d, math.Abs(float64(i+1)/n-cdf(x)), math.Abs(cdf(x-1)-float64(i)/n))
	}
	if crit := math.Sqrt(math.Log(2/0.001)/2) / math.Sqrt(n); d > crit {
		t.Errorf("Kolmogorov–Smirnov D = %.4f over %d periods, critical %.4f at α = 0.001", d, n, crit)
	}
	if pl.inj.Applied() != 1 {
		t.Errorf("applied %d events, want 1", pl.inj.Applied())
	}
}
