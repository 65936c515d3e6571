package chaos

import (
	"fmt"

	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
)

// Injector binds a validated Schedule to a concrete network: every target
// name resolved to its link or switch, every loss-burst target checked to
// carry a Lossy queue. Resolution happens up front so a typo'd schedule
// fails at construction, not two simulated minutes into a campaign cell.
type Injector struct {
	eng     *sim.Engine
	rng     *sim.RNG
	actions []action

	applied   int
	installed bool
}

// action is one schedule event bound to the network: the link or the
// switch's links it acts on, and the state its heal restores.
type action struct {
	Event
	link  *netem.Link   // link kinds
	links []*netem.Link // switch-down: every link attached to the switch
	lossy *netem.Lossy  // loss-burst: the link's queue
	prevP float64       // loss-burst: the probability the burst displaced
	end   sim.Time      // jitter: when the window closes
}

// New resolves sched against net. The injector draws any randomness it
// needs (jitter resampling) from its own RNG seeded by sched.Seed, so the
// fault sequence is independent of how much randomness the workload
// consumes.
func New(net *topo.Network, sched Schedule) (*Injector, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		eng:     net.Eng,
		rng:     sim.NewRNG(sched.Seed),
		actions: make([]action, len(sched.Events)),
	}
	byName := make(map[string]*netem.Link, len(net.Links()))
	for _, li := range net.Links() {
		byName[li.Name] = li.Link
	}
	switchLinks := make(map[string][]*netem.Link)
	for i, e := range sched.Events {
		a := &inj.actions[i]
		a.Event = e
		if e.Kind != SwitchDown {
			l, ok := byName[e.Target]
			if !ok {
				return nil, fmt.Errorf("chaos: event %d: unknown link %q", i, e.Target)
			}
			a.link = l
			if e.Kind == LossBurst {
				q, ok := l.Queue().(*netem.Lossy)
				if !ok {
					return nil, fmt.Errorf("chaos: event %d: link %q queue is not Lossy-wrapped", i, e.Target)
				}
				a.lossy = q
			}
			continue
		}
		if links, done := switchLinks[e.Target]; done {
			a.links = links
			continue
		}
		var sw *netem.Switch
		for _, s := range net.Switches {
			if s.Name == e.Target {
				sw = s
				break
			}
		}
		if sw == nil {
			return nil, fmt.Errorf("chaos: event %d: unknown switch %q", i, e.Target)
		}
		// A dead switch takes down both directions: its egress ports and
		// every link delivering into it.
		attached := sw.EgressLinks()
		for _, li := range net.Links() {
			if li.Dst() == netem.Receiver(sw) {
				attached = append(attached, li.Link)
			}
		}
		switchLinks[e.Target] = attached
		a.links = attached
	}
	return inj, nil
}

// Install schedules every event on the engine's calendar, offsets relative
// to now. Call once, before (or while) the workload runs.
func (inj *Injector) Install() {
	if inj.installed {
		panic("chaos: injector installed twice")
	}
	inj.installed = true
	for i := range inj.actions {
		inj.eng.ScheduleTarget(inj.actions[i].At, inj, opApply, &inj.actions[i])
	}
}

// Applied returns how many scheduled events have fired so far (auto-heals
// and jitter ticks are part of their event, not counted separately).
func (inj *Injector) Applied() int { return inj.applied }

// Injector event ops: a schedule event fires, its window closes, or its
// jitter resamples. The arg of each is the *action.
const (
	opApply sim.Op = iota
	opHeal
	opJitter
)

// OnEvent implements sim.Target, dispatching the injector's typed events.
// Not for direct use.
func (inj *Injector) OnEvent(op sim.Op, arg any) {
	a := arg.(*action)
	switch op {
	case opApply:
		inj.apply(a)
	case opHeal:
		a.heal()
	default:
		inj.tick(a)
	}
}

func (inj *Injector) apply(a *action) {
	inj.applied++
	switch a.Kind {
	case Jitter:
		a.end = inj.eng.Now().Add(a.Dur)
		inj.tick(a)
		return
	case LinkDown:
		a.link.SetDown(true)
	case SwitchDown:
		for _, l := range a.links {
			l.SetDown(true)
		}
	case LossBurst:
		a.prevP = a.lossy.P()
		a.lossy.SetP(a.P)
	case ExtraDelay:
		a.link.SetExtraDelay(a.Extra)
	}
	inj.eng.ScheduleTarget(a.Dur, inj, opHeal, a)
}

// heal undoes a's fault when its window closes.
func (a *action) heal() {
	switch a.Kind {
	case LinkDown:
		a.link.SetDown(false)
	case SwitchDown:
		for _, l := range a.links {
			l.SetDown(false)
		}
	case LossBurst:
		a.lossy.SetP(a.prevP)
	case ExtraDelay:
		a.link.SetExtraDelay(0)
	}
}

// tick resamples a jitter link's extra delay, and every Period until the
// window closes, then clears it. The resample draws come from the
// injector's seeded RNG in calendar order, so two runs with the same
// schedule see the same delay trajectory.
func (inj *Injector) tick(a *action) {
	if inj.eng.Now() >= a.end {
		a.link.SetExtraDelay(0)
		return
	}
	a.link.SetExtraDelay(inj.rng.UniformDuration(0, a.Extra))
	inj.eng.ScheduleTarget(a.Period, inj, opJitter, a)
}
