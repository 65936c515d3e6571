package mptcp

import (
	"xmp/internal/arena"
	"xmp/internal/cc"
	"xmp/internal/core"
)

// Algorithm selects the congestion-control scheme of a flow: an index
// into the table below.
type Algorithm int

// Supported schemes. The trailing paper names: XMP-x and LIA-y are the
// multipath schemes of Tables 1–3; DCTCP and TCP are the single-path
// baselines.
const (
	AlgXMP Algorithm = iota
	AlgLIA
	AlgOLIA
	// AlgAMP is the Adaptive Multi-Path controller of arXiv 1707.00322:
	// ECN-driven like DCTCP but cutting by the instantaneous per-window
	// marked fraction, with a semi-coupled increase (see cc.AMP).
	AlgAMP
	// AlgUncoupledBOS runs BOS with a fixed δ=1 on every subflow — no
	// TraSh coupling. Ablation for the fairness experiments.
	AlgUncoupledBOS
	AlgDCTCP
	AlgRenoECN
	AlgReno
)

// algorithm is one row of the table: everything the program knows about a
// scheme apart from its controller's own code. A new scheme is one
// controller, one row here and one facade constant in xmp.go.
type algorithm struct {
	// name is the paper's name for the scheme — what labels, scenario
	// specs and result tables call it.
	name string
	// multipath: the scheme supports more than one subflow.
	multipath bool
	// echo is the receiver feedback mode the controller needs.
	echo cc.EchoMode
	// takesBeta: the controller reads Options.Beta (the "/bN" label
	// suffix). Labels carry a β only for these rows, so no config hash
	// covers a parameter the cell ignores.
	takesBeta bool
	// controller builds one subflow's controller; m has just joined g.
	// Built-in rows carve it from g.Slabs (arena.Carve), so a flow arena
	// allocates no controller one by one.
	controller func(icw, beta int, g *cc.FlowGroup, m *cc.Member) cc.Controller
}

// algorithms is indexed by Algorithm, in the order of the constants above.
var algorithms = []algorithm{
	{"XMP", true, cc.EchoCounter, true, func(icw, beta int, g *cc.FlowGroup, m *cc.Member) cc.Controller {
		return core.InitBOS(arena.Carve[core.BOS](g.Slabs), icw, beta, g, m)
	}},
	{"LIA", true, cc.EchoNone, false, func(icw, _ int, g *cc.FlowGroup, m *cc.Member) cc.Controller {
		return initLIA(arena.Carve[LIA](g.Slabs), icw, g, m)
	}},
	{"OLIA", true, cc.EchoNone, false, func(icw, _ int, g *cc.FlowGroup, m *cc.Member) cc.Controller {
		return initOLIA(arena.Carve[OLIA](g.Slabs), icw, g, m)
	}},
	{"AMP", true, cc.EchoDCTCP, false, func(icw, _ int, g *cc.FlowGroup, m *cc.Member) cc.Controller {
		return cc.InitAMP(arena.Carve[cc.AMP](g.Slabs), icw, g, m)
	}},
	{"BOS-uncoupled", true, cc.EchoCounter, true, func(icw, beta int, g *cc.FlowGroup, _ *cc.Member) cc.Controller {
		return core.InitBOS(arena.Carve[core.BOS](g.Slabs), icw, beta, nil, nil)
	}},
	{"DCTCP", false, cc.EchoDCTCP, false, func(icw, _ int, g *cc.FlowGroup, _ *cc.Member) cc.Controller {
		return cc.InitDCTCP(arena.Carve[cc.DCTCP](g.Slabs), icw, cc.DefaultG)
	}},
	{"TCP-ECN", false, cc.EchoStandard, false, func(icw, _ int, g *cc.FlowGroup, _ *cc.Member) cc.Controller {
		return cc.InitReno(arena.Carve[cc.Reno](g.Slabs), icw, true)
	}},
	{"TCP", false, cc.EchoNone, false, func(icw, _ int, g *cc.FlowGroup, _ *cc.Member) cc.Controller {
		return cc.InitReno(arena.Carve[cc.Reno](g.Slabs), icw, false)
	}},
}

// unknown is the row of an Algorithm value outside the table; New panics
// on its nil controller.
var unknown = algorithm{name: "unknown"}

func (a Algorithm) row() *algorithm {
	if a < 0 || int(a) >= len(algorithms) {
		return &unknown
	}
	return &algorithms[a]
}

// ParseAlgorithm is the inverse of String.
func ParseAlgorithm(name string) (Algorithm, bool) {
	for a := range algorithms {
		if algorithms[a].name == name {
			return Algorithm(a), true
		}
	}
	return 0, false
}

// String names the algorithm as the paper does.
func (a Algorithm) String() string { return a.row().name }

// Multipath reports whether the algorithm supports more than one subflow.
func (a Algorithm) Multipath() bool { return a.row().multipath }

// EchoMode returns the receiver feedback mode the algorithm requires.
func (a Algorithm) EchoMode() cc.EchoMode { return a.row().echo }

// TakesBeta reports whether the algorithm reads Options.Beta.
func (a Algorithm) TakesBeta() bool { return a.row().takesBeta }
