package scenario

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"xmp/internal/chaos"
	"xmp/internal/exp"
	"xmp/internal/sim"
	"xmp/internal/workload"
)

// Resolve validates a parsed spec and returns its canonical resolved
// form: every default explicit, scheme labels canonicalized, timescale
// folded into duration_ms, and a referenced chaos file inlined (relative
// to dir, the spec file's directory; "" means the working directory).
// The resolved spec is what the config hash covers, so:
//
//   - two specs that mean the same experiment hash equal even if one
//     spells defaults out and the other omits them;
//   - any change that could change a cell result — including an edit to a
//     referenced chaos file — changes the hash.
//
// Resolve is idempotent: resolving a resolved spec is the identity. That
// is what lets a dispatch coordinator ship the resolved form to workers,
// which re-resolve without access to the original file tree.
func Resolve(s *Spec, dir string) (*Spec, error) {
	return resolve(s, func(path string) ([]byte, error) {
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, path)
		}
		return os.ReadFile(path)
	})
}

// resolve is Resolve with the chaos-file reader supplied by the caller:
// the file system for spec files, the embedded scenarios for the
// spec-backed campaigns.
func resolve(s *Spec, readFile func(path string) ([]byte, error)) (*Spec, error) {
	r := *s // shallow copy; slices/pointers re-built below

	if r.Name == "" {
		return nil, fmt.Errorf("scenario: name is required")
	}
	switch r.Family {
	case FamilyMatrix, FamilyRobustness, FamilyFCT:
	case "":
		return nil, fmt.Errorf("scenario %s: family is required (matrix, robustness or fct)", r.Name)
	default:
		return nil, fmt.Errorf("scenario %s: unknown family %q (want matrix, robustness or fct)", r.Name, r.Family)
	}

	// Topology and scale default to the Section 5.2 cell.
	def := exp.CellConfig{}.WithDefaults()
	t := TopologySpec{}
	if r.Topology != nil {
		t = *r.Topology
	}
	if t.Kind == "" {
		t.Kind = "fattree"
	}
	switch t.Kind {
	case "fattree":
		if t.K == 0 {
			t.K = def.K
		}
		if t.K < 4 || t.K%2 != 0 {
			return nil, fmt.Errorf("scenario %s: fat-tree k=%d (want even, >= 4)", r.Name, t.K)
		}
	case "vl2":
		if r.Family != FamilyRobustness {
			return nil, fmt.Errorf("scenario %s: topology vl2 is only supported by the robustness family", r.Name)
		}
		if t.K != 0 {
			return nil, fmt.Errorf("scenario %s: k does not apply to vl2", r.Name)
		}
	default:
		return nil, fmt.Errorf("scenario %s: unknown topology kind %q (want fattree or vl2)", r.Name, t.Kind)
	}
	if t.QueueLimit == 0 {
		t.QueueLimit = def.QueueLimit
	}
	if t.MarkThreshold == 0 {
		t.MarkThreshold = def.MarkThreshold
	}
	if t.MarkThreshold >= t.QueueLimit {
		return nil, fmt.Errorf("scenario %s: mark_threshold %d >= queue_limit %d", r.Name, t.MarkThreshold, t.QueueLimit)
	}
	if t.Lossy && r.Family != FamilyRobustness {
		return nil, fmt.Errorf("scenario %s: lossy topology is only supported by the robustness family", r.Name)
	}
	r.Topology = &t

	// Scale, and the timescale fold.
	sc := ScaleSpec{}
	if r.Scale != nil {
		sc = *r.Scale
	}
	if sc.Timescale == 0 {
		sc.Timescale = 1
	}
	if sc.Timescale < 0 {
		return nil, fmt.Errorf("scenario %s: negative timescale %v", r.Name, sc.Timescale)
	}
	if sc.SizeScale == 0 {
		sc.SizeScale = def.SizeScale
	}
	if sc.SizeScale < 1 {
		return nil, fmt.Errorf("scenario %s: sizescale %d < 1", r.Name, sc.SizeScale)
	}
	if sc.SizeScale != def.SizeScale && r.Family != FamilyMatrix {
		return nil, fmt.Errorf("scenario %s: the %s family sizes its flows in bytes; sizescale %d does not apply", r.Name, r.Family, sc.SizeScale)
	}
	if sc.Seed == 0 {
		sc.Seed = def.Seed
	}
	if r.DurationMS < 0 {
		return nil, fmt.Errorf("scenario %s: negative duration_ms %v", r.Name, r.DurationMS)
	}
	if sc.Timescale != 1 {
		if r.DurationMS == 0 {
			// The family defaults, scaled — mirroring the registry's
			// -timescale handling (matrix cells lose their per-pattern
			// defaults and run a uniform scaled horizon).
			switch r.Family {
			case FamilyMatrix:
				r.DurationMS = 200
			default:
				r.DurationMS = float64(exp.ShortFlowHorizon / sim.Millisecond)
			}
		}
		r.DurationMS *= sc.Timescale
		sc.Timescale = 1
	}
	// The horizon becomes a sim.Duration: int64 nanoseconds (this also
	// refuses a fold that overflowed to +Inf, which JSON cannot carry).
	if r.DurationMS*float64(sim.Millisecond) >= math.MaxInt64 {
		return nil, fmt.Errorf("scenario %s: duration_ms %v is past the simulator's clock", r.Name, r.DurationMS)
	}
	r.Scale = &sc

	// Chaos: inline a file reference so the hash covers its content.
	if r.Chaos != nil {
		c := *r.Chaos
		if c.File != "" {
			if len(c.Events) > 0 || c.Seed != 0 {
				return nil, fmt.Errorf("scenario %s: chaos.file excludes inline seed/events", r.Name)
			}
			data, err := readFile(c.File)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: chaos file: %v", r.Name, err)
			}
			var sched chaos.Schedule
			if err := parseStrict(data, &sched); err != nil {
				return nil, fmt.Errorf("scenario %s: chaos file %s: %v", r.Name, c.File, err)
			}
			c = ChaosSpec{Seed: sched.Seed, Events: sched.Events}
		}
		if len(c.Events) == 0 {
			return nil, fmt.Errorf("scenario %s: chaos block with no events", r.Name)
		}
		if err := c.Schedule().Validate(); err != nil {
			return nil, fmt.Errorf("scenario %s: %v", r.Name, err)
		}
		if r.Family == FamilyFCT {
			return nil, fmt.Errorf("scenario %s: the fct family does not take a chaos schedule", r.Name)
		}
		if r.Family == FamilyMatrix {
			for i, e := range c.Events {
				if e.Kind == chaos.LossBurst {
					return nil, fmt.Errorf("scenario %s: chaos event %d: loss-burst needs a lossy topology, which the matrix family does not support", r.Name, i)
				}
			}
		}
		r.Chaos = &c
	}

	// Schemes: parse and canonicalize labels.
	if r.Family == FamilyFCT && len(r.Schemes) != 0 {
		return nil, fmt.Errorf("scenario %s: fct cells carry their scheme per workload; drop the schemes list", r.Name)
	}
	if r.Family != FamilyFCT {
		if len(r.Schemes) == 0 {
			return nil, fmt.Errorf("scenario %s: schemes list is required", r.Name)
		}
		canon := make([]string, len(r.Schemes))
		seen := map[string]bool{}
		for i, label := range r.Schemes {
			sch, err := workload.ParseScheme(label)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %v", r.Name, err)
			}
			canon[i] = workload.SchemeString(sch)
			if seen[canon[i]] {
				return nil, fmt.Errorf("scenario %s: scheme %q listed twice", r.Name, canon[i])
			}
			seen[canon[i]] = true
		}
		r.Schemes = canon
	}

	// Seeds: the robustness replication axis.
	if len(r.Seeds) > 0 && r.Family != FamilyRobustness {
		return nil, fmt.Errorf("scenario %s: the seeds axis is only supported by the robustness family", r.Name)
	}
	if r.Family == FamilyRobustness {
		if len(r.Seeds) == 0 {
			r.Seeds = []int64{sc.Seed}
		}
		seen := map[int64]bool{}
		for _, sd := range r.Seeds {
			if sd == 0 {
				return nil, fmt.Errorf("scenario %s: seed 0 is reserved (the RNG default); use an explicit positive seed", r.Name)
			}
			if seen[sd] {
				return nil, fmt.Errorf("scenario %s: seed %d listed twice", r.Name, sd)
			}
			seen[sd] = true
		}
	}

	// Workloads.
	ws, err := resolveWorkloads(&r)
	if err != nil {
		return nil, err
	}
	r.Workloads = ws

	// Metrics: validate against the family's tables; empty means all.
	if len(r.Metrics) > 0 {
		valid := FamilyTables(r.Family)
		seen := map[string]bool{}
		for _, m := range r.Metrics {
			ok := false
			for _, v := range valid {
				if m == v {
					ok = true
				}
			}
			if !ok {
				return nil, fmt.Errorf("scenario %s: unknown metric table %q for family %s (have %v)", r.Name, m, r.Family, valid)
			}
			if seen[m] {
				return nil, fmt.Errorf("scenario %s: metric table %q listed twice", r.Name, m)
			}
			seen[m] = true
		}
	}

	return &r, nil
}

// FamilyTables returns the metric tables a family can render, in render
// order — the tables its campaign declares. A spec's metrics list must be a
// subset; empty selects all.
func FamilyTables(family string) []string {
	c, _ := exp.LookupCampaign(family)
	return c.Tables
}

// resolveWorkloads applies family defaults and validates each workload's
// kind and parameters.
func resolveWorkloads(r *Spec) ([]WorkloadSpec, error) {
	switch r.Family {
	case FamilyMatrix:
		if len(r.Workloads) == 0 {
			r.Workloads = []WorkloadSpec{{Kind: "permutation"}, {Kind: "random"}, {Kind: "incast"}}
		}
		seen := map[string]bool{}
		for i, w := range r.Workloads {
			if w.Name != "" {
				return nil, fmt.Errorf("scenario %s: workload %d: matrix patterns are labelled by kind; drop the name", r.Name, i)
			}
			switch w.Kind {
			case "permutation", "random", "incast":
			default:
				return nil, fmt.Errorf("scenario %s: workload %d: unknown matrix pattern %q (want permutation, random or incast)", r.Name, i, w.Kind)
			}
			if w != (WorkloadSpec{Kind: w.Kind}) {
				return nil, fmt.Errorf("scenario %s: workload %d: matrix pattern %q takes no parameters (sizes derive from sizescale)", r.Name, i, w.Kind)
			}
			if seen[w.Kind] {
				return nil, fmt.Errorf("scenario %s: matrix pattern %q listed twice", r.Name, w.Kind)
			}
			seen[w.Kind] = true
		}
		return r.Workloads, nil

	case FamilyRobustness:
		if len(r.Workloads) == 0 {
			r.Workloads = []WorkloadSpec{{Kind: "random"}, {Kind: "shortflows"}}
		}
		if len(r.Workloads) > 2 {
			return nil, fmt.Errorf("scenario %s: the robustness family runs at most one random and one shortflows generator", r.Name)
		}
		seen := map[string]bool{}
		out := make([]WorkloadSpec, len(r.Workloads))
		for i, w := range r.Workloads {
			if w.Name != "" {
				return nil, fmt.Errorf("scenario %s: workload %d: robustness generators are labelled by kind; drop the name", r.Name, i)
			}
			if seen[w.Kind] {
				return nil, fmt.Errorf("scenario %s: robustness generator %q listed twice", r.Name, w.Kind)
			}
			seen[w.Kind] = true
			switch w.Kind {
			case "random":
				if err := forbidFields(r.Name, i, &w, "alpha", "per_host", "senders", "response_bytes", "rounds", "scheme", "min_bytes"); err != nil {
					return nil, err
				}
				if w.MeanBytes == 0 {
					w.MeanBytes = 12 << 20
				}
				if w.MaxBytes == 0 {
					w.MaxBytes = 48 << 20
				}
				if w.MaxFlowsPerDst == 0 {
					w.MaxFlowsPerDst = 4
				}
			case "shortflows":
				if err := forbidFields(r.Name, i, &w, "max_flows_per_dst", "senders", "response_bytes", "rounds", "scheme"); err != nil {
					return nil, err
				}
				applyShortFlowDefaults(&w)
			default:
				return nil, fmt.Errorf("scenario %s: workload %d: unknown robustness generator %q (want random or shortflows)", r.Name, i, w.Kind)
			}
			if err := checkPareto(r.Name, i, &w); err != nil {
				return nil, err
			}
			out[i] = w
		}
		return out, nil

	case FamilyFCT:
		if len(r.Workloads) == 0 {
			return nil, fmt.Errorf("scenario %s: the fct family needs at least one named workload cell", r.Name)
		}
		seen := map[string]bool{}
		out := make([]WorkloadSpec, len(r.Workloads))
		for i, w := range r.Workloads {
			if w.Name == "" {
				return nil, fmt.Errorf("scenario %s: workload %d: fct cells need a name", r.Name, i)
			}
			if seen[w.Name] {
				return nil, fmt.Errorf("scenario %s: fct cell %q listed twice", r.Name, w.Name)
			}
			seen[w.Name] = true
			if w.Scheme != "" {
				sch, err := workload.ParseScheme(w.Scheme)
				if err != nil {
					return nil, fmt.Errorf("scenario %s: cell %q: %v", r.Name, w.Name, err)
				}
				w.Scheme = workload.SchemeString(sch)
			}
			switch w.Kind {
			case "shortflows":
				// scheme is forbidden, not ignored: short-flow loops are
				// plain TCP whatever the cell's scheme says.
				if err := forbidFields(r.Name, i, &w, "max_flows_per_dst", "senders", "response_bytes", "rounds", "scheme"); err != nil {
					return nil, err
				}
				applyShortFlowDefaults(&w)
				if err := checkPareto(r.Name, i, &w); err != nil {
					return nil, err
				}
			case "incast-burst":
				if err := forbidFields(r.Name, i, &w, "alpha", "per_host", "max_flows_per_dst", "mean_bytes", "min_bytes", "max_bytes"); err != nil {
					return nil, err
				}
				if w.Senders == 0 {
					w.Senders = 10240
				}
				if w.ResponseBytes == 0 {
					w.ResponseBytes = 4 << 10
				}
				if w.Rounds == 0 {
					w.Rounds = 1
				}
			default:
				return nil, fmt.Errorf("scenario %s: cell %q: unknown fct kind %q (want shortflows or incast-burst)", r.Name, w.Name, w.Kind)
			}
			out[i] = w
		}
		return out, nil
	}
	return nil, fmt.Errorf("scenario %s: unknown family %q", r.Name, r.Family)
}

func applyShortFlowDefaults(w *WorkloadSpec) {
	if w.Alpha == 0 {
		w.Alpha = 1.1
	}
	if w.MeanBytes == 0 {
		w.MeanBytes = 48 << 10
	}
	if w.MinBytes == 0 {
		w.MinBytes = 1 << 10
	}
	if w.MaxBytes == 0 {
		w.MaxBytes = 2 << 20
	}
	if w.PerHost == 0 {
		w.PerHost = 1
	}
}

func checkPareto(name string, i int, w *WorkloadSpec) error {
	if w.MeanBytes <= 0 || w.MaxBytes < w.MeanBytes {
		return fmt.Errorf("scenario %s: workload %d: bad size parameters (mean %d, max %d)", name, i, w.MeanBytes, w.MaxBytes)
	}
	if w.MinBytes < 0 || (w.MinBytes > 0 && w.MinBytes > w.MeanBytes) {
		return fmt.Errorf("scenario %s: workload %d: min_bytes %d exceeds mean_bytes %d", name, i, w.MinBytes, w.MeanBytes)
	}
	// workload.StartShortFlows panics on a shape ≤ 1; reject it here so a
	// bad spec is an error, never a panic mid-cell. random takes no alpha
	// (forbidden above, so 0).
	if w.Alpha != 0 && w.Alpha <= 1 {
		return fmt.Errorf("scenario %s: workload %d: alpha %v (the Pareto shape must exceed 1)", name, i, w.Alpha)
	}
	return nil
}

// forbidFields rejects parameters that do not apply to a workload's kind:
// a spec that sets them is confused, and silently ignoring a knob the
// author believes is live would be worse than an error.
func forbidFields(name string, i int, w *WorkloadSpec, fields ...string) error {
	for _, f := range fields {
		set := false
		switch f {
		case "alpha":
			set = w.Alpha != 0
		case "per_host":
			set = w.PerHost != 0
		case "max_flows_per_dst":
			set = w.MaxFlowsPerDst != 0
		case "senders":
			set = w.Senders != 0
		case "response_bytes":
			set = w.ResponseBytes != 0
		case "rounds":
			set = w.Rounds != 0
		case "scheme":
			set = w.Scheme != ""
		case "mean_bytes":
			set = w.MeanBytes != 0
		case "min_bytes":
			set = w.MinBytes != 0
		case "max_bytes":
			set = w.MaxBytes != 0
		}
		if set {
			return fmt.Errorf("scenario %s: workload %d: %s does not apply to kind %q", name, i, f, w.Kind)
		}
	}
	return nil
}
