package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"xmp/internal/chaos"
	"xmp/internal/exp"
	"xmp/internal/sim"
	"xmp/internal/workload"
)

// Compiled is a scenario lowered onto a campaign cell space. Its shard
// files carry the family's campaign name (which selects the cell type,
// renderer and goldens merge uses) and the scenario's config description
// and hash — the canonical JSON of the fully-resolved spec — so shard sets
// from different specs refuse to merge, and shard sets from the same
// resolved spec merge however it was named: `xmpsim matrix`, `xmpsim run
// scenarios/matrix.json` or a dispatched task.
type Compiled struct {
	// Spec is the resolved spec (Resolve applied: defaults explicit,
	// chaos inlined, timescale folded).
	Spec *Spec
	// JSON is the canonical serialization of Spec; Desc is the manifest
	// config description ("scenario " + JSON) and Hash its SHA-256.
	JSON []byte
	Desc string
	Hash string
	// Campaign is the family's campaign name ("matrix", "robustness",
	// "fct") — what the shard manifests carry.
	Campaign string
	// Labels names every cell, in cell-index order.
	Labels []string

	schemes []workload.Scheme
}

// Compile resolves and lowers a spec. dir is the directory chaos-file
// references resolve against (the spec file's directory; "" = cwd).
func Compile(s *Spec, dir string) (*Compiled, error) {
	r, err := Resolve(s, dir)
	if err != nil {
		return nil, err
	}
	return lower(r)
}

// lower compiles a resolved spec.
func lower(r *Spec) (*Compiled, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %v", r.Name, err)
	}
	c := &Compiled{
		Spec: r,
		JSON: data,
		Desc: "scenario " + string(data),
		// A family is named after the campaign whose cells, tables and
		// goldens it shares (FamilyTables relies on it too).
		Campaign: r.Family,
	}
	c.Hash = exp.HashConfig(c.Desc)
	c.schemes = make([]workload.Scheme, len(r.Schemes))
	for i, label := range r.Schemes {
		sch, err := workload.ParseScheme(label)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %v", r.Name, err) // unreachable: Resolve canonicalized
		}
		c.schemes[i] = sch
	}
	switch r.Family {
	case FamilyMatrix:
		for _, w := range r.Workloads {
			for _, sl := range r.Schemes {
				c.Labels = append(c.Labels, matrixRow(w).String()+"/"+sl)
			}
		}
	case FamilyRobustness:
		// The seed is suffixed only when the seeds axis is real, so a
		// single-seed scenario's rows are labelled by scheme alone (the
		// results_robustness.txt layout).
		for _, sl := range r.Schemes {
			for _, seed := range r.Seeds {
				label := sl
				if len(r.Seeds) > 1 {
					label = fmt.Sprintf("%s@s%d", sl, seed)
				}
				c.Labels = append(c.Labels, label)
			}
		}
	case FamilyFCT:
		for _, w := range r.Workloads {
			c.Labels = append(c.Labels, w.Name)
		}
	}
	return c, nil
}

// CompileFile loads, resolves and compiles a spec file.
func CompileFile(path string) (*Compiled, error) {
	s, dir, err := Load(path)
	if err != nil {
		return nil, err
	}
	return Compile(s, dir)
}

// Cells returns the campaign-wide cell count.
func (c *Compiled) Cells() int { return len(c.Labels) }

// matrixRow is the matrix row a resolved workload describes.
func matrixRow(w WorkloadSpec) exp.Row {
	row := exp.Row{MarkThreshold: w.MarkThreshold, SACK: w.SACK, Servers: w.Servers,
		QueueLimit: w.QueueLimit, StrictNonECT: w.StrictNonECT, Coexist: w.Coexist}
	switch w.Kind {
	case "permutation":
		row.Pattern = exp.Permutation
	case "random":
		row.Pattern = exp.Random
	case "incast":
		row.Pattern = exp.Incast
	default:
		panic(fmt.Sprintf("scenario: unvalidated matrix pattern %q", w.Kind))
	}
	return row
}

// cell lowers the spec's topology, scale, horizon and fault schedule onto
// the cell every family runs. A zero duration keeps the family's default.
func (c *Compiled) cell(seed int64) exp.CellConfig {
	t := c.Spec.Topology
	cfg := exp.CellConfig{
		VL2:           t.Kind == "vl2",
		K:             t.K,
		QueueLimit:    t.QueueLimit,
		MarkThreshold: t.MarkThreshold,
		Lossy:         t.Lossy,
		Seed:          seed,
		SizeScale:     c.Spec.Scale.SizeScale,
		Duration:      sim.Duration(c.Spec.DurationMS * float64(sim.Millisecond)),
	}
	if c.Spec.Chaos != nil {
		sched := c.Spec.Chaos.Schedule()
		cfg.Chaos = &sched
	}
	return cfg
}

// CheckTargets resolves the chaos schedule's fault targets against the
// scenario's topology without running anything — the dry-run half of
// `xmpsim run -validate` and `xmpsim dispatch -campaign FILE.json`, and
// the fail-fast check RunShard performs before it runs a cell, so a worker
// rejects a bad spec with an error instead of panicking mid-cell. It
// builds the fabric to do so. No-op without a chaos block.
func (c *Compiled) CheckTargets() error {
	cfg := c.cell(1)
	if cfg.Chaos == nil {
		return nil
	}
	if _, err := chaos.New(exp.NewCell(nil, cfg, workload.Scheme{}).Net, *cfg.Chaos); err != nil {
		return fmt.Errorf("scenario %s: %v", c.Spec.Name, err)
	}
	return nil
}

// RunShard executes the scenario's cells owned by shard and returns the
// shard file, its manifest stamped with the family's campaign name and
// the scenario's config. The caller validates the shard spec
// (exp.RunCampaign does).
func (c *Compiled) RunShard(shard exp.ShardSpec, jobs int, progress io.Writer) (exp.ShardEncoder, error) {
	// A probe owns no cell, so it builds no fabric to check targets.
	if shard.Index < c.Cells() {
		if err := c.CheckTargets(); err != nil {
			return nil, err
		}
	}
	r := c.Spec
	switch r.Family {
	case FamilyMatrix:
		rows := make([]exp.Row, len(r.Workloads))
		for i, w := range r.Workloads {
			rows[i] = matrixRow(w)
		}
		return exp.RunPlan(c.Campaign, exp.MatrixPlan(c.Desc, c.cell(r.Scale.Seed), rows, c.schemes), shard, jobs, progress), nil

	case FamilyRobustness:
		var random *workload.RandomConfig
		var short *workload.ShortFlowsConfig
		for _, w := range r.Workloads {
			switch w.Kind {
			case "random":
				random = &workload.RandomConfig{
					ParetoMeanBytes: w.MeanBytes,
					ParetoMaxBytes:  w.MaxBytes,
					MaxFlowsPerDst:  w.MaxFlowsPerDst,
				}
			case "shortflows":
				short = shortFlows(w)
			}
		}
		cells := make([]exp.ChaosCellConfig, len(c.Labels))
		for i := range cells {
			si, di := i/len(r.Seeds), i%len(r.Seeds)
			cells[i] = exp.ChaosCellConfig{Cell: c.cell(r.Seeds[di]), Scheme: c.schemes[si], Random: random, Short: short}
		}
		return exp.RunPlan(c.Campaign, exp.ChaosPlan(c.Desc, c.Labels, cells), shard, jobs, progress), nil

	case FamilyFCT:
		cells := make([]exp.FCTCellConfig, len(r.Workloads))
		for i, w := range r.Workloads {
			cfg := exp.FCTCellConfig{Cell: c.cell(r.Scale.Seed)}
			if w.Scheme != "" {
				cfg.Scheme, _ = workload.ParseScheme(w.Scheme) // Resolve canonicalized it
			}
			switch w.Kind {
			case "shortflows":
				cfg.Short = shortFlows(w)
			case "incast-burst":
				cfg.Incast = &workload.IncastBurstConfig{
					Senders:       w.Senders,
					ResponseBytes: w.ResponseBytes,
					Rounds:        w.Rounds,
					UseScheme:     w.Scheme != "",
				}
			}
			cells[i] = cfg
		}
		return exp.RunPlan(c.Campaign, exp.FCTPlan(c.Desc, c.Labels, cells), shard, jobs, progress), nil
	}
	return nil, fmt.Errorf("scenario %s: unknown family %q", r.Name, r.Family)
}

func shortFlows(w WorkloadSpec) *workload.ShortFlowsConfig {
	return &workload.ShortFlowsConfig{
		Alpha:     w.Alpha,
		MeanBytes: w.MeanBytes,
		MinBytes:  w.MinBytes,
		MaxBytes:  w.MaxBytes,
		PerHost:   w.PerHost,
	}
}
