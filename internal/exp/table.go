package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"xmp/internal/sim"
)

// This file is the campaign table. A campaign is declared once, as one
// descriptor in the campaigns slice at the bottom; running a shard,
// decoding and merging shard files, rendering, the -json plot export,
// CampaignNames and every list the xmpsim CLI prints (subcommands, `all`,
// the -shard allow-list, usage text) are derived from that entry.

// Plan is a campaign resolved against its knobs: everything RunPlan needs
// to execute any shard of it.
type Plan[T any] struct {
	// Desc canonically describes every knob that shapes cell results; its
	// hash gates merging.
	Desc string
	// Run executes cell i of Cells, self-contained as RunAll requires.
	Cells int
	Run   func(w *Worker, i int) T
	// Progress prints one finished cell's progress line.
	Progress func(w io.Writer, r T)
}

// RunPlan runs the cells of pl that shard owns across jobs workers and
// packages them, with the manifest merge validates, into a shard file of
// the named campaign. progress, if non-nil, receives the per-cell lines in
// cell order. Shard 0/1 is the whole campaign: there is no other path.
func RunPlan[T any](campaign string, pl Plan[T], shard ShardSpec, jobs int, progress io.Writer) *ShardFile[T] {
	var done func(int, T)
	if progress != nil && pl.Progress != nil {
		done = func(_ int, r T) { pl.Progress(progress, r) }
	}
	return &ShardFile[T]{
		Manifest: newManifest(campaign, pl.Desc, shard, pl.Cells),
		Cells:    RunShard(pl.Cells, jobs, shard, pl.Run, done),
	}
}

// describe is the config description of a Go plan: the campaign's name
// and, as JSON, the knobs that shape its cells.
func describe(name string, knobs map[string]any) string {
	desc, err := json.Marshal(knobs)
	if err != nil {
		panic("exp: " + err.Error())
	}
	return name + " " + string(desc)
}

// view is one table a scenario spec's "metrics" list can select by name.
// Reads lists the metrics it reads off a cell, for a family whose cells
// travel as named metrics (MatrixCell, ListCell). A blank line precedes
// each selected view but the first, and the first too with BlankFirst.
type view[R any] struct {
	Name       string
	Render     func(io.Writer, R)
	Reads      []string
	BlankFirst bool
}

// descriptor declares a campaign whose cells are T and whose reassembled
// result — the thing rendered — is R.
type descriptor[T, R any] struct {
	// Doc is the campaign's line in the xmpsim usage text.
	Name, Doc string
	// Plan resolves the campaign against the CLI-level params; nil for the
	// spec-backed campaigns, whose runner internal/scenario attaches.
	Plan func(p RunParams) Plan[T]
	// Assemble rebuilds the result from the cells in campaign order,
	// refusing cells that do not form the campaign's grid or, for a family
	// whose tables declare Reads, that do not carry exactly the metrics
	// reads names.
	Assemble func(cells []T, reads []string) (R, error)
	// Render prints the campaign as `xmpsim <name>` does. Families with
	// selectable tables list Tables instead: the whole campaign is every
	// table in order. Views are more tables a spec can select, never part
	// of the whole campaign.
	Render func(io.Writer, R)
	Tables []view[R]
	Views  []view[R]
	// Plot, if non-nil, writes the -json plot export.
	Plot func(io.Writer, R) error
}

// render prints the selected tables, all of them for an empty selection: a
// spec that lists every table renders as one that lists none.
func (d *descriptor[T, R]) render(w io.Writer, r R, metrics []string) {
	if len(d.Tables) == 0 {
		d.Render(w, r)
		return
	}
	if len(metrics) == 0 {
		for _, t := range d.Tables {
			metrics = append(metrics, t.Name)
		}
	}
	for i, m := range metrics {
		for _, vs := range [][]view[R]{d.Tables, d.Views} {
			for _, v := range vs {
				if v.Name == m {
					if i > 0 || v.BlankFirst {
						fmt.Fprintln(w)
					}
					v.Render(w, r)
				}
			}
		}
	}
}

// reads is the union of the metrics the selected tables and views read,
// each once: what a cell of the selection carries. An empty selection is
// every table.
func (d *descriptor[T, R]) reads(selection []string) (names []string) {
	pick := func(vs []view[R], all bool) {
		for _, v := range vs {
			if !all && !slices.Contains(selection, v.Name) {
				continue
			}
			for _, n := range v.Reads {
				if !slices.Contains(names, n) {
					names = append(names, n)
				}
			}
		}
	}
	pick(d.Tables, len(selection) == 0)
	pick(d.Views, false)
	return names
}

// campaign is a table row: a descriptor with its types erased, or a spec
// of a family declared by spec.
type campaign struct {
	CampaignInfo
	// family, for a campaign declared by spec, names the campaign whose
	// shard files, merge and render its own are.
	family string
	run    CampaignRunner
	decode func(data []byte) (ShardEncoder, error)
	merge  func(files []ShardEncoder) (*MergeResult, error)
}

// CampaignInfo is what the layers above need to list a campaign.
type CampaignInfo struct {
	Name, Doc string
	// Tables names the tables a scenario spec of this family can select,
	// in render order — all of them when it selects none; nil when the
	// campaign renders as one piece. Views names the more it can select.
	Tables, Views []string
	Plot          bool // has a -json plot export
}

func declare[T, R any](d descriptor[T, R]) *campaign {
	c := &campaign{CampaignInfo: CampaignInfo{Name: d.Name, Doc: d.Doc, Plot: d.Plot != nil}}
	for _, t := range d.Tables {
		c.Tables = append(c.Tables, t.Name)
	}
	for _, v := range d.Views {
		c.Views = append(c.Views, v.Name)
	}
	if d.Plan != nil {
		c.run = func(p RunParams, shard ShardSpec, progress io.Writer) (ShardEncoder, error) {
			return RunPlan(d.Name, d.Plan(p), shard, p.Jobs, progress), nil
		}
	}
	c.decode = func(data []byte) (ShardEncoder, error) {
		f := new(ShardFile[T])
		if err := decodeStrict(data, f); err != nil {
			return nil, err
		}
		return f, nil
	}
	c.merge = func(files []ShardEncoder) (*MergeResult, error) {
		typed := make([]*ShardFile[T], len(files))
		for i, f := range files {
			tf, ok := f.(*ShardFile[T])
			if !ok {
				return nil, fmt.Errorf("shard %d/%d: %T is not a %s shard file",
					f.ShardManifest().ShardIndex, f.ShardManifest().ShardCount, f, d.Name)
			}
			typed[i] = tf
		}
		cells, err := MergeShardCells(typed)
		if err != nil {
			return nil, err
		}
		metrics := scenarioMetrics(typed[0].Manifest.Config)
		r, err := d.Assemble(cells, d.reads(metrics))
		if err != nil {
			return nil, fmt.Errorf("%s: %v", d.Name, err)
		}
		res := &MergeResult{
			Campaign: d.Name,
			value:    r,
			render:   func(w io.Writer) { d.render(w, r, metrics) },
		}
		if d.Plot != nil {
			res.plot = func(w io.Writer) error { return d.Plot(w, r) }
		}
		return res, nil
	}
	return c
}

// spec declares a campaign that is a spec of family's: internal/scenario
// attaches its runner, and its shard files carry the family's name, so they
// decode, merge and render as that family's — the -json plot export too.
func spec(name, doc, family string) *campaign {
	return &campaign{CampaignInfo: CampaignInfo{Name: name, Doc: doc}, family: family}
}

// info is the row's CampaignInfo, a spec's plot export its family's.
func (c *campaign) info() CampaignInfo {
	info := c.CampaignInfo
	if c.family != "" {
		info.Plot = lookup(c.family).Plot
	}
	return info
}

// listOf declares a campaign whose result is its cells in cell order.
func listOf[T any](d descriptor[T, []T]) *campaign {
	d.Assemble = func(cells []T, _ []string) ([]T, error) { return cells, nil }
	return declare(d)
}

// method adapts a result type's render method to a descriptor field.
func method[R any](f func(R, io.Writer)) func(io.Writer, R) {
	return func(w io.Writer, r R) { f(r, w) }
}

// matrixFamily is the fabric matrix: the paper's six tables over one
// row x scheme grid, and the sweeps' views of the same grid. Its cells
// carry the metrics the selected tables and views read.
var matrixFamily = descriptor[*MatrixCell, *Matrix]{
	Name:     CampaignMatrix,
	Doc:      "run the full pattern x scheme matrix once; print tables 1,3 + figs 8-11",
	Assemble: assembleMatrix,
	Tables: []view[*Matrix]{
		{"table1", method((*Matrix).RenderTable1), table1Reads, true},
		{"table3", method((*Matrix).RenderTable3), table3Reads, true},
		{"fig8", method((*Matrix).RenderFig8), fig8Reads, true},
		{"fig9", method((*Matrix).RenderFig9), fig9Reads, true},
		{"fig10", method((*Matrix).RenderFig10), fig10Reads, true},
		{"fig11", method((*Matrix).RenderFig11), fig11Reads, true},
	},
	Views: []view[*Matrix]{
		{CampaignSubflow, method((*Matrix).RenderSweep), sweepReads, false},
		{CampaignParams, method((*Matrix).RenderParams), paramsReads, false},
		{CampaignIncast, method((*Matrix).RenderIncastSweep), incastSweepReads, false},
		{CampaignSACK, method((*Matrix).RenderSACK), sackReads, false},
		{CampaignVL2, method((*Matrix).RenderVL2), vl2Reads, false},
		{CampaignTable2, method((*Matrix).RenderTable2), table2Reads, true},
	},
	Plot: func(w io.Writer, m *Matrix) error { return m.WriteJSON(w) },
}

// fctFamily and robustnessFamily are lists of labelled cells, each
// carrying the metrics the selected tables read.
var (
	fctFamily = descriptor[*ListCell, []*ListCell]{
		Name:     CampaignFCT,
		Doc:      "short-flow FCT percentiles: Pareto loops + a 10,240-sender incast burst (TCP/DCTCP/XMP-2)",
		Assemble: assembleList,
		Tables: []view[[]*ListCell]{
			{"summary", RenderFCTSummary, fctSummaryReads, false},
			{"by-size", renderBySize("cell", 14), bySizeReads, false},
		},
	}
	robustnessFamily = descriptor[*ListCell, []*ListCell]{
		Name:     CampaignRobustness,
		Doc:      "schemes under one fault schedule: link flap, switch failure, loss burst, delay, jitter",
		Assemble: assembleList,
		Tables: []view[[]*ListCell]{
			{"summary", RenderRobustnessSummary, robustnessSummaryReads, false},
			{"by-size", renderBySize("scheme", 10), bySizeReads, false},
		},
	}
)

// assembleList returns a list family's cells in cell order, refusing a
// cell that does not carry exactly the metrics reads names.
func assembleList(cells []*ListCell, reads []string) ([]*ListCell, error) {
	for i, c := range cells {
		if c == nil {
			return nil, fmt.Errorf("cell %d is null", i)
		}
		if err := c.Metrics.carries(reads); err != nil {
			return nil, fmt.Errorf("cell %d (%v %v)", i, c, err)
		}
	}
	return cells, nil
}

// campaigns is the table, in the order `xmpsim all` runs it. Each scaled
// duration is the campaign's full-scale run length; it is hashed into the
// config, so shard files from before and after a change refuse to mix.
var campaigns = []*campaign{
	figure(CampaignFig1, "DCTCP vs fixed halving under threshold marking (4-flow bottleneck)", RunFig1,
		func(p RunParams) (panels []Fig1Config) {
			for _, mode := range []Fig1Mode{Fig1DCTCP, Fig1Halving} {
				for _, k := range []int{10, 20} {
					panels = append(panels, Fig1Config{Mode: mode, K: k, Interval: p.scaleT(sim.Second)})
				}
			}
			return panels
		}),
	figure(CampaignFig4, "TraSh traffic shifting on the two-DN testbed (beta 4 vs 6)", RunFig4,
		func(p RunParams) []Fig4Config {
			return []Fig4Config{{4, p.scaleT(2 * sim.Second)}, {6, p.scaleT(2 * sim.Second)}}
		}),
	figure(CampaignFig6, "fairness across subflow counts on one bottleneck (beta 4 vs 6)", RunFig6,
		func(p RunParams) []Fig6Config {
			return []Fig6Config{{4, p.scaleT(sim.Second)}, {6, p.scaleT(sim.Second)}}
		}),
	figure(CampaignFig7, "rate compensation on the 5-bottleneck torus (3 beta/K settings)", RunFig7,
		func(p RunParams) (panels []Fig7Config) {
			for _, setting := range Fig7Settings {
				panels = append(panels, Fig7Config{Setting: setting, Unit: p.scaleT(sim.Second)})
			}
			return panels
		}),
	declare(matrixFamily),
	spec(CampaignTable2, "coexistence goodput: XMP vs LIA/TCP/DCTCP at queue 50/100, both switch models", CampaignMatrix),
	listOf(descriptor[AblationResult, []AblationResult]{
		Name:   CampaignAblation,
		Doc:    "marking-rule / echo-mode / cwr-guard ablations",
		Plan:   AblationPlan,
		Render: RenderAblations,
	}),
	spec(CampaignSubflow, "XMP goodput vs subflow count (1,2,4,8)", CampaignMatrix),
	spec(CampaignParams, "(beta, K) sensitivity grid (the paper's future-work study)", CampaignMatrix),
	spec(CampaignIncast, "job completion vs fan-in (4..32 servers)", CampaignMatrix),
	spec(CampaignSACK, "SACK vs NewReno ablation for the loss-based schemes", CampaignMatrix),
	spec(CampaignVL2, "scheme comparison on a VL2 Clos fabric (generalization)", CampaignMatrix),
	declare(fctFamily),
	declare(robustnessFamily),
	{CampaignInfo: CampaignInfo{Name: CampaignScenario}},
}
