package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xmp/internal/chaos"
	"xmp/internal/exp"
	"xmp/internal/sim"
)

// ---------------------------------------------------------------------------
// Strict parsing: unknown fields are rejected at every nesting level.

func TestUnknownFieldsRejected(t *testing.T) {
	docs := map[string]string{
		"top level":    `{"name":"x","family":"matrix","schemes":["DCTCP"],"bogus":1}`,
		"topology":     `{"name":"x","family":"matrix","schemes":["DCTCP"],"topology":{"kind":"fattree","bogus":1}}`,
		"scale":        `{"name":"x","family":"matrix","schemes":["DCTCP"],"scale":{"seed":2,"bogus":1}}`,
		"workload":     `{"name":"x","family":"matrix","schemes":["DCTCP"],"workloads":[{"kind":"random","bogus":1}]}`,
		"chaos":        `{"name":"x","family":"matrix","schemes":["DCTCP"],"chaos":{"seed":1,"bogus":1}}`,
		"chaos event":  `{"name":"x","family":"matrix","schemes":["DCTCP"],"chaos":{"events":[{"at":0,"kind":"link-down","target":"a","bogus":1}]}}`,
		"trailing doc": `{"name":"x","family":"matrix","schemes":["DCTCP"]} {"more":1}`,
	}
	for level, doc := range docs {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: unknown field accepted", level)
		}
	}
	if _, err := Parse([]byte(`{"name":"x","family":"matrix","schemes":["DCTCP"]}`)); err != nil {
		t.Fatalf("clean spec rejected: %v", err)
	}
}

func TestUnknownFieldsRejectedInChaosFile(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"top":   `{"seed":1,"events":[{"at":0,"kind":"link-down","target":"core0.0->agg0.0","dur":1}],"bogus":1}`,
		"event": `{"seed":1,"events":[{"at":0,"kind":"link-down","target":"core0.0->agg0.0","dur":1,"bogus":1}]}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		s := &Spec{Name: "x", Family: FamilyRobustness, Schemes: []string{"DCTCP"},
			Chaos: &ChaosSpec{File: name + ".json"}}
		if _, err := Resolve(s, dir); err == nil {
			t.Errorf("chaos file with unknown %s-level field accepted", name)
		}
	}
}

// ---------------------------------------------------------------------------
// Hash sensitivity: every semantic field change flips the config hash.

func baseRobustnessSpec() *Spec {
	return &Spec{
		Name:     "hash-base",
		Family:   FamilyRobustness,
		Topology: &TopologySpec{Kind: "fattree", Lossy: true},
		Schemes:  []string{"DCTCP", "XMP-2"},
		Chaos: &ChaosSpec{Seed: 11, Events: []chaos.Event{
			{At: 5 * sim.Millisecond, Kind: chaos.LinkDown, Target: "core0.0->agg0.0", Dur: 10 * sim.Millisecond},
			{At: 12 * sim.Millisecond, Kind: chaos.LossBurst, Target: "edge0.0->agg0.0", P: 0.02, Dur: 10 * sim.Millisecond},
		}},
	}
}

func mustCompile(t *testing.T, s *Spec) *Compiled {
	t.Helper()
	c, err := Compile(s, "")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func TestHashSensitivity(t *testing.T) {
	base := mustCompile(t, baseRobustnessSpec()).Hash
	mutations := map[string]func(*Spec){
		"name":            func(s *Spec) { s.Name = "other" },
		"description":     func(s *Spec) { s.Description = "annotated" },
		"duration_ms":     func(s *Spec) { s.DurationMS = 20 },
		"topology.k":      func(s *Spec) { s.Topology.K = 4 },
		"queue_limit":     func(s *Spec) { s.Topology.QueueLimit = 200 },
		"mark_threshold":  func(s *Spec) { s.Topology.MarkThreshold = 20 },
		"lossy":           func(s *Spec) { s.Topology.Lossy = false; s.Chaos.Events = s.Chaos.Events[:1] },
		"seed":            func(s *Spec) { s.Scale = &ScaleSpec{Seed: 2} },
		"timescale":       func(s *Spec) { s.Scale = &ScaleSpec{Timescale: 2} },
		"schemes order":   func(s *Spec) { s.Schemes = []string{"XMP-2", "DCTCP"} },
		"scheme dropped":  func(s *Spec) { s.Schemes = s.Schemes[:1] },
		"scheme beta":     func(s *Spec) { s.Schemes = []string{"DCTCP", "XMP-2/b6"} },
		"seeds axis":      func(s *Spec) { s.Seeds = []int64{1, 2} },
		"workload params": func(s *Spec) { s.Workloads = []WorkloadSpec{{Kind: "random", MeanBytes: 1 << 20}} },
		"chaos seed":      func(s *Spec) { s.Chaos.Seed = 12 },
		"chaos event at":  func(s *Spec) { s.Chaos.Events[0].At++ },
		"chaos event p":   func(s *Spec) { s.Chaos.Events[1].P = 0.03 },
		"metrics":         func(s *Spec) { s.Metrics = []string{"summary"} },
	}
	for field, mutate := range mutations {
		s := baseRobustnessSpec()
		mutate(s)
		if got := mustCompile(t, s).Hash; got == base {
			t.Errorf("%s change did not flip the config hash", field)
		}
	}

	// What a matrix row sets, and the VL2 Clos, on a matrix spec.
	rows := func() *Spec {
		return &Spec{Name: "rows", Family: FamilyMatrix, Schemes: []string{"XMP-2"},
			Workloads: []WorkloadSpec{{Kind: "random"}, {Kind: "incast"}}}
	}
	base = mustCompile(t, rows()).Hash
	for field, mutate := range map[string]func(*Spec){
		"row mark_threshold": func(s *Spec) { s.Workloads[0].MarkThreshold = 5 },
		"row sack":           func(s *Spec) { s.Workloads[0].SACK = true },
		"row servers":        func(s *Spec) { s.Workloads[1].Servers = 16 },
		"row queue_limit":    func(s *Spec) { s.Workloads[0].QueueLimit = 50 },
		"row strict_non_ect": func(s *Spec) { s.Workloads[0].StrictNonECT = true },
		"row coexist":        func(s *Spec) { s.Workloads[0].Coexist = "XMP-2" },
		"topology vl2":       func(s *Spec) { s.Topology = &TopologySpec{Kind: "vl2"} },
	} {
		s := rows()
		mutate(s)
		if got := mustCompile(t, s).Hash; got == base {
			t.Errorf("%s change did not flip the config hash", field)
		}
	}
}

// A one-byte edit to a referenced chaos file must flip the hash even
// though the spec file itself is unchanged.
func TestChaosFileEditFlipsHash(t *testing.T) {
	dir := t.TempDir()
	spec := []byte(`{"name":"x","family":"robustness","topology":{"lossy":true},"schemes":["DCTCP"],"chaos":{"file":"sched.json"}}`)
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	sched := `{"seed":11,"events":[{"at":5000000,"kind":"link-down","target":"core0.0->agg0.0","dur":10000000}]}`
	if err := os.WriteFile(filepath.Join(dir, "sched.json"), []byte(sched), 0o644); err != nil {
		t.Fatal(err)
	}
	c1, err := CompileFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(sched, "10000000", "10000001", 1)
	if err := os.WriteFile(filepath.Join(dir, "sched.json"), []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := CompileFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Hash == c2.Hash {
		t.Fatal("editing the referenced chaos file did not flip the config hash")
	}
	if c2.Spec.Chaos.File != "" {
		t.Fatal("resolved spec still references the chaos file instead of inlining it")
	}
}

// Two spellings of the same experiment — defaults omitted vs spelled out —
// must hash equal.
func TestDefaultsHashEqual(t *testing.T) {
	implicit := &Spec{Name: "m", Family: FamilyMatrix, Schemes: []string{"DCTCP", "XMP-2"}}
	explicit := &Spec{
		Name:     "m",
		Family:   FamilyMatrix,
		Topology: &TopologySpec{Kind: "fattree", K: 8, QueueLimit: 100, MarkThreshold: 10},
		Scale:    &ScaleSpec{Timescale: 1, SizeScale: 16, Seed: 1},
		Workloads: []WorkloadSpec{
			{Kind: "permutation"}, {Kind: "random"}, {Kind: "incast"},
		},
		Schemes: []string{"DCTCP", "XMP-2"},
	}
	h1, h2 := mustCompile(t, implicit).Hash, mustCompile(t, explicit).Hash
	if h1 != h2 {
		t.Fatalf("default spelling changed the hash: %s vs %s", h1, h2)
	}
}

// Resolve must be idempotent: a resolved spec re-resolves (with no file
// tree access) to itself — the property dispatch workers rely on.
func TestResolveIdempotent(t *testing.T) {
	specs, _ := filepath.Glob("../../scenarios/*.json")
	if len(specs) == 0 {
		t.Fatal("no shipped scenarios found")
	}
	for _, path := range specs {
		if strings.Contains(path, "chaos") {
			continue
		}
		s, dir, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := Resolve(s, dir)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		r2, err := Resolve(r1, "")
		if err != nil {
			t.Fatalf("%s: re-resolve: %v", path, err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: Resolve is not idempotent:\n  once:  %+v\n  twice: %+v", path, r1, r2)
		}
	}
}

// ---------------------------------------------------------------------------
// Shipped scenarios compile, resolve their chaos targets, and round-trip
// through the campaign registry.

func TestShippedScenarios(t *testing.T) {
	want := map[string]struct {
		campaign string
		cells    int
	}{
		"matrix.json":           {exp.CampaignMatrix, 15},
		"table2.json":           {exp.CampaignMatrix, 12},
		"sweep.json":            {exp.CampaignMatrix, 4},
		"params.json":           {exp.CampaignMatrix, 20},
		"incastsweep.json":      {exp.CampaignMatrix, 4},
		"sack.json":             {exp.CampaignMatrix, 6},
		"vl2.json":              {exp.CampaignMatrix, 5},
		"robustness.json":       {exp.CampaignRobustness, 5},
		"fct.json":              {exp.CampaignFCT, 5},
		"permutation-flap.json": {exp.CampaignMatrix, 4},
	}
	// Every spec of scenarios/ is listed: robustness.chaos.json is the
	// fault schedule robustness.json names, not a spec.
	files, _ := filepath.Glob("../../scenarios/*.json")
	for _, path := range files {
		if name := filepath.Base(path); name != "robustness.chaos.json" && want[name].campaign == "" {
			t.Errorf("scenarios/%s is not listed", name)
		}
	}
	for name, w := range want {
		c, err := CompileFile(filepath.Join("../../scenarios", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.CheckTargets(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if c.Campaign != w.campaign || c.Cells() != w.cells {
			t.Errorf("%s: campaign %q with %d cells, want %q with %d",
				name, c.Campaign, c.Cells(), w.campaign, w.cells)
		}
		// Registry round-trip: probing the scenario campaign with the
		// compiled spec inline re-derives the same hash and cell count —
		// the contract dispatch coordinators and workers meet on.
		_, hash, cells, err := exp.CampaignProbe(exp.CampaignScenario, exp.RunParams{Scenario: c.JSON})
		if err != nil {
			t.Fatalf("%s: probe: %v", name, err)
		}
		if hash != c.Hash || cells != c.Cells() {
			t.Errorf("%s: registry probe disagrees: hash %s cells %d, compiled %s / %d",
				name, hash, cells, c.Hash, c.Cells())
		}
		// A spec carries its own scale: run inline, it reads no scale knob.
		knobs := []string{"timescale", "sizescale", "seed", "k"}
		if ignored, err := exp.IgnoredKnobs(exp.CampaignScenario, exp.RunParams{Scenario: c.JSON}, knobs); err != nil || !slices.Equal(ignored, knobs) {
			t.Errorf("%s inline ignores %v (%v), want every knob", name, ignored, err)
		}
	}
}

// TestFaultRunsPassScoreboardAudit runs the shipped permutation-flap spec
// (a core uplink down mid-transmit) and the OLIA-2 cell of the chaos-k8
// benchmark workload (loss, link and switch failures, extra delay, RTOs).
// Every cell ends in topo.Network.CheckDrained, which audits the
// scoreboard of each connection still registered, and each connection the
// flow arena recycles is audited at Rebind; either panics on a violation.
func TestFaultRunsPassScoreboardAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five k=8 cells")
	}
	for _, run := range []struct {
		path  string
		shard exp.ShardSpec
	}{
		{"../../scenarios/permutation-flap.json", exp.Unsharded},
		{"../../bench/workloads/chaos-k8.json", exp.ShardSpec{Index: 2, Count: 5}},
	} {
		c, err := CompileFile(run.path)
		if err != nil {
			t.Fatalf("%s: %v", run.path, err)
		}
		if _, err := c.RunShard(run.shard, 2, nil); err != nil {
			t.Fatalf("%s: %v", run.path, err)
		}
	}
}

func TestScenarioCampaignNeedsSpec(t *testing.T) {
	if _, _, _, err := exp.CampaignProbe(exp.CampaignScenario, exp.RunParams{}); err == nil {
		t.Fatal("probing the scenario campaign without a spec should fail")
	}
}

// ---------------------------------------------------------------------------
// One representation: the registry's spec campaigns are the shipped specs.

func shippedSpec(t *testing.T, name string) *Compiled {
	t.Helper()
	c, err := CompileFile(filepath.Join("../../scenarios", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// With default params the registry campaign and the spec file resolve to
// the same canonical JSON under the same campaign name, the spec's family —
// which is what lets `xmpsim vl2 -shard 0/2` and `xmpsim run -shard 1/2
// scenarios/vl2.json` shard files merge — and the "scenario" registry
// name, given that spec inline, resolves to the same family.
func TestSpecBackedCampaignsAreTheShippedSpecs(t *testing.T) {
	for _, name := range specCampaigns {
		c := shippedSpec(t, name)
		for _, probe := range []struct {
			registry string
			params   exp.RunParams
		}{
			{name, exp.RunParams{}},
			{exp.CampaignScenario, exp.RunParams{Scenario: c.JSON}},
			{name, exp.RunParams{Scenario: c.JSON, Timescale: 3, K: 4}}, // inline replaces the embedded spec and the scalars
		} {
			m, err := exp.ProbeManifest(probe.registry, probe.params)
			if err != nil {
				t.Fatalf("%s as %q: %v", name, probe.registry, err)
			}
			if m.Campaign != c.Campaign || m.Config != c.Desc || m.ConfigHash != c.Hash || m.TotalCells != c.Cells() {
				t.Errorf("%s as %q: manifest (%s, %.12s, %d cells), spec file (%s, %.12s, %d cells)",
					name, probe.registry, m.Campaign, m.ConfigHash, m.TotalCells, c.Campaign, c.Hash, c.Cells())
			}
		}
	}
	// A spec campaign refuses a spec of another family.
	if _, err := exp.ProbeManifest(FamilyFCT, exp.RunParams{Scenario: shippedSpec(t, FamilyMatrix).JSON}); err == nil {
		t.Error("campaign fct accepted a matrix-family inline spec")
	}
	if _, err := exp.ProbeManifest(exp.CampaignVL2, exp.RunParams{Scenario: shippedSpec(t, FamilyFCT).JSON}); err == nil {
		t.Error("campaign vl2 accepted an fct-family inline spec")
	}
}

// The scale flags overlay the embedded spec: -timescale and -seed on
// every spec, -k on every fat-tree (vl2's Clos has no arity), -sizescale on
// the matrix family alone (fct and robustness size their flows in bytes).
func TestRunParamsOverlayEmbeddedSpec(t *testing.T) {
	p := exp.RunParams{Timescale: 10, SizeScale: 1, Seed: 3, K: 4}
	for _, name := range specCampaigns {
		want := *shippedSpec(t, name).Spec
		topo := *want.Topology
		if topo.Kind != "vl2" {
			topo.K = 4
		}
		want.Topology = &topo
		want.Scale = &ScaleSpec{Timescale: 1, SizeScale: 16, Seed: 3}
		horizon := want.DurationMS
		switch want.Family {
		case FamilyMatrix:
			want.Scale.SizeScale = 1
			if horizon == 0 {
				horizon = 200
			}
		case FamilyRobustness:
			want.Seeds = []int64{3}
		}
		if horizon == 0 {
			horizon = 40
		}
		want.DurationMS = 10 * horizon
		c, err := CompileCampaign(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(c.Spec, &want) {
			t.Errorf("%s under %+v resolved to\n  %s\nwant the shipped spec with only the honoured fields moved:\n  %+v", name, p, c.JSON, want)
		}
	}
	if _, err := CompileCampaign(FamilyMatrix, exp.RunParams{K: 5}); err == nil {
		t.Error("matrix accepted -k 5; the overlay must go through Resolve's validation")
	}
}

// ---------------------------------------------------------------------------
// Validation errors.

func TestResolveRejects(t *testing.T) {
	cases := map[string]struct {
		spec *Spec
		want string
	}{
		"missing name":   {&Spec{Family: FamilyMatrix}, "name is required"},
		"missing family": {&Spec{Name: "x"}, "family is required"},
		"bad family":     {&Spec{Name: "x", Family: "grid"}, "unknown family"},
		"odd k":          {&Spec{Name: "x", Family: FamilyMatrix, Topology: &TopologySpec{K: 7}, Schemes: []string{"DCTCP"}}, "fat-tree k"},
		"vl2 in fct": {&Spec{Name: "x", Family: FamilyFCT, Topology: &TopologySpec{Kind: "vl2"},
			Workloads: []WorkloadSpec{{Name: "a", Kind: "shortflows"}}}, "vl2"},
		"k on vl2":      {&Spec{Name: "x", Family: FamilyMatrix, Topology: &TopologySpec{Kind: "vl2", K: 4}, Schemes: []string{"DCTCP"}}, "k does not apply"},
		"lossy matrix":  {&Spec{Name: "x", Family: FamilyMatrix, Topology: &TopologySpec{Lossy: true}, Schemes: []string{"DCTCP"}}, "lossy"},
		"mark >= queue": {&Spec{Name: "x", Family: FamilyMatrix, Topology: &TopologySpec{QueueLimit: 10, MarkThreshold: 10}, Schemes: []string{"DCTCP"}}, "mark_threshold"},
		"no schemes":    {&Spec{Name: "x", Family: FamilyMatrix}, "schemes list is required"},
		"dup scheme":    {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"XMP-2", "XMP-2"}}, "listed twice"},
		"bad scheme":    {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"QUIC-2"}}, "unknown algorithm"},
		"fct schemes":   {&Spec{Name: "x", Family: FamilyFCT, Schemes: []string{"DCTCP"}}, "per workload"},
		"seeds matrix":  {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"}, Seeds: []int64{1}}, "seeds axis"},
		"seed zero":     {&Spec{Name: "x", Family: FamilyRobustness, Schemes: []string{"DCTCP"}, Seeds: []int64{0}}, "seed 0"},
		// Their sizes are bytes: a sizescale would be hashed and ignored.
		"sizescale on robustness": {&Spec{Name: "x", Family: FamilyRobustness, Schemes: []string{"DCTCP"}, Scale: &ScaleSpec{SizeScale: 8}}, "sizescale 8 does not apply"},
		"sizescale on fct": {&Spec{Name: "x", Family: FamilyFCT, Scale: &ScaleSpec{SizeScale: 32},
			Workloads: []WorkloadSpec{{Name: "a", Kind: "shortflows"}}}, "sizescale 32 does not apply"},
		"chaos in fct": {&Spec{Name: "x", Family: FamilyFCT,
			Workloads: []WorkloadSpec{{Name: "a", Kind: "shortflows"}},
			Chaos:     &ChaosSpec{Events: []chaos.Event{{Kind: chaos.LinkDown, Target: "a", Dur: 1}}}}, "does not take a chaos"},
		"loss-burst in matrix": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"},
			Chaos: &ChaosSpec{Events: []chaos.Event{{Kind: chaos.LossBurst, Target: "a", P: 0.1, Dur: 1}}}}, "loss-burst"},
		"empty chaos":     {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"}, Chaos: &ChaosSpec{Seed: 1}}, "no events"},
		"file and inline": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"}, Chaos: &ChaosSpec{File: "f.json", Seed: 1}}, "excludes inline"},
		"matrix pattern params": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "permutation", PerHost: 2}}}, "takes only mark_threshold, queue_limit, strict_non_ect, sack, servers and coexist"},
		"row mark >= queue": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "random", MarkThreshold: 100}}}, "mark_threshold 100"},
		"row mark < 0": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "random", MarkThreshold: -1}}}, "mark_threshold -1"},
		"row queue <= mark": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "random", QueueLimit: 10}}}, "queue_limit 10"},
		"row queue < 0": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "random", QueueLimit: -50}}}, "queue_limit -50"},
		"coexist off random": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "incast", Coexist: "XMP-2"}}}, "on random only"},
		"bad coexist": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "random", Coexist: "QUIC-2"}}}, "unknown algorithm"},
		"table2 without coexist": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"}, Metrics: []string{"table2"},
			Workloads: []WorkloadSpec{{Kind: "random", Coexist: "XMP-2"}, {Kind: "random"}}}, "workload 1 sets no coexist"},
		"servers off incast": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "random", Servers: 4}}}, "on incast only"},
		"servers < 0": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "incast", Servers: -4}}}, "servers -4"},
		"dup row": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "random", SACK: true}, {Kind: "random"}, {Kind: "random", SACK: true}}}, "row Random(sack) listed twice"},
		"row field off matrix": {&Spec{Name: "x", Family: FamilyRobustness, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "random", SACK: true}}}, "set matrix rows"},
		"coexist off matrix": {&Spec{Name: "x", Family: FamilyRobustness, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "random", Coexist: "XMP-2"}}}, "set matrix rows"},
		"unnamed fct cell": {&Spec{Name: "x", Family: FamilyFCT,
			Workloads: []WorkloadSpec{{Kind: "shortflows"}}}, "need a name"},
		"foreign field": {&Spec{Name: "x", Family: FamilyRobustness, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "random", Senders: 5}}}, "does not apply"},
		"unknown metric": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"}, Metrics: []string{"table9"}}, "unknown metric"},
		// The timescale fold overflowing to +Inf: the resolved spec would not encode (FuzzResolve).
		"horizon overflow": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"}, DurationMS: 1e308,
			Scale: &ScaleSpec{Timescale: 10}}, "past the simulator's clock"},
		"horizon past int64 ns": {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"}, DurationMS: 1e13}, "past the simulator's clock"},
		// workload.StartShortFlows panics on these; a spec must not reach it.
		"pareto shape <= 1": {&Spec{Name: "x", Family: FamilyFCT,
			Workloads: []WorkloadSpec{{Name: "a", Kind: "shortflows", Alpha: 0.9}}}, "must exceed 1"},
		"pareto shape 1 (robustness)": {&Spec{Name: "x", Family: FamilyRobustness, Schemes: []string{"DCTCP"},
			Workloads: []WorkloadSpec{{Kind: "shortflows", Alpha: 1}}}, "must exceed 1"},
		// Short-flow loops are plain TCP; a scheme there would be hashed and ignored.
		"scheme on fct shortflows": {&Spec{Name: "x", Family: FamilyFCT,
			Workloads: []WorkloadSpec{{Name: "a", Kind: "shortflows", Scheme: "XMP-2"}}}, "scheme does not apply"},
		// core.NewBOS panics on beta < 2; flow launch sizes buffers by the subflow count.
		"beta 1":        {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"XMP-2/b1"}}, "bad beta"},
		"huge subflows": {&Spec{Name: "x", Family: FamilyRobustness, Schemes: []string{"XMP-4000000000"}}, "bad subflow count"},
		"fct cell beta 1": {&Spec{Name: "x", Family: FamilyFCT,
			Workloads: []WorkloadSpec{{Name: "a", Kind: "incast-burst", Scheme: "XMP-2/b1"}}}, "bad beta"},
		// Only XMP and BOS-uncoupled read beta; elsewhere it would be hashed and ignored.
		"beta on LIA":   {&Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"LIA-2/b6"}}, "no beta parameter"},
		"beta on DCTCP": {&Spec{Name: "x", Family: FamilyRobustness, Schemes: []string{"DCTCP/b9"}}, "no beta parameter"},
	}
	for name, tc := range cases {
		_, err := Resolve(tc.spec, "")
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// standingFault is a robustness spec whose only fault has no dur: the link
// would stay down for the rest of the run, flows across it would back off
// on RTO timers forever, and the cell would never finish.
const standingFault = `{"name":"standing","family":"robustness","topology":{"kind":"fattree","k":4},
	"duration_ms":5,"schemes":["TCP"],
	"chaos":{"events":[{"at":1000000,"kind":"link-down","target":"edge0.0->agg0.0"}]}}`

// A fault that never heals is refused at Compile, naming the event, before
// any cell is built.
func TestCompileRefusesStandingFault(t *testing.T) {
	s, err := Parse([]byte(standingFault))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Compile(s, "")
	if err == nil {
		t.Fatal("a link-down with no dur compiled")
	}
	for _, want := range []string{"event 0", "link-down", "edge0.0->agg0.0", "dur"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Compile error %q does not mention %q", err, want)
		}
	}
}

// CheckTargets must reject a schedule naming links the compiled topology
// does not have, without running anything.
func TestCheckTargetsRejectsBadTarget(t *testing.T) {
	s := &Spec{Name: "x", Family: FamilyMatrix, Schemes: []string{"DCTCP"},
		Chaos: &ChaosSpec{Events: []chaos.Event{{Kind: chaos.LinkDown, Target: "core9.9->agg9.9", Dur: 1}}}}
	c := mustCompile(t, s)
	if err := c.CheckTargets(); err == nil {
		t.Fatal("unresolvable chaos target accepted")
	}
	if _, err := c.RunShard(exp.Unsharded, 1, nil); err == nil {
		t.Fatal("RunShard executed a spec whose chaos targets do not resolve")
	}
}

// ---------------------------------------------------------------------------
// The seeds axis and metrics filtering, at small scale.

func shardPoints[T any](t *testing.T, enc exp.ShardEncoder) []exp.ShardCell[T] {
	t.Helper()
	f, ok := enc.(*exp.ShardFile[T])
	if !ok {
		t.Fatalf("shard encoder is %T", enc)
	}
	return f.Cells
}

func renderBlob(t *testing.T, name string, enc exp.ShardEncoder) string {
	t.Helper()
	var buf bytes.Buffer
	if err := enc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := exp.MergeShardBlobs([]exp.ShardBlob{{Name: name, Data: buf.Bytes()}})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res.Render(&out)
	return out.String()
}

func TestRobustnessSeedsAxis(t *testing.T) {
	s := &Spec{Name: "seeds", Family: FamilyRobustness, DurationMS: 2,
		Schemes: []string{"DCTCP"}, Seeds: []int64{1, 2}}
	c := mustCompile(t, s)
	if want := []string{"DCTCP@s1", "DCTCP@s2"}; !reflect.DeepEqual(c.Labels, want) {
		t.Fatalf("labels %v, want %v", c.Labels, want)
	}
	enc, err := c.RunShard(exp.Unsharded, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := shardPoints[*exp.ListCell](t, enc)
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for i, want := range c.Labels {
		if cells[i].Data.Label != want {
			t.Errorf("cell %d labelled %q, want %q", i, cells[i].Data.Label, want)
		}
	}
	if reflect.DeepEqual(cells[0].Data.Metrics, cells[1].Data.Metrics) {
		t.Errorf("seeds 1 and 2 produced identical metrics — the seed axis is not live: %v", cells[0].Data.Metrics)
	}
}

// Metrics filtering: listing every family table renders byte-identically
// to listing none, which renders no view, and a subset renders only the
// selected tables.
func TestMetricsFiltering(t *testing.T) {
	run := func(metrics []string) string {
		s := &Spec{Name: "mini", Family: FamilyMatrix, DurationMS: 5,
			Workloads: []WorkloadSpec{{Kind: "incast"}},
			Schemes:   []string{"DCTCP"}, Metrics: metrics}
		enc, err := mustCompile(t, s).RunShard(exp.Unsharded, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return renderBlob(t, "m", enc)
	}
	full := run(nil)
	matrix, _ := exp.LookupCampaign(FamilyMatrix)
	all := run(matrix.Tables)
	if full != all {
		t.Errorf("explicit all-tables render differs from default:\n--- default\n%s\n--- all\n%s", full, all)
	}
	one := run([]string{"table1"})
	if !strings.Contains(one, "Table 1") || strings.Contains(one, "Figure") {
		t.Errorf("metrics [table1] rendered the wrong tables:\n%s", one)
	}
	if !strings.HasPrefix(full, one[:len(one)-1]) {
		t.Errorf("table1-only render is not a prefix of the full render:\n%s", one)
	}
}

// Two β variants of one scheme are two schemes: a matrix keys and labels
// its columns, and robustness its rows, by the canonical scheme string, so
// XMP-2 and XMP-2/b6 run, merge and render side by side.
func TestBetaVariantsAreDistinctSchemes(t *testing.T) {
	schemes := []string{"XMP-2", "XMP-2/b6"}
	m := mustCompile(t, &Spec{Name: "betas", Family: FamilyMatrix, Topology: &TopologySpec{K: 4},
		Scale: &ScaleSpec{SizeScale: 4096}, DurationMS: 2, Workloads: []WorkloadSpec{{Kind: "permutation"}}, Schemes: schemes})
	if want := []string{"Permutation/XMP-2", "Permutation/XMP-2/b6"}; !reflect.DeepEqual(m.Labels, want) {
		t.Fatalf("matrix cells %v, want %v", m.Labels, want)
	}
	enc, err := m.RunShard(exp.Unsharded, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	table := renderBlob(t, "betas.json", enc)
	for _, want := range []string{"\nXMP-2 ", "\nXMP-2/b6 "} {
		if !strings.Contains(table, want) {
			t.Errorf("matrix render has no row %q:\n%s", strings.TrimSpace(want), table)
		}
	}

	r := mustCompile(t, &Spec{Name: "betas", Family: FamilyRobustness, Topology: &TopologySpec{K: 4}, DurationMS: 2, Schemes: schemes})
	enc, err = r.RunShard(exp.Unsharded, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range shardPoints[*exp.ListCell](t, enc) {
		if c.Data.Label != schemes[i] {
			t.Errorf("robustness row %d labelled %q, want %q", i, c.Data.Label, schemes[i])
		}
	}
}

// TestProbeBuildsNoFabric: a probe owns no cell, so it resolves no chaos
// target either. Probing the robustness campaign, whose spec has a fault
// schedule, stays far below the thousands of allocations a throwaway k=8
// fabric takes.
func TestProbeBuildsNoFabric(t *testing.T) {
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		_, _, _, err = exp.CampaignProbe(exp.CampaignRobustness, exp.RunParams{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 500 {
		t.Errorf("probing robustness allocates %.0f times, want at most 500", allocs)
	}
}
