// Package scenario compiles declarative JSON experiment specs into the
// cell spaces the exp campaign machinery executes. A spec names a
// topology, a workload mix, a scheme list, optional sweep axes and an
// optional chaos schedule; the compiler validates it strictly (unknown
// fields are errors, not ignored), resolves every default and file
// reference into an explicit canonical form, and hashes that resolved
// form into the shard manifest — so a spec edit, including an edit to a
// referenced chaos-schedule file, can never silently reuse stale shard
// files or goldens. Compiled scenarios register in the exp campaign
// registry, which is what gives `xmpsim run scenario.json` sharding,
// JSON export, merge and dispatch without scenario-specific plumbing.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"xmp/internal/chaos"
)

// Families: the three cell-space shapes a spec can lower onto. Each maps
// to a campaign's tables and render, so scenario shard files merge with
// the same machinery (and the same goldens) as the built-in campaigns.
// Every family's cells carry the metrics its selected tables read, by
// name (exp's metric table).
const (
	// FamilyMatrix is the patterns x schemes goodput grid (the paper's
	// Tables 1/3 and Figures 8-11); cells are MatrixCells, keyed by row
	// and scheme.
	FamilyMatrix = "matrix"
	// FamilyRobustness is schemes x seeds under an optional fault
	// schedule; cells are ListCells labelled by scheme (and seed).
	FamilyRobustness = "robustness"
	// FamilyFCT is a list of named short-flow / incast-burst cells;
	// cells are ListCells labelled by name.
	FamilyFCT = "fct"
)

// Spec is the declarative scenario document. The zero value of every
// optional field means "the family default"; Resolve makes every default
// explicit, so a resolved Spec is self-contained and canonical.
type Spec struct {
	// Name identifies the scenario in listings and progress output.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Family selects the cell-space shape: matrix, robustness or fct.
	Family string `json:"family"`
	// Topology shapes the fabric. nil means the family default
	// (k=8 fat-tree at the canonical queue parameters).
	Topology *TopologySpec `json:"topology,omitempty"`
	// Scale carries the timescale/sizescale/seed knobs. Resolve folds
	// Timescale into DurationMS and resets it to 1.
	Scale *ScaleSpec `json:"scale,omitempty"`
	// DurationMS is the generator horizon in simulated milliseconds.
	// 0 means the family default (matrix: the per-pattern defaults;
	// robustness/fct: 40 ms).
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Workloads lists the traffic generators. Meaning is per family:
	// matrix — the pattern axis of the grid; robustness — the generator
	// mix every cell runs; fct — one named cell per workload.
	Workloads []WorkloadSpec `json:"workloads,omitempty"`
	// Schemes is the scheme axis (matrix, robustness), in ParseScheme's
	// grammar: "DCTCP", "XMP-2", "LIA-4", "XMP-2/b6", ...
	Schemes []string `json:"schemes,omitempty"`
	// Seeds is the robustness family's replication axis; each scheme
	// runs once per seed. Empty means [scale.seed].
	Seeds []int64 `json:"seeds,omitempty"`
	// Chaos is an optional fault schedule, inline or by file reference.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
	// Metrics selects which result tables render; empty means the family's
	// tables. A cell carries only the metrics its selection reads.
	// Table names per family: matrix — table1, table3, fig8, fig9, fig10,
	// fig11, and the views sweep, params, incastsweep, sack, vl2 and table2,
	// which only a selection renders (table2 only over coexist rows);
	// robustness/fct — summary, by-size.
	Metrics []string `json:"metrics,omitempty"`
}

// TopologySpec shapes the fabric.
type TopologySpec struct {
	// Kind is "fattree" (default) or "vl2" (matrix and robustness).
	Kind string `json:"kind,omitempty"`
	// K is the fat-tree arity (default 8). Ignored for vl2.
	K int `json:"k,omitempty"`
	// QueueLimit / MarkThreshold configure every switch queue
	// (defaults 100 and 10).
	QueueLimit    int `json:"queue_limit,omitempty"`
	MarkThreshold int `json:"mark_threshold,omitempty"`
	// Lossy wraps every queue in a netem.Lossy (inert at p=0) so chaos
	// loss-burst events have a hook to arm. Robustness family only.
	Lossy bool `json:"lossy,omitempty"`
}

// ScaleSpec carries the scale knobs shared with the xmpsim flags.
type ScaleSpec struct {
	// Timescale multiplies DurationMS; Resolve folds it in and resets
	// it to 1, so two specs that resolve to the same horizon hash equal.
	Timescale float64 `json:"timescale,omitempty"`
	// SizeScale divides the paper's flow sizes (default 16).
	SizeScale int64 `json:"sizescale,omitempty"`
	// Seed is the base RNG seed (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// WorkloadSpec is one traffic generator. Kind selects which other fields
// apply; fields that do not apply to the kind must stay zero (validated).
type WorkloadSpec struct {
	// Name labels an fct cell (required and unique there, forbidden
	// elsewhere — matrix and robustness workloads are labelled by kind).
	Name string `json:"name,omitempty"`
	// Kind: matrix — permutation | random | incast (the Section 5.2
	// patterns, sized by sizescale, one row each, with the row fields
	// below); robustness — random | shortflows; fct — shortflows |
	// incast-burst.
	Kind string `json:"kind"`
	// Bounded-Pareto size parameters (random, shortflows).
	MeanBytes int64   `json:"mean_bytes,omitempty"`
	MinBytes  int64   `json:"min_bytes,omitempty"`
	MaxBytes  int64   `json:"max_bytes,omitempty"`
	Alpha     float64 `json:"alpha,omitempty"`
	// PerHost is the number of concurrent closed loops per host
	// (shortflows, default 1).
	PerHost int `json:"per_host,omitempty"`
	// MaxFlowsPerDst caps fan-in (random, default 4).
	MaxFlowsPerDst int `json:"max_flows_per_dst,omitempty"`
	// Incast-burst shape (fct family).
	Senders       int   `json:"senders,omitempty"`
	ResponseBytes int64 `json:"response_bytes,omitempty"`
	Rounds        int   `json:"rounds,omitempty"`
	// Scheme is an fct incast-burst cell's transfer scheme: empty means the
	// plain-TCP baseline, set means every sender uses it (the mitigation
	// axis). shortflows loops are always plain TCP and reject it.
	Scheme string `json:"scheme,omitempty"`
	// What a matrix row changes of the cell (exp.Row): its marking
	// threshold and queue limit, RED-strict switches that drop non-ECT
	// packets above the threshold, SACK on every connection; on incast the
	// servers each job asks (default 8, capped at all hosts but the
	// client); on random a coexist scheme, which the even-indexed hosts run
	// beside the row's scheme on the odd-indexed ones (Table 2).
	MarkThreshold int    `json:"mark_threshold,omitempty"`
	QueueLimit    int    `json:"queue_limit,omitempty"`
	StrictNonECT  bool   `json:"strict_non_ect,omitempty"`
	SACK          bool   `json:"sack,omitempty"`
	Servers       int    `json:"servers,omitempty"`
	Coexist       string `json:"coexist,omitempty"`
}

// ChaosSpec is a fault schedule, by reference or inline. Exactly one form
// may be used. Resolve inlines a referenced file (relative paths resolve
// against the spec file's directory), so the resolved spec — and with it
// the config hash — covers the schedule's content, not its filename.
type ChaosSpec struct {
	File   string        `json:"file,omitempty"`
	Seed   int64         `json:"seed,omitempty"`
	Events []chaos.Event `json:"events,omitempty"`
}

// Schedule returns the inline schedule. Call after Resolve (which clears
// File by inlining it).
func (c *ChaosSpec) Schedule() chaos.Schedule {
	return chaos.Schedule{Seed: c.Seed, Events: c.Events}
}

// parseStrict decodes JSON into v, rejecting unknown fields at every
// nesting level and trailing garbage after the document.
func parseStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra any
	if dec.Decode(&extra) != io.EOF {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

// Parse decodes a spec, strictly: unknown fields anywhere in the document
// are errors. Defaults are not applied (see Resolve) and validity beyond
// well-formed JSON is not checked (see Compile, which validates the
// resolved form).
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := parseStrict(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	return &s, nil
}

// Load reads and parses a spec file. The file's directory is returned for
// resolving relative chaos-file references.
func Load(path string) (*Spec, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("scenario: %v", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %v", path, err)
	}
	return s, filepath.Dir(path), nil
}
