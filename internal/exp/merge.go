package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reassembles sharded campaigns. A ShardFile is what one
// `xmpsim <campaign> -shard i/n -json` invocation exports; merge validates
// that a set of shard files forms an exact, config-consistent partition of
// one campaign's cell space and rebuilds the campaign result, whose
// rendered tables are byte-identical to an unsharded run (pinned by
// TestMatrixShardMergeByteIdentical and, at full scale, TestGoldens).

// ShardFile is one shard's export: the manifest and the owned cells with
// their campaign cell indices. A campaign whose result has axes (matrix,
// table2) reads them off the cells.
type ShardFile[T any] struct {
	Manifest ShardManifest  `json:"manifest"`
	Cells    []ShardCell[T] `json:"cells"`
}

// ShardManifest returns the file's manifest; with Encode it forms the
// type-erased view the campaign registry hands to the dispatch layer.
func (f *ShardFile[T]) ShardManifest() ShardManifest { return f.Manifest }

// Encode writes the shard file as compact JSON, one line.
func (f *ShardFile[T]) Encode(w io.Writer) error {
	return json.NewEncoder(w).Encode(f)
}

// ShardBlob is one shard file's raw bytes plus a name for error messages.
type ShardBlob struct {
	Name string
	Data []byte
}

// PeekManifest reads a shard file's "manifest" member and stops: Encode
// writes it first, so choosing the cell type for a multi-megabyte file costs
// a few hundred bytes of scanning instead of a whole-blob Unmarshal.
func PeekManifest(data []byte) (ShardManifest, error) {
	var m ShardManifest
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil {
		return m, err
	} else if tok != json.Delim('{') {
		return m, fmt.Errorf("shard file is not a JSON object")
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return m, err
		}
		if k, _ := key.(string); strings.EqualFold(k, "manifest") {
			return m, dec.Decode(&m)
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return m, err
		}
	}
	return m, nil
}

// DecodeShard decodes one shard file into its campaign's cell type — the
// expensive half of a merge, and independent per file, so a caller that
// receives files one at a time (the dispatch coordinator) decodes each on
// arrival and hands the set to MergeShards. A file of another schema
// version is refused by its manifest before its cells are read.
func DecodeShard(b ShardBlob) (ShardEncoder, error) {
	m, err := PeekManifest(b.Data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", b.Name, err)
	}
	if m.SchemaVersion != ShardSchemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, this binary reads %d", b.Name, m.SchemaVersion, ShardSchemaVersion)
	}
	c := lookup(m.Campaign)
	if c == nil || c.decode == nil {
		return nil, fmt.Errorf("%s: unknown campaign %q", b.Name, m.Campaign)
	}
	f, err := c.decode(b.Data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", b.Name, err)
	}
	return f, nil
}

// decodeStrict decodes data into v, refusing a key that no field of the
// struct it lands in answers to — a shard file whose result field was
// renamed or retyped would otherwise merge with that field at its zero
// value — and anything but white space after the value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("json: data after the shard file")
	}
	return nil
}

// ValidateShardSet checks that a set of manifests describes an exact
// partition of one campaign: same schema version, campaign, config hash,
// shard count and cell count everywhere; no shard given twice; every cell
// owned by exactly one shard (no overlap, no gap).
func ValidateShardSet(ms []ShardManifest) error {
	if len(ms) == 0 {
		return fmt.Errorf("no shard files given")
	}
	ref := ms[0]
	byIndex := make(map[int]bool, len(ms))
	for _, m := range ms {
		if m.SchemaVersion != ShardSchemaVersion {
			return fmt.Errorf("shard %d/%d: schema version %d, this binary reads %d",
				m.ShardIndex, m.ShardCount, m.SchemaVersion, ShardSchemaVersion)
		}
		if m.Campaign != ref.Campaign {
			return fmt.Errorf("campaign mismatch: %q vs %q", ref.Campaign, m.Campaign)
		}
		if m.ConfigHash != ref.ConfigHash {
			return fmt.Errorf("config mismatch: shard %d/%d ran %q, shard %d/%d ran %q",
				ref.ShardIndex, ref.ShardCount, ref.Config, m.ShardIndex, m.ShardCount, m.Config)
		}
		if m.ShardCount != ref.ShardCount {
			return fmt.Errorf("shard count mismatch: %d/%d vs %d/%d",
				ref.ShardIndex, ref.ShardCount, m.ShardIndex, m.ShardCount)
		}
		if m.TotalCells != ref.TotalCells {
			return fmt.Errorf("cell count mismatch: shard %d/%d has %d total cells, shard %d/%d has %d",
				ref.ShardIndex, ref.ShardCount, ref.TotalCells, m.ShardIndex, m.ShardCount, m.TotalCells)
		}
		if m.ShardIndex < 0 || m.ShardIndex >= m.ShardCount {
			return fmt.Errorf("shard index %d outside [0,%d)", m.ShardIndex, m.ShardCount)
		}
		if byIndex[m.ShardIndex] {
			return fmt.Errorf("shard %d/%d given twice (overlap)", m.ShardIndex, m.ShardCount)
		}
		byIndex[m.ShardIndex] = true
	}
	owner := make([]int, ref.TotalCells)
	for i := range owner {
		owner[i] = -1
	}
	for _, m := range ms {
		for _, c := range m.CellIndices {
			if c < 0 || c >= ref.TotalCells {
				return fmt.Errorf("shard %d/%d claims cell %d outside [0,%d)",
					m.ShardIndex, m.ShardCount, c, ref.TotalCells)
			}
			if owner[c] != -1 {
				return fmt.Errorf("cell %d appears in both shard %d/%d and shard %d/%d (overlap)",
					c, owner[c], ref.ShardCount, m.ShardIndex, m.ShardCount)
			}
			owner[c] = m.ShardIndex
		}
	}
	var missing []int
	for c, o := range owner {
		if o == -1 {
			missing = append(missing, c)
		}
	}
	if len(missing) > 0 {
		var have []int
		for i := range byIndex {
			have = append(have, i)
		}
		sort.Ints(have)
		return fmt.Errorf("cells %v missing (gap): have shards %v of %d — is a shard file absent?",
			missing, have, ref.ShardCount)
	}
	return nil
}

// MergeShardCells validates a shard set and returns its cell payloads in
// campaign cell order.
func MergeShardCells[T any](files []*ShardFile[T]) ([]T, error) {
	ms := make([]ShardManifest, len(files))
	for i, f := range files {
		ms[i] = f.Manifest
	}
	if err := ValidateShardSet(ms); err != nil {
		return nil, err
	}
	out := make([]T, ms[0].TotalCells)
	for _, f := range files {
		if len(f.Cells) != len(f.Manifest.CellIndices) {
			return nil, fmt.Errorf("shard %d/%d: manifest lists %d cells but file carries %d",
				f.Manifest.ShardIndex, f.Manifest.ShardCount, len(f.Manifest.CellIndices), len(f.Cells))
		}
		for i, c := range f.Cells {
			if c.Cell != f.Manifest.CellIndices[i] {
				return nil, fmt.Errorf("shard %d/%d: cell %d in file where manifest lists %d",
					f.Manifest.ShardIndex, f.Manifest.ShardCount, c.Cell, f.Manifest.CellIndices[i])
			}
			out[c.Cell] = c.Data
		}
	}
	return out, nil
}

// MergeResult is a reassembled campaign. Nothing above this package needs
// the assembled value's type, only to render or export it, so the value (a
// *Matrix, a point list) stays unexported; this package's tests check the
// claims of EXPERIMENTS.md on it.
type MergeResult struct {
	Campaign string
	value    any
	render   func(w io.Writer)
	plot     func(w io.Writer) error
}

// MergeShards validates a set of decoded shard files (any campaign, any
// shard count; from DecodeShard or straight from a runner) and reassembles
// the full campaign result.
func MergeShards(files []ShardEncoder) (*MergeResult, error) {
	ms := make([]ShardManifest, len(files))
	for i, f := range files {
		ms[i] = f.ShardManifest()
	}
	// Up front, so that a mixed-campaign set is refused as such rather
	// than as a cell-type mismatch.
	if err := ValidateShardSet(ms); err != nil {
		return nil, err
	}
	c := lookup(ms[0].Campaign)
	if c == nil || c.merge == nil {
		return nil, fmt.Errorf("unknown campaign %q", ms[0].Campaign)
	}
	return c.merge(files)
}

// MergeShardBlobs decodes, validates and reassembles a set of shard files
// (any campaign, any shard count) into the full campaign result.
func MergeShardBlobs(blobs []ShardBlob) (*MergeResult, error) {
	files := make([]ShardEncoder, len(blobs))
	for i, b := range blobs {
		var err error
		if files[i], err = DecodeShard(b); err != nil {
			return nil, err
		}
	}
	return MergeShards(files)
}

// Render prints the merged campaign exactly as the unsharded xmpsim
// subcommand prints it to stdout — byte-identical, so merged output diffs
// cleanly against the checked-in results_*.txt goldens (minus the stderr
// timing trailer). A scenario's metric selection picks its tables, in spec
// order.
func (r *MergeResult) Render(w io.Writer) { r.render(w) }

// scenarioMetrics extracts the metric selection from a scenario-compiled
// config description ("scenario {...resolved spec...}") without importing
// the scenario package — exp cannot depend on its own client. Non-scenario
// configs, and scenario specs with no metrics field, return nil, which
// renders everything. The config description of a scenario-compiled shard
// set embeds the resolved spec, which is where the selection lives.
func scenarioMetrics(config string) []string {
	const prefix = "scenario "
	if !strings.HasPrefix(config, prefix) {
		return nil
	}
	var s struct {
		Metrics []string `json:"metrics"`
	}
	if json.Unmarshal([]byte(config[len(prefix):]), &s) != nil {
		return nil
	}
	return s.Metrics
}

// WriteJSON emits the merged campaign's -json plot export, if its
// CampaignInfo.Plot says it has one.
func (r *MergeResult) WriteJSON(w io.Writer) error {
	if r.plot == nil {
		return fmt.Errorf("campaign %s has no -json plot export", r.Campaign)
	}
	return r.plot(w)
}
