package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"

	"xmp/internal/metrics"
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
// arrival and hands the set to MergeShards.
func DecodeShard(b ShardBlob) (ShardEncoder, error) {
	m, err := PeekManifest(b.Data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", b.Name, err)
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

// decodeStrict decodes data into v as json.Unmarshal does — which refuses
// anything but white space after the value — and then refuses a key that
// no field of the struct it lands in answers to: a shard file whose result
// field was renamed or retyped would otherwise merge with that field at
// its zero value. The key check scans the bytes Unmarshal already
// validated instead of decoding through a json.Decoder, which copies the
// whole file (Dist samples included) into buffers of its own.
func decodeStrict(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return err
	}
	sc := keyScan{data: data}
	_, err := sc.value(sc.space(0), reflect.TypeOf(v))
	return err
}

// keyScan walks a valid JSON value alongside the Go type it decoded into.
type keyScan struct{ data []byte }

var jsonUnmarshaler = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()

// value checks the value at i against t (nil: anything goes) and returns
// where it ends. A type with its own UnmarshalJSON (metrics.Dist) is not
// looked into. A string is never looked into, so neither is a type that
// decodes from text: Unmarshal refused anything else for it.
func (sc keyScan) value(i int, t reflect.Type) (int, error) {
	for t != nil && t.Kind() == reflect.Pointer {
		if t.Implements(jsonUnmarshaler) {
			t = nil
		} else {
			t = t.Elem()
		}
	}
	if t != nil && reflect.PointerTo(t).Implements(jsonUnmarshaler) {
		t = nil
	}
	d := sc.data
	switch d[i] {
	case '{':
		for i = sc.space(i + 1); d[i] != '}'; i = sc.space(i + 1) {
			end := sc.str(i)
			var elem reflect.Type
			switch {
			case t == nil:
			case t.Kind() == reflect.Struct:
				f, ok := jsonFields(t).lookup(d[i+1 : end-1])
				if !ok {
					var key string
					_ = json.Unmarshal(d[i:end], &key) // a valid JSON string
					return 0, fmt.Errorf("json: unknown field %q", key)
				}
				elem = f
			case t.Kind() == reflect.Map:
				elem = t.Elem()
			}
			var err error
			if i, err = sc.value(sc.space(sc.space(end)+1), elem); err != nil {
				return 0, err
			}
			if i = sc.space(i); d[i] == '}' {
				break
			}
		}
		return i + 1, nil
	case '[':
		var elem reflect.Type
		if t != nil && (t.Kind() == reflect.Slice || t.Kind() == reflect.Array) {
			elem = t.Elem()
		}
		for i = sc.space(i + 1); d[i] != ']'; i = sc.space(i + 1) {
			var err error
			if i, err = sc.value(i, elem); err != nil {
				return 0, err
			}
			if i = sc.space(i); d[i] == ']' {
				break
			}
		}
		return i + 1, nil
	case '"':
		return sc.str(i), nil
	}
	for i < len(d) && !strings.ContainsRune(",}] \t\n\r", rune(d[i])) {
		i++ // a number, true, false or null
	}
	return i, nil
}

// space returns the first index at or after i that is not JSON white space.
func (sc keyScan) space(i int) int {
	for i < len(sc.data) && strings.ContainsRune(" \t\n\r", rune(sc.data[i])) {
		i++
	}
	return i
}

// str returns where the string opening at i ends, past its closing quote.
func (sc keyScan) str(i int) int {
	for i++; sc.data[i] != '"'; i++ {
		if sc.data[i] == '\\' {
			i++
		}
	}
	return i + 1
}

// fieldSet is a struct type's JSON keys, as encoding/json names them.
type fieldSet map[string]reflect.Type

var fieldSets sync.Map // reflect.Type → fieldSet

// jsonFields returns t's fields by JSON key: exported fields under their
// tag name or Go name, the fields of untagged embedded structs promoted.
func jsonFields(t reflect.Type) fieldSet {
	if fs, ok := fieldSets.Load(t); ok {
		return fs.(fieldSet)
	}
	fs := fieldSet{}
	for _, f := range reflect.VisibleFields(t) {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		switch {
		case name == "-" || !f.IsExported() && !f.Anonymous:
		case f.Anonymous && name == "" && ft.Kind() == reflect.Struct:
			// Promoted: VisibleFields lists its fields too.
		case name == "":
			fs[f.Name] = f.Type
		default:
			fs[name] = f.Type
		}
	}
	fieldSets.Store(t, fs)
	return fs
}

// lookup finds key's field as encoding/json does: the exact name, else a
// case-insensitive match. A key with escapes is compared unescaped.
func (fs fieldSet) lookup(key []byte) (reflect.Type, bool) {
	if t, ok := fs[string(key)]; ok {
		return t, true
	}
	name := string(key)
	if bytes.IndexByte(key, '\\') >= 0 {
		if json.Unmarshal(append(append([]byte{'"'}, key...), '"'), &name) != nil {
			return nil, false
		}
	}
	for k, t := range fs {
		if strings.EqualFold(k, name) {
			return t, true
		}
	}
	return nil, false
}

// refuseNullDists returns an error naming the first cell and field whose
// *metrics.Dist decoded from a JSON null. Unmarshal takes null for any
// pointer, but a campaign's cells always carry their Dists (an empty one
// encodes as an object), and rendering one that is nil would panic.
func (f *ShardFile[T]) refuseNullDists() error {
	for i := range f.Cells {
		c := &f.Cells[i]
		if path := nullDist(reflect.ValueOf(&c.Data).Elem(), "data"); path != "" {
			return fmt.Errorf("cell %d: %s is null, want a Dist", c.Cell, path)
		}
	}
	return nil
}

var distType = reflect.TypeOf((*metrics.Dist)(nil))

// nullDist returns the path below path of the first nil *metrics.Dist in v,
// walking exported struct fields, non-nil pointers, slices, arrays and maps
// (in key order), or "" if there is none.
func nullDist(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Pointer:
		switch {
		case v.Type() == distType:
			if v.IsNil() {
				return path
			}
		case !v.IsNil():
			return nullDist(v.Elem(), path)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && !scalar(f.Type) {
				if p := nullDist(v.Field(i), path+"."+f.Name); p != "" {
					return p
				}
			}
		}
	case reflect.Slice, reflect.Array:
		if scalar(v.Type().Elem()) {
			return ""
		}
		for i := 0; i < v.Len(); i++ {
			if p := nullDist(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			if p := nullDist(v.MapIndex(k), fmt.Sprintf("%s[%v]", path, k)); p != "" {
				return p
			}
		}
	}
	return ""
}

// scalar reports whether t is a number, bool or string: nothing below it.
func scalar(t reflect.Type) bool {
	return t.Kind() <= reflect.Complex128 || t.Kind() == reflect.String
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
