package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// This file is the campaign sharding layer: a deterministic partition of a
// campaign's cell space across independent processes. Every campaign in
// this package already flattens its grid into a cell index (the RunAll
// index); a ShardSpec assigns each cell to exactly one shard by that same
// index, so shards can run on different machines and their exported cells
// reassemble into the full campaign with no coordination beyond the
// manifest checks in merge.go. This is what lets the paper-magnitude
// (-timescale 10 -sizescale 1) sweeps fit inside CI wall-clock limits.

// ShardSpec selects the cells shard Index of Count owns. The zero value is
// invalid; Unsharded is the whole-campaign spec.
type ShardSpec struct {
	Index, Count int
}

// Unsharded is the 0/1 spec: one shard owning every cell.
var Unsharded = ShardSpec{Index: 0, Count: 1}

// Validate reports whether the spec is well-formed.
func (s ShardSpec) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("shard count %d < 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("shard index %d outside [0,%d)", s.Index, s.Count)
	}
	return nil
}

// String renders the spec in the CLI's "i/n" form.
func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// ParseShardSpec parses "i/n" (e.g. "2/4") into a validated spec.
func ParseShardSpec(str string) (ShardSpec, error) {
	i, n, ok := strings.Cut(str, "/")
	if !ok {
		return ShardSpec{}, fmt.Errorf("shard spec %q: want \"index/count\", e.g. \"0/4\"", str)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(i))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("shard spec %q: bad index: %v", str, err)
	}
	cnt, err := strconv.Atoi(strings.TrimSpace(n))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("shard spec %q: bad count: %v", str, err)
	}
	s := ShardSpec{Index: idx, Count: cnt}
	if err := s.Validate(); err != nil {
		return ShardSpec{}, fmt.Errorf("shard spec %q: %v", str, err)
	}
	return s, nil
}

// Owns reports whether this shard runs the given cell. Assignment is
// round-robin by cell index: adjacent cells land on different shards, so a
// grid campaign's expensive rows (e.g. the Incast pattern's cells, which
// dominate matrix wall-clock) spread across shards instead of piling onto
// one.
func (s ShardSpec) Owns(cell int) bool { return cell%s.Count == s.Index }

// Owned returns, in ascending order, the cells of [0, n) this shard runs.
func (s ShardSpec) Owned(n int) []int {
	owned := make([]int, 0, (n+s.Count-1)/s.Count)
	for c := s.Index; c < n; c += s.Count {
		owned = append(owned, c)
	}
	return owned
}

// ShardSchemaVersion is bumped whenever the shard file layout or any cell
// payload changes incompatibly; merge refuses mixed versions.
const ShardSchemaVersion = 2

// ShardManifest identifies what a shard file contains, precisely enough
// for merge to refuse anything that would assemble a silently-wrong
// campaign: cells from a different configuration, overlapping cells, or an
// incomplete cover.
type ShardManifest struct {
	SchemaVersion int `json:"schema_version"`
	// Campaign names the runner ("matrix", "table2", "params", ...).
	Campaign string `json:"campaign"`
	// Config is the canonical human-readable description of every knob
	// that shapes cell results; ConfigHash is its SHA-256. Shards merge
	// only if their hashes agree.
	Config     string `json:"config"`
	ConfigHash string `json:"config_hash"`
	// ShardIndex/ShardCount echo the -shard spec of the producing run.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	// TotalCells is the campaign-wide cell count; CellIndices the cells
	// this shard ran, ascending.
	TotalCells  int   `json:"total_cells"`
	CellIndices []int `json:"cell_indices"`
}

// newManifest stamps a manifest for one shard of a campaign.
func newManifest(campaign, configDesc string, shard ShardSpec, totalCells int) ShardManifest {
	return ShardManifest{
		SchemaVersion: ShardSchemaVersion,
		Campaign:      campaign,
		Config:        configDesc,
		ConfigHash:    HashConfig(configDesc),
		ShardIndex:    shard.Index,
		ShardCount:    shard.Count,
		TotalCells:    totalCells,
		CellIndices:   shard.Owned(totalCells),
	}
}

// HashConfig returns the hex SHA-256 of a canonical campaign config
// description — the hash stamped into shard manifests and verified by the
// dispatch layer on every task and result.
func HashConfig(desc string) string {
	h := sha256.Sum256([]byte(desc))
	return hex.EncodeToString(h[:])
}

// ShardCell pairs a campaign cell index with its result payload.
type ShardCell[T any] struct {
	Cell int `json:"cell"`
	Data T   `json:"data"`
}

// RunShard executes run(i) for the cells of [0, n) owned by shard, fanned
// across jobs workers through the same pool as RunAll, and returns
// (cell, result) pairs in ascending cell order. done fires in that same
// order on the calling goroutine — sharded campaign logs are as
// deterministic as unsharded ones. RunShard with Unsharded is exactly
// RunAll, so there is one execution path whatever the shard count.
func RunShard[T any](n, jobs int, shard ShardSpec, run func(w *Worker, i int) T, done func(i int, r T)) []ShardCell[T] {
	if err := shard.Validate(); err != nil {
		panic("exp: " + err.Error())
	}
	owned := shard.Owned(n)
	var sdone func(int, T)
	if done != nil {
		sdone = func(j int, r T) { done(owned[j], r) }
	}
	results := RunAll(len(owned), jobs, func(w *Worker, j int) T { return run(w, owned[j]) }, sdone)
	cells := make([]ShardCell[T], len(owned))
	for j, c := range owned {
		cells[j] = ShardCell[T]{Cell: c, Data: results[j]}
	}
	return cells
}
