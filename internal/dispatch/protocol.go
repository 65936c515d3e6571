// Package dispatch turns any sharded campaign into a distributed run: a
// coordinator partitions the campaign's cell space into shard tasks,
// assigns them to workers over an HTTP/JSON protocol, survives worker
// crashes and stalls by reassigning tasks, decodes each returned shard file
// as it arrives and merges them through exp.MergeShards — so the final
// output is byte-identical to an unsharded run regardless of worker count,
// assignment order, or mid-run failures.
//
// The protocol is three endpoints on each worker, plus a probe:
//
//	POST /task             accept a shard task (idempotent by task ID)
//	GET  /task/{id}        status: state, cells done/total (the heartbeat)
//	GET  /task/{id}/result the finished shard file's bytes
//	GET  /healthz          liveness probe
//
// The heartbeat is event-driven. The coordinator asks
// GET /task/{id}?wait=<ms>&seen=<cells>, and the worker holds the request
// until the task is done or failed or has finished more than seen cells,
// answering "nothing new" only when wait (Options.PollInterval) runs out.
// So a finished shard is fetched when it finishes rather than at the next
// poll tick, a healthy idle task costs one request per PollInterval, a
// connection that breaks mid-wait is a lost heartbeat at once, and a worker
// that ignores the parameters and answers immediately is still asked only
// once per PollInterval. Without wait the endpoint answers at once.
//
// Determinism contract: a task names its campaign by registry name and
// carries the canonical config plus its SHA-256. The worker re-derives the
// config from the shipped params and refuses the task when its own hash
// differs (stale binary); the coordinator re-verifies the hash on every
// returned manifest before merging. Task IDs are a pure function of
// (campaign, config hash, shard spec), so retries and speculative
// reassignment produce the same ID and duplicate completions deduplicate
// instead of double-merging.
package dispatch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"xmp/internal/exp"
)

// Task is one shard of a campaign, addressed to any worker.
type Task struct {
	// ID is deterministic — see TaskID.
	ID       string        `json:"id"`
	Campaign string        `json:"campaign"`
	Params   exp.RunParams `json:"params"`
	// ShardIndex/ShardCount are the -shard i/n spec this task owns.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	// Config is the canonical config description the coordinator derived
	// for (Campaign, Params); ConfigHash its SHA-256. A worker whose own
	// derivation disagrees must reject the task.
	Config     string `json:"config"`
	ConfigHash string `json:"config_hash"`
}

// newTask addresses one shard of a probed campaign: desc and hash are the
// canonical config CampaignProbe derived for (campaign, p).
func newTask(campaign string, p exp.RunParams, desc, hash string, shard exp.ShardSpec) Task {
	return Task{
		ID:         TaskID(campaign, hash, shard),
		Campaign:   campaign,
		Params:     p,
		ShardIndex: shard.Index,
		ShardCount: shard.Count,
		Config:     desc,
		ConfigHash: hash,
	}
}

// Shard returns the task's shard spec.
func (t *Task) Shard() exp.ShardSpec {
	return exp.ShardSpec{Index: t.ShardIndex, Count: t.ShardCount}
}

// TaskID derives the idempotent task identifier: identical (campaign,
// config hash, shard) always yields the same ID, so a reassigned or
// speculatively re-executed shard completes under the same key.
func TaskID(campaign, configHash string, shard exp.ShardSpec) string {
	h := sha256.Sum256([]byte(campaign + "|" + configHash + "|" + shard.String()))
	return hex.EncodeToString(h[:8])
}

// Task states reported by workers.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// TaskStatus is the heartbeat payload of GET /task/{id}.
type TaskStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// CellsDone advances as the shard's cells finish; a coordinator
	// watching it distinguishes a slow worker from a stalled one.
	CellsDone  int `json:"cells_done"`
	CellsTotal int `json:"cells_total"`
	// Error is set when State is StateFailed.
	Error string `json:"error,omitempty"`
}

// errorBody is the JSON error envelope workers return on non-2xx.
type errorBody struct {
	Error string `json:"error"`
}

// verifyManifest checks that a returned shard file's manifest matches the
// task that produced it: same campaign, same shard, internally-consistent
// config hash, and the hash the coordinator expects. A mismatch means a
// stale or differently-flagged worker binary; its result must be rejected
// rather than silently merged.
func verifyManifest(t *Task, m exp.ShardManifest) error {
	if m.Campaign != t.Campaign {
		return fmt.Errorf("result for campaign %q where task %s wants %q", m.Campaign, t.ID, t.Campaign)
	}
	if m.ShardIndex != t.ShardIndex || m.ShardCount != t.ShardCount {
		return fmt.Errorf("result for shard %d/%d where task %s wants %d/%d",
			m.ShardIndex, m.ShardCount, t.ID, t.ShardIndex, t.ShardCount)
	}
	if got := exp.HashConfig(m.Config); got != m.ConfigHash {
		return fmt.Errorf("task %s: manifest config hash %.12s does not match its config (%.12s) — corrupt shard file", t.ID, m.ConfigHash, got)
	}
	if m.ConfigHash != t.ConfigHash {
		return fmt.Errorf("task %s: config hash mismatch: worker ran %.12s (%q), coordinator expects %.12s (%q) — stale or mismatched worker binary",
			t.ID, m.ConfigHash, m.Config, t.ConfigHash, t.Config)
	}
	return nil
}
