package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"xmp/internal/exp"
)

// Options shapes a dispatch run. Zero values select the documented
// defaults; timeouts default to values derived from the campaign's scale
// (see deriveTimeouts).
type Options struct {
	// Workers are the worker addresses ("host:port"). Required.
	Workers []string
	// Shards is the partition width; 0 means one shard per worker. The
	// count is capped at the campaign's cell count — a shard owning no
	// cells is legal but pointless to schedule.
	Shards int
	// TaskTimeout bounds one attempt of one task end to end.
	TaskTimeout time.Duration
	// StallTimeout bounds the time between heartbeat progress advances; a
	// worker whose CellsDone stops moving for this long is presumed hung.
	StallTimeout time.Duration
	// PollInterval is the heartbeat period (default 200ms): the longest one
	// status request may hang at a worker before it must answer. It is a
	// ceiling on how stale the coordinator's view of a running task gets,
	// not a floor on completion latency — a worker answers the moment its
	// task finishes or advances.
	PollInterval time.Duration
	// MaxAttempts is the per-task attempt cap, first run included
	// (default 3).
	MaxAttempts int
	// BackoffBase/BackoffMax shape the capped exponential backoff between
	// a task's attempts (defaults 200ms, 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Log, if non-nil, receives one line per scheduling event.
	Log io.Writer
}

func (o *Options) withDefaults(cellsPerShard int, p exp.RunParams) Options {
	out := *o
	taskDefault, stallDefault := deriveTimeouts(cellsPerShard, p)
	if out.TaskTimeout == 0 {
		out.TaskTimeout = taskDefault
	}
	if out.StallTimeout == 0 {
		out.StallTimeout = stallDefault
	}
	if out.PollInterval == 0 {
		out.PollInterval = 200 * time.Millisecond
	}
	if out.MaxAttempts == 0 {
		out.MaxAttempts = 3
	}
	if out.BackoffBase == 0 {
		out.BackoffBase = 200 * time.Millisecond
	}
	if out.BackoffMax == 0 {
		out.BackoffMax = 5 * time.Second
	}
	return out
}

// deriveTimeouts scales the attempt and stall budgets with the campaign:
// a k=8 matrix cell runs in about a second at the default reduced scale,
// and cost grows linearly with -timescale and with the flow-size factor
// (default sizescale)/sizescale, so a generous per-cell minute covers
// CI-class hardware with an order of magnitude to spare at any configured
// scale.
func deriveTimeouts(cellsPerShard int, p exp.RunParams) (task, stall time.Duration) {
	p = p.WithDefaults()
	work := p.Timescale
	if def := (exp.RunParams{}).WithDefaults().SizeScale; p.SizeScale > 0 && p.SizeScale < def {
		work *= float64(def) / float64(p.SizeScale)
	}
	if work < 1 {
		work = 1
	}
	perCell := time.Duration(float64(time.Minute) * work)
	stall = 2 * perCell
	task = time.Duration(cellsPerShard+1) * perCell
	if task < 5*time.Minute {
		task = 5 * time.Minute
	}
	return task, stall
}

// Result is a completed dispatch: the merged campaign plus the per-shard
// artifacts (ascending shard index) and the fault-handling counters.
type Result struct {
	Merged *exp.MergeResult
	Blobs  []exp.ShardBlob
	// Reassigned counts attempts beyond each task's first — shards that
	// moved because a worker crashed, stalled, or returned garbage.
	Reassigned int
	// Deduped counts duplicate completions discarded by task ID: a shard
	// that was speculatively reassigned and then finished on the original
	// worker too merges exactly once.
	Deduped int
}

// completion is one verified shard result: the bytes as the worker sent
// them, and the file decoded from them on arrival.
type completion struct {
	blob exp.ShardBlob
	file exp.ShardEncoder
}

// workerConn is the coordinator's view of one worker.
type workerConn struct {
	addr string
	base string

	mu   sync.Mutex
	dead bool
}

func (w *workerConn) markDead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	was := w.dead
	w.dead = true
	return !was
}

func (w *workerConn) isDead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dead
}

type coordinator struct {
	opts   Options
	client *http.Client

	idle    chan *workerConn
	allDead chan struct{} // closed when every worker has been marked dead
	alive   sync.WaitGroup

	aliveMu sync.Mutex
	nAlive  int

	mu         sync.Mutex
	completed  map[string]completion
	reassigned int
	deduped    int

	linger sync.WaitGroup
}

func (c *coordinator) logf(format string, args ...any) {
	if c.opts.Log != nil {
		c.mu.Lock()
		fmt.Fprintf(c.opts.Log, "dispatch: "+format+"\n", args...)
		c.mu.Unlock()
	}
}

// newCoordinator returns a coordinator over o.Workers, all idle. o must
// have its defaults resolved.
func newCoordinator(o Options) *coordinator {
	c := &coordinator{
		opts:      o,
		client:    &http.Client{},
		idle:      make(chan *workerConn, len(o.Workers)),
		allDead:   make(chan struct{}),
		completed: make(map[string]completion),
		nAlive:    len(o.Workers),
	}
	for _, addr := range o.Workers {
		base := addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		c.idle <- &workerConn{addr: addr, base: strings.TrimRight(base, "/")}
	}
	return c
}

// Dispatch runs the named campaign across the workers in opts: it derives
// the canonical config locally, partitions the cell space into shard
// tasks, schedules them with heartbeat supervision, retry, and
// reassignment, decodes each returned shard file as it arrives and verifies
// the config hash on its manifest, and merges the decoded files through
// exp.MergeShards. The merged result is byte-identical to an unsharded run
// of the same campaign and params.
func Dispatch(campaign string, p exp.RunParams, opts Options) (*Result, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("dispatch: no workers given")
	}
	p = p.WithDefaults()
	m, err := exp.ProbeManifest(campaign, p)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %v", err)
	}
	// Tasks name the campaign shard files will carry: for the "scenario"
	// registry name that is the inline spec's family, so the worker's
	// probe and verifyManifest compare one name everywhere.
	campaign = m.Campaign
	desc, hash, cells := m.Config, m.ConfigHash, m.TotalCells
	shards := opts.Shards
	if shards == 0 {
		shards = len(opts.Workers)
	}
	if shards > cells {
		shards = cells
	}
	if shards < 1 {
		shards = 1
	}
	o := opts.withDefaults((cells+shards-1)/shards, p)
	o.Shards = shards

	c := newCoordinator(o)

	tasks := make([]Task, o.Shards)
	for i := range tasks {
		tasks[i] = newTask(campaign, p, desc, hash, exp.ShardSpec{Index: i, Count: o.Shards})
	}
	c.logf("campaign %s: %d cells as %d shard tasks across %d workers (config %.12s)",
		campaign, cells, len(tasks), len(o.Workers), hash)

	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.taskLoop(&tasks[i])
		}(i)
	}
	wg.Wait()
	// Late completions from lingering speculative attempts are part of the
	// run's accounting; they are bounded by the same per-attempt deadline.
	c.linger.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dispatch: shard %d/%d: %v", i, len(tasks), err)
		}
	}

	// Tasks are in shard order, so the artifacts and the merge input are too.
	res := &Result{Blobs: make([]exp.ShardBlob, len(tasks))}
	files := make([]exp.ShardEncoder, len(tasks))
	c.mu.Lock()
	res.Reassigned, res.Deduped = c.reassigned, c.deduped
	for i, t := range tasks {
		done, ok := c.completed[t.ID]
		if !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("dispatch: task %s finished without a recorded result", t.ID)
		}
		res.Blobs[i], files[i] = done.blob, done.file
	}
	c.mu.Unlock()

	merged, err := exp.MergeShards(files)
	if err != nil {
		return nil, fmt.Errorf("dispatch: merging %d shards: %v", len(files), err)
	}
	res.Merged = merged
	return res, nil
}

// taskLoop owns one task's lifecycle: acquire a live worker, run one
// attempt, and on failure back off and reassign to another worker, up to
// MaxAttempts. Crashed, stalled, and hash-mismatched workers are retired
// so a healthy worker picks the shard up instead.
func (c *coordinator) taskLoop(t *Task) error {
	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.sleepBackoff(attempt)
			if c.isCompleted(t.ID) {
				// A lingering earlier attempt finished the shard while we
				// were backing off.
				return nil
			}
			c.mu.Lock()
			c.reassigned++
			c.mu.Unlock()
		}
		w, ok := c.acquire()
		if !ok {
			if lastErr == nil {
				lastErr = fmt.Errorf("no attempt ran")
			}
			return fmt.Errorf("no live workers left (last error: %v)", lastErr)
		}
		c.logf("task %s attempt %d -> %s", t.ID, attempt, w.addr)
		done, err := c.runAttempt(w, t)
		if err == nil {
			c.release(w)
			c.record(t, done, w.addr)
			return nil
		}
		lastErr = fmt.Errorf("worker %s: %v", w.addr, err)
		c.logf("task %s attempt %d failed: %v", t.ID, attempt, lastErr)
		c.retire(w, t, err)
		if c.isCompleted(t.ID) {
			return nil
		}
	}
	return fmt.Errorf("failed after %d attempts: %v", c.opts.MaxAttempts, lastErr)
}

func (c *coordinator) sleepBackoff(attempt int) {
	d := c.opts.BackoffBase << (attempt - 2)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	time.Sleep(d)
}

// acquire blocks until a live worker is idle; ok=false when every worker
// has died.
func (c *coordinator) acquire() (*workerConn, bool) {
	for {
		select {
		case w := <-c.idle:
			if w.isDead() {
				continue
			}
			return w, true
		case <-c.allDead:
			return nil, false
		}
	}
}

func (c *coordinator) release(w *workerConn) {
	if !w.isDead() {
		c.idle <- w
	}
}

// retire handles a failed attempt. Workers that crashed, stalled, or
// produced hash-mismatched results stop receiving assignments; a task
// that failed on a live worker (campaign error) releases it unharmed.
func (c *coordinator) retire(w *workerConn, t *Task, err error) {
	var af *attemptFailure
	if !asAttemptFailure(err, &af) || af.workerDead {
		if w.markDead() {
			c.logf("worker %s retired: %v", w.addr, err)
			c.aliveMu.Lock()
			c.nAlive--
			dead := c.nAlive == 0
			c.aliveMu.Unlock()
			if dead {
				close(c.allDead)
			}
		}
		if af != nil && af.lingering {
			// The worker may still be executing the shard (stall, not
			// crash): keep polling it in the background so a late
			// completion is still collected — and deduplicated if a
			// reassigned attempt beat it.
			c.linger.Add(1)
			go c.lingerPoll(w, t)
		}
		return
	}
	c.release(w)
}

// attemptFailure classifies one attempt's failure.
type attemptFailure struct {
	err error
	// workerDead: stop assigning work to this worker.
	workerDead bool
	// lingering: the worker might still finish this task; poll it.
	lingering bool
}

func (f *attemptFailure) Error() string { return f.err.Error() }

func asAttemptFailure(err error, out **attemptFailure) bool {
	f, ok := err.(*attemptFailure)
	if ok {
		*out = f
	}
	return ok
}

// runAttempt submits the task to one worker and supervises it to
// completion: hanging heartbeats with stall detection, an overall deadline,
// and result verification.
func (c *coordinator) runAttempt(w *workerConn, t *Task) (completion, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.TaskTimeout)
	defer cancel()

	if err := c.submit(ctx, w, t); err != nil {
		return completion{}, err
	}

	lastDone := 0
	lastAdvance := time.Now()
	for {
		st, err := c.heartbeat(ctx, w, t.ID, lastDone)
		if ctx.Err() != nil {
			// The deadline, not the worker, ended the wait: the worker may
			// well still be running the shard.
			return completion{}, &attemptFailure{
				err:        fmt.Errorf("task timeout after %v", c.opts.TaskTimeout),
				workerDead: true, lingering: true,
			}
		}
		if err != nil {
			return completion{}, &attemptFailure{
				err:        fmt.Errorf("heartbeat lost: %v", err),
				workerDead: true,
			}
		}
		switch st.State {
		case StateDone:
			return c.fetchResult(ctx, w, t)
		case StateFailed:
			// The campaign itself errored; the worker is healthy.
			return completion{}, &attemptFailure{err: fmt.Errorf("task failed on worker: %s", st.Error)}
		}
		if st.CellsDone > lastDone {
			lastDone = st.CellsDone
			lastAdvance = time.Now()
		} else if time.Since(lastAdvance) > c.opts.StallTimeout {
			return completion{}, &attemptFailure{
				err: fmt.Errorf("stalled: no progress past %d/%d cells for %v",
					st.CellsDone, st.CellsTotal, c.opts.StallTimeout),
				workerDead: true, lingering: true,
			}
		}
	}
}

// heartbeat is one beat of supervision: a status request the worker holds
// until the task is done, failed or past seen cells, or PollInterval has
// gone by. It returns as soon as there is news and never sooner than
// PollInterval without: a worker that ignores wait and answers "nothing
// new" at once is asked again only after the rest of the period.
func (c *coordinator) heartbeat(ctx context.Context, w *workerConn, id string, seen int) (TaskStatus, error) {
	asked := time.Now()
	st, err := c.status(ctx, w, id, seen)
	if err != nil || st.State != StateRunning || st.CellsDone > seen {
		return st, err
	}
	if rest := c.opts.PollInterval - time.Since(asked); rest > 0 {
		timer := time.NewTimer(rest)
		defer timer.Stop()
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-timer.C:
		}
	}
	return st, nil
}

func (c *coordinator) submit(ctx context.Context, w *workerConn, t *Task) error {
	body, err := json.Marshal(t)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/task", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return &attemptFailure{err: fmt.Errorf("submit: %v", err), workerDead: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		// 409 is the worker refusing a config-hash mismatch: its binary
		// derives a different canonical config, so nothing it ran would
		// merge — retire it.
		return &attemptFailure{
			err:        fmt.Errorf("submit rejected: %s", readError(resp)),
			workerDead: true,
		}
	}
	return nil
}

// status asks for the task's status, letting the worker hold the request
// for up to PollInterval while there is nothing past seen cells to report.
func (c *coordinator) status(ctx context.Context, w *workerConn, id string, seen int) (TaskStatus, error) {
	// Rounded up: a sub-millisecond period must still ask the worker to wait.
	waitMs := (c.opts.PollInterval + time.Millisecond - 1) / time.Millisecond
	url := fmt.Sprintf("%s/task/%s?wait=%d&seen=%d", w.base, id, waitMs, seen)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return TaskStatus{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return TaskStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return TaskStatus{}, fmt.Errorf("status: %s", readError(resp))
	}
	var st TaskStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return TaskStatus{}, err
	}
	return st, nil
}

// fetchResult downloads a finished shard file, decodes it — here, in the
// task's own goroutine, while the other workers simulate — and verifies
// the decoded manifest. A manifest whose config hash does not match the
// task is a stale worker's output: the attempt fails and the worker is
// retired.
func (c *coordinator) fetchResult(ctx context.Context, w *workerConn, t *Task) (completion, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/task/"+t.ID+"/result", nil)
	if err != nil {
		return completion{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return completion{}, &attemptFailure{err: fmt.Errorf("result: %v", err), workerDead: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return completion{}, &attemptFailure{err: fmt.Errorf("result: %s", readError(resp))}
	}
	// A shard file is megabytes: sized from the announced length it is read
	// into one allocation instead of a chain of doublings (the length is a
	// hint from the worker, so only a plausible one is believed).
	var body bytes.Buffer
	if n := resp.ContentLength; n > 0 && n < 1<<30 {
		body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return completion{}, &attemptFailure{err: fmt.Errorf("result: %v", err), workerDead: true}
	}
	blob := exp.ShardBlob{Name: fmt.Sprintf("shard-%d.json", t.ShardIndex), Data: body.Bytes()}
	file, err := exp.DecodeShard(blob)
	if err != nil {
		return completion{}, &attemptFailure{err: fmt.Errorf("result: %v", err), workerDead: true}
	}
	if err := verifyManifest(t, file.ShardManifest()); err != nil {
		return completion{}, &attemptFailure{err: err, workerDead: true}
	}
	return completion{blob: blob, file: file}, nil
}

func readError(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var eb errorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return fmt.Sprintf("%s (HTTP %d)", eb.Error, resp.StatusCode)
	}
	return fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
}

// record stores a verified completion; duplicate completions for the same
// task ID are discarded, keeping the first.
func (c *coordinator) record(t *Task, done completion, from string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.completed[t.ID]; dup {
		c.deduped++
		if c.opts.Log != nil {
			fmt.Fprintf(c.opts.Log, "dispatch: duplicate completion of task %s from %s deduplicated\n", t.ID, from)
		}
		return
	}
	c.completed[t.ID] = done
	if c.opts.Log != nil {
		fmt.Fprintf(c.opts.Log, "dispatch: task %s (shard %d/%d) completed by %s\n", t.ID, t.ShardIndex, t.ShardCount, from)
	}
}

func (c *coordinator) isCompleted(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.completed[id]
	return ok
}

// lingerPoll follows a stalled attempt after its shard has been reassigned
// elsewhere: if the slow worker eventually finishes, the result is
// collected (it may be the only copy if every retry fails) and otherwise
// deduplicated. Bounded by one further TaskTimeout; any transport error
// ends it — a crashed worker exits on the first heartbeat.
func (c *coordinator) lingerPoll(w *workerConn, t *Task) {
	defer c.linger.Done()
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.TaskTimeout)
	defer cancel()
	for {
		// No cell count is news here, only the task ending.
		st, err := c.heartbeat(ctx, w, t.ID, math.MaxInt32)
		if err != nil {
			return
		}
		switch st.State {
		case StateDone:
			done, err := c.fetchResult(ctx, w, t)
			if err != nil {
				c.logf("task %s: late result from %s rejected: %v", t.ID, w.addr, err)
				return
			}
			c.record(t, done, w.addr+" (late)")
			return
		case StateFailed:
			return
		}
	}
}
