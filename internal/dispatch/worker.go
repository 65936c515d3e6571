package dispatch

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"xmp/internal/exp"
)

// Worker executes shard tasks for a coordinator. It is an http.Handler;
// Serve wires it to a listener for the `xmpsim worker` subcommand, and
// tests mount it on httptest servers.
type Worker struct {
	// Log, if non-nil, receives one line per task accepted/finished.
	Log io.Writer
	// KillAfterTasks > 0 injects a fault for testing the coordinator's
	// reassignment path: when the KillAfterTasks-th accepted task
	// completes its first cell — i.e. genuinely mid-shard — Kill is
	// invoked. The xmpsim worker subcommand maps it to -exit-after and
	// process exit; tests substitute a listener teardown.
	KillAfterTasks int
	Kill           func()
	// MaxWait caps how long a status request may hang, whatever its
	// ?wait= asks: a minute from NewWorker, far above any coordinator's
	// PollInterval.
	MaxWait time.Duration

	mux *http.ServeMux

	mu       sync.Mutex
	tasks    map[string]*workerTask
	accepted int
}

// workerTask is one accepted task. Everything past task and total is
// guarded by Worker.mu.
type workerTask struct {
	task   Task
	total  int
	state  string
	done   int // cells finished
	errMsg string
	result []byte
	// changed is closed and replaced whenever done or state moves: what a
	// hanging status request waits on.
	changed chan struct{}
}

// update applies fn to the task under the worker's lock and wakes every
// status request hanging on it.
func (w *Worker) update(wt *workerTask, fn func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	fn()
	close(wt.changed)
	wt.changed = make(chan struct{})
}

// NewWorker returns an idle worker.
func NewWorker() *Worker {
	w := &Worker{MaxWait: time.Minute, tasks: make(map[string]*workerTask), mux: http.NewServeMux()}
	w.mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	w.mux.HandleFunc("POST /task", w.handleSubmit)
	w.mux.HandleFunc("GET /task/{id}", w.handleStatus)
	w.mux.HandleFunc("GET /task/{id}/result", w.handleResult)
	return w
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, "worker: "+format+"\n", args...)
	}
}

// ServeHTTP implements the worker protocol (see package doc).
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mux.ServeHTTP(rw, r)
}

func httpError(rw http.ResponseWriter, code int, format string, args ...any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit accepts a shard task. Submission is idempotent: re-posting
// a task ID already known returns the existing status instead of starting
// the work again, so a coordinator retrying a lost response cannot make a
// worker run the same shard twice.
func (w *Worker) handleSubmit(rw http.ResponseWriter, r *http.Request) {
	var t Task
	if err := json.NewDecoder(r.Body).Decode(&t); err != nil {
		httpError(rw, http.StatusBadRequest, "bad task: %v", err)
		return
	}
	m, err := exp.ProbeManifest(t.Campaign, t.Params)
	if err != nil {
		httpError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	// A task must name the campaign its shard file will carry (for a
	// scenario, the spec's family): the coordinator refuses any other
	// manifest, so refuse the work up front.
	if m.Campaign != t.Campaign {
		httpError(rw, http.StatusBadRequest, "task %s names campaign %q, whose shard files carry %q", t.ID, t.Campaign, m.Campaign)
		return
	}
	desc, hash, cells := m.Config, m.ConfigHash, m.TotalCells
	// The config-hash precheck: this binary derives the canonical config
	// for the shipped params itself. Disagreement means this worker would
	// produce cells the coordinator must refuse — fail now, loudly,
	// instead of after the simulation.
	if hash != t.ConfigHash {
		httpError(rw, http.StatusConflict,
			"config hash mismatch for campaign %s: this worker derives %.12s (%q), task %s expects %.12s (%q) — stale or mismatched worker binary",
			t.Campaign, hash, desc, t.ID, t.ConfigHash, t.Config)
		return
	}
	shard := t.Shard()
	if err := shard.Validate(); err != nil {
		httpError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	if want := TaskID(t.Campaign, t.ConfigHash, shard); t.ID != want {
		httpError(rw, http.StatusBadRequest, "task ID %q is not the canonical ID %q for this task", t.ID, want)
		return
	}

	w.mu.Lock()
	if wt, ok := w.tasks[t.ID]; ok {
		st := wt.status()
		w.mu.Unlock()
		w.logf("task %s resubmitted; already %s", t.ID, st.State)
		writeStatus(rw, http.StatusOK, st)
		return
	}
	wt := &workerTask{task: t, state: StateRunning, total: len(shard.Owned(cells)), changed: make(chan struct{})}
	w.tasks[t.ID] = wt
	w.accepted++
	ordinal := w.accepted
	st := wt.status()
	w.mu.Unlock()

	w.logf("task %s accepted: campaign %s shard %s (%d cells)", t.ID, t.Campaign, shard, wt.total)
	go w.run(wt, ordinal)
	writeStatus(rw, http.StatusAccepted, st)
}

// run executes the shard and records the outcome.
func (w *Worker) run(wt *workerTask, ordinal int) {
	progress := &cellCounter{cellDone: func() { w.update(wt, func() { wt.done++ }) }}
	if w.KillAfterTasks > 0 && ordinal == w.KillAfterTasks {
		kill := w.Kill
		if kill == nil {
			kill = func() { panic("dispatch: KillAfterTasks set with no Kill func") }
		}
		progress.onFirstCell = kill
	}
	data, _, err := exp.RunCampaignShard(wt.task.Campaign, wt.task.Params, wt.task.Shard(), progress)
	if err != nil {
		w.update(wt, func() { wt.state, wt.errMsg = StateFailed, err.Error() })
		w.logf("task %s failed: %v", wt.task.ID, err)
		return
	}
	w.update(wt, func() { wt.state, wt.result = StateDone, data })
	w.logf("task %s done (%d cells, %d bytes)", wt.task.ID, wt.total, len(data))
}

// cellCounter turns a campaign's per-cell progress lines into a cell
// counter: every campaign runner emits exactly one newline-terminated
// progress line as each cell's done callback fires, so counting newlines
// counts finished cells without touching the runner signatures.
type cellCounter struct {
	cellDone    func()
	onFirstCell func()
	fired       bool
}

func (c *cellCounter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			c.cellDone()
			if !c.fired && c.onFirstCell != nil {
				c.fired = true
				c.onFirstCell()
			}
		}
	}
	return len(p), nil
}

func (wt *workerTask) status() TaskStatus {
	return TaskStatus{
		ID:         wt.task.ID,
		State:      wt.state,
		CellsDone:  wt.done,
		CellsTotal: wt.total,
		Error:      wt.errMsg,
	}
}

func writeStatus(rw http.ResponseWriter, code int, st TaskStatus) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(st)
}

// snapshot reads a task under one lock: its status, its result (nil until
// done) and the channel that closes at its next change.
func (w *Worker) snapshot(id string) (st TaskStatus, result []byte, changed <-chan struct{}, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	wt, ok := w.tasks[id]
	if !ok {
		return TaskStatus{}, nil, nil, false
	}
	return wt.status(), wt.result, wt.changed, true
}

// handleStatus is the heartbeat. Bare, it reports the task's status at
// once. With ?wait=<ms>&seen=<cells> it hangs until the task is done or
// failed or has finished more than seen cells, and otherwise answers when
// wait runs out — so a coordinator learns of completion when it happens,
// not at its next poll, and an idle heartbeat costs one request per wait.
// No request hangs longer than MaxWait.
func (w *Worker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	waitMs, _ := strconv.ParseInt(q.Get("wait"), 10, 64)
	seen, _ := strconv.Atoi(q.Get("seen"))
	// Capped in milliseconds, before the product can overflow.
	wait := time.Duration(min(waitMs, w.MaxWait.Milliseconds())) * time.Millisecond
	hang := wait > 0
	var expired <-chan time.Time
	if hang {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		expired = timer.C
	}
	for {
		st, _, changed, ok := w.snapshot(id)
		if !ok {
			httpError(rw, http.StatusNotFound, "unknown task %q", id)
			return
		}
		if !hang || st.State != StateRunning || st.CellsDone > seen {
			writeStatus(rw, http.StatusOK, st)
			return
		}
		select {
		case <-changed:
		case <-expired:
			hang = false
		case <-r.Context().Done():
			// The coordinator hung up (its task deadline, or it died).
			return
		}
	}
}

func (w *Worker) handleResult(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, result, _, ok := w.snapshot(id)
	if !ok {
		httpError(rw, http.StatusNotFound, "unknown task %q", id)
		return
	}
	if st.State != StateDone {
		httpError(rw, http.StatusConflict, "task %s is %s, no result yet", id, st.State)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	// Announced, so the coordinator reads into one buffer of the right size.
	rw.Header().Set("Content-Length", strconv.Itoa(len(result)))
	rw.Write(result)
}

// Serve announces the worker's address on announce (the line the local
// spawner parses) and serves the protocol until the listener fails —
// forever, in practice, unless the process is killed.
func Serve(listen string, w *Worker, announce io.Writer) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	if announce != nil {
		fmt.Fprintf(announce, "xmpsim worker listening on %s\n", ln.Addr())
	}
	return http.Serve(ln, w)
}
