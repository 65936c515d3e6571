package dispatch

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmp/internal/exp"
	"xmp/internal/scenario"
)

// The tests dispatch the ablation campaign: its dumbbell cells run in
// milliseconds, and it exercises the full task protocol (probe, shard,
// manifest, merge) exactly like the fat-tree campaigns.
const testCampaign = exp.CampaignAblation

func testParams() exp.RunParams { return exp.RunParams{Jobs: 2} }

// fastOpts returns aggressive supervision timings so fault tests converge
// in milliseconds instead of the production-scale defaults.
func fastOpts(workers []string) Options {
	return Options{
		Workers:      workers,
		PollInterval: 10 * time.Millisecond,
		// Generous enough that a healthy worker's slowest cell (notably
		// under -race) always advances the heartbeat in time.
		StallTimeout: 3 * time.Second,
		TaskTimeout:  60 * time.Second,
		BackoffBase:  time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
	}
}

// serialRender runs the campaign unsharded through the registry and renders
// it through the merge path — the byte-exact reference every dispatch
// result must match.
func serialRender(t *testing.T) string {
	t.Helper()
	data, _, err := exp.RunCampaignShard(testCampaign, testParams(), exp.Unsharded, nil)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	res, err := exp.MergeShardBlobs([]exp.ShardBlob{{Name: "serial.json", Data: data}})
	if err != nil {
		t.Fatalf("serial merge: %v", err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	return buf.String()
}

func renderResult(t *testing.T, res *Result) string {
	t.Helper()
	var buf bytes.Buffer
	res.Merged.Render(&buf)
	return buf.String()
}

func startWorker(t *testing.T, w *Worker) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(w)
	t.Cleanup(srv.Close)
	return srv
}

func addrOf(srv *httptest.Server) string {
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestTaskIDDeterministic(t *testing.T) {
	s := exp.ShardSpec{Index: 1, Count: 4}
	a := TaskID("matrix", "abc", s)
	b := TaskID("matrix", "abc", s)
	if a != b {
		t.Fatalf("TaskID not deterministic: %q vs %q", a, b)
	}
	if TaskID("matrix", "abd", s) == a || TaskID("table2", "abc", s) == a ||
		TaskID("matrix", "abc", exp.ShardSpec{Index: 2, Count: 4}) == a {
		t.Fatal("TaskID collision across distinct tasks")
	}
}

// TestDispatchMatchesSerial is the happy path: two workers, more shards
// than workers, output byte-identical to the unsharded run.
func TestDispatchMatchesSerial(t *testing.T) {
	want := serialRender(t)
	a := startWorker(t, NewWorker())
	b := startWorker(t, NewWorker())
	res, err := Dispatch(testCampaign, testParams(), fastOpts([]string{addrOf(a), addrOf(b)}))
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if got := renderResult(t, res); got != want {
		t.Errorf("dispatched output diverges from serial:\n--- serial ---\n%s\n--- dispatched ---\n%s", want, got)
	}
	if res.Reassigned != 0 || res.Deduped != 0 {
		t.Errorf("clean run counted reassigned=%d deduped=%d", res.Reassigned, res.Deduped)
	}
	if len(res.Blobs) == 0 {
		t.Error("no shard artifacts returned")
	}
}

// TestDispatchSpecCampaignShipsSpec dispatches a spec campaign whose shard
// files carry its family's name: vl2, a matrix-family spec. Its tasks name
// "matrix", which alone would stand for the embedded matrix spec, so they
// must carry the vl2 spec inline or every worker refuses them as a config
// hash mismatch. The merge must equal the serial run's.
func TestDispatchSpecCampaignShipsSpec(t *testing.T) {
	p := exp.RunParams{Jobs: 1, Timescale: 0.05, SizeScale: 256}
	data, _, err := exp.RunCampaignShard(exp.CampaignVL2, p, exp.Unsharded, nil)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	serial, err := exp.MergeShardBlobs([]exp.ShardBlob{{Name: "serial.json", Data: data}})
	if err != nil {
		t.Fatalf("serial merge: %v", err)
	}
	var want bytes.Buffer
	serial.Render(&want)

	a := startWorker(t, NewWorker())
	b := startWorker(t, NewWorker())
	opts := fastOpts([]string{addrOf(a), addrOf(b)})
	opts.Shards, opts.MaxAttempts = 3, 1
	res, err := Dispatch(exp.CampaignVL2, p, opts)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if got := renderResult(t, res); got != want.String() || !strings.Contains(got, "VL2 Clos") {
		t.Errorf("dispatched vl2 diverges from serial:\n--- serial ---\n%s\n--- dispatched ---\n%s", want.String(), got)
	}
	if res.Merged.Campaign != exp.CampaignMatrix {
		t.Errorf("merged campaign %q, want %q", res.Merged.Campaign, exp.CampaignMatrix)
	}
}

// crashable simulates a worker process crash: once killed, every connection
// is severed and new requests die without a response.
type crashable struct {
	h    http.Handler
	dead atomic.Bool
}

func (c *crashable) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if c.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	c.h.ServeHTTP(rw, r)
}

// startVictim serves a worker that crashes — every connection severed,
// nothing answered again — when its first task completes its first cell.
func startVictim(t *testing.T) *httptest.Server {
	t.Helper()
	victim := NewWorker()
	victim.KillAfterTasks = 1
	crash := &crashable{h: victim}
	srv := httptest.NewServer(crash)
	t.Cleanup(srv.Close)
	victim.Kill = func() {
		crash.dead.Store(true)
		srv.CloseClientConnections()
	}
	return srv
}

// TestDispatchWorkerKilledMidShard kills a worker after its first task
// completes one cell — genuinely mid-shard — and requires the shard to be
// reassigned and the merged output to stay byte-identical to serial.
func TestDispatchWorkerKilledMidShard(t *testing.T) {
	want := serialRender(t)

	srvA := startVictim(t)
	srvB := startWorker(t, NewWorker())

	opts := fastOpts([]string{addrOf(srvA), addrOf(srvB)})
	opts.Shards = 2
	res, err := Dispatch(testCampaign, testParams(), opts)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if got := renderResult(t, res); got != want {
		t.Errorf("output after worker kill diverges from serial:\n--- serial ---\n%s\n--- dispatched ---\n%s", want, got)
	}
	if res.Reassigned < 1 {
		t.Errorf("reassigned = %d, want >= 1 (a worker was killed mid-shard)", res.Reassigned)
	}
}

// TestDispatchRobustnessKilledMidShard repeats the kill-mid-shard fault
// for the robustness campaign: every cell replays a chaos fault schedule,
// so this pins that reassigned shards re-run their fault injection
// identically and the merged output still matches the serial run byte for
// byte.
func TestDispatchRobustnessKilledMidShard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the robustness campaign twice (serial + dispatched)")
	}
	data, _, err := exp.RunCampaignShard(exp.CampaignRobustness, testParams(), exp.Unsharded, nil)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	serial, err := exp.MergeShardBlobs([]exp.ShardBlob{{Name: "serial.json", Data: data}})
	if err != nil {
		t.Fatalf("serial merge: %v", err)
	}
	var want bytes.Buffer
	serial.Render(&want)

	srvA := startVictim(t)
	srvB := startWorker(t, NewWorker())

	opts := fastOpts([]string{addrOf(srvA), addrOf(srvB)})
	opts.Shards = 2
	// Robustness cells are k=8 fat-tree runs: seconds each, far slower than
	// the ablation cells fastOpts is tuned for.
	opts.StallTimeout = 60 * time.Second
	res, err := Dispatch(exp.CampaignRobustness, testParams(), opts)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if got := renderResult(t, res); got != want.String() {
		t.Errorf("robustness output after worker kill diverges from serial:\n--- serial ---\n%s\n--- dispatched ---\n%s", want.String(), got)
	}
	if res.Reassigned < 1 {
		t.Errorf("reassigned = %d, want >= 1 (a worker was killed mid-shard)", res.Reassigned)
	}
}

// isStatusRequest picks the heartbeat out of a worker's traffic.
func isStatusRequest(r *http.Request) bool {
	return r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/task/") &&
		!strings.HasSuffix(r.URL.Path, "/result")
}

// stallServer accepts any task and then reports zero progress forever — a
// hung worker with a live TCP stack, and one that predates the hanging
// heartbeat: it ignores wait and seen and answers at once. It counts the
// status requests it receives and when the first and last arrived. done()
// flips it to 404 so the coordinator's linger poll terminates promptly.
type stallServer struct {
	*httptest.Server
	gone atomic.Bool

	mu          sync.Mutex
	statusCalls int
	first, last time.Time
}

func (s *stallServer) done() { s.gone.Store(true) }

func newStallServer(t *testing.T) *stallServer {
	t.Helper()
	s := &stallServer{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /task", func(rw http.ResponseWriter, r *http.Request) {
		var task Task
		json.NewDecoder(r.Body).Decode(&task)
		writeStatus(rw, http.StatusAccepted, TaskStatus{ID: task.ID, State: StateRunning})
	})
	mux.HandleFunc("GET /task/{id}", func(rw http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.statusCalls++
		s.last = time.Now()
		if s.statusCalls == 1 {
			s.first = s.last
		}
		s.mu.Unlock()
		if s.gone.Load() {
			httpError(rw, http.StatusNotFound, "unknown task")
			return
		}
		writeStatus(rw, http.StatusOK, TaskStatus{ID: r.PathValue("id"), State: StateRunning})
	})
	s.Server = httptest.NewServer(mux)
	t.Cleanup(s.Close)
	return s
}

// holdProxy fronts a real worker but sits on every status request until
// released or hung up on — a worker whose shard runs far longer than the
// coordinator is prepared to wait, seen through a hanging heartbeat.
type holdProxy struct {
	w       *Worker
	release chan struct{}
	taskID  atomic.Value // the (one) task it was given
}

// postedTaskID reads the task ID off a submission, leaving the body intact.
func postedTaskID(r *http.Request) string {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	var task Task
	json.Unmarshal(body, &task)
	return task.ID
}

func (p *holdProxy) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		p.taskID.Store(postedTaskID(r))
	}
	if isStatusRequest(r) {
		select {
		case <-p.release:
		case <-r.Context().Done():
			return
		}
	}
	p.w.ServeHTTP(rw, r)
}

// TestDispatchStalledWorkerTimesOut covers the two ways a live worker
// stops being waited for, and that both keep following it for a late
// result.
func TestDispatchStalledWorkerTimesOut(t *testing.T) {
	want := serialRender(t)

	// A worker whose heartbeat never advances: the coordinator must detect
	// the stall, retire the worker, and retry on the healthy one — and,
	// since this worker answers every heartbeat at once, must still ask it
	// only once per PollInterval.
	t.Run("stall", func(t *testing.T) {
		staller := newStallServer(t)
		// The staller starts returning 404 once the healthy worker has the
		// task, so the linger poll (which outlives the attempt) exits quickly.
		inner := NewWorker()
		healthy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				staller.done()
			}
			inner.ServeHTTP(rw, r)
		}))
		t.Cleanup(healthy.Close)

		opts := fastOpts([]string{addrOf(staller.Server), addrOf(healthy)})
		opts.Shards = 1
		var log bytes.Buffer
		opts.Log = &log
		res, err := Dispatch(testCampaign, testParams(), opts)
		if err != nil {
			t.Fatalf("dispatch: %v\nlog:\n%s", err, log.String())
		}
		if got := renderResult(t, res); got != want {
			t.Errorf("output after stall diverges from serial")
		}
		if res.Reassigned != 1 {
			t.Errorf("reassigned = %d, want 1\nlog:\n%s", res.Reassigned, log.String())
		}
		if !strings.Contains(log.String(), "stalled") {
			t.Errorf("log does not mention the stall:\n%s", log.String())
		}
		staller.mu.Lock()
		calls, elapsed := staller.statusCalls, staller.last.Sub(staller.first)
		staller.mu.Unlock()
		if max := int(elapsed/opts.PollInterval) + 2; calls > max {
			t.Errorf("%d status requests in %v at PollInterval %v, want <= %d: a worker that ignores wait is being hammered",
				calls, elapsed, opts.PollInterval, max)
		}
	})

	// A worker that is simply slower than TaskTimeout, the deadline falling
	// while a status request hangs at it: that is a task timeout, not a lost
	// heartbeat, and the result it delivers afterwards is still collected.
	t.Run("task timeout mid-heartbeat", func(t *testing.T) {
		slow := &holdProxy{w: NewWorker(), release: make(chan struct{})}
		srvSlow := httptest.NewServer(slow)
		t.Cleanup(srvSlow.Close)
		// The hold lifts once the slow worker's task has been reassigned:
		// its shard, long finished behind the proxy, surfaces late.
		inner := NewWorker()
		srvFast := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && postedTaskID(r) == slow.taskID.Load() {
				close(slow.release)
			}
			inner.ServeHTTP(rw, r)
		}))
		t.Cleanup(srvFast.Close)

		// One one-cell task through the task loop itself, so the healthy
		// worker is idle when the reassignment comes and its attempt fits
		// the short deadline with room to spare, also under -race.
		opts := fastOpts([]string{addrOf(srvSlow), addrOf(srvFast)}) // idle order: slow first
		opts.TaskTimeout = time.Second
		opts.PollInterval = 2 * opts.TaskTimeout // the deadline falls inside the first heartbeat
		opts.StallTimeout = time.Minute
		var log bytes.Buffer
		opts.Log = &log
		c := newCoordinator(opts.withDefaults(1, testParams()))
		task := oneCellTask(t, 0)
		err := c.taskLoop(task)
		c.linger.Wait()
		if err != nil {
			t.Fatalf("task loop: %v\nlog:\n%s", err, log.String())
		}
		if !c.isCompleted(task.ID) {
			t.Errorf("task not recorded as completed\nlog:\n%s", log.String())
		}
		if c.reassigned != 1 || c.deduped != 1 {
			t.Errorf("reassigned = %d, deduped = %d, want 1 and 1 (timed-out task rerun, late original collected)\nlog:\n%s",
				c.reassigned, c.deduped, log.String())
		}
		for _, phrase := range []string{"task timeout after 1s", "(late)"} {
			if !strings.Contains(log.String(), phrase) {
				t.Errorf("log does not mention %q:\n%s", phrase, log.String())
			}
		}
		if strings.Contains(log.String(), "heartbeat lost") {
			t.Errorf("deadline during a hanging heartbeat reported as a lost heartbeat:\n%s", log.String())
		}
	})
}

// freezeProxy fronts a real worker but reports frozen zero-progress
// heartbeats until thawed — the worker is healthy and finishes its shard,
// the coordinator just can't see it, so it reassigns and the original
// completion arrives late.
type freezeProxy struct {
	w      *Worker
	frozen atomic.Bool
}

func (p *freezeProxy) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if p.frozen.Load() && isStatusRequest(r) {
		writeStatus(rw, http.StatusOK, TaskStatus{State: StateRunning})
		return
	}
	p.w.ServeHTTP(rw, r)
}

// TestDispatchDuplicateCompletionDeduped makes the same shard complete
// twice — once on the reassigned worker, once (late) on the original — and
// requires exactly one copy in the merge and a dedup count of 1.
func TestDispatchDuplicateCompletionDeduped(t *testing.T) {
	want := serialRender(t)
	slow := &freezeProxy{w: NewWorker()}
	slow.frozen.Store(true)
	srvSlow := httptest.NewServer(slow)
	t.Cleanup(srvSlow.Close)

	inner := NewWorker()
	var once sync.Once
	srvFast := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			// Reassignment reached the healthy worker: thaw the original so
			// its (already running or finished) shard surfaces as a late
			// duplicate completion.
			once.Do(func() { slow.frozen.Store(false) })
		}
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(srvFast.Close)

	opts := fastOpts([]string{addrOf(srvSlow), addrOf(srvFast)})
	opts.Shards = 1
	var log bytes.Buffer
	opts.Log = &log
	res, err := Dispatch(testCampaign, testParams(), opts)
	if err != nil {
		t.Fatalf("dispatch: %v\nlog:\n%s", err, log.String())
	}
	if got := renderResult(t, res); got != want {
		t.Errorf("output with duplicate completion diverges from serial")
	}
	if res.Deduped != 1 {
		t.Errorf("deduped = %d, want 1\nlog:\n%s", res.Deduped, log.String())
	}
	if res.Reassigned != 1 {
		t.Errorf("reassigned = %d, want 1", res.Reassigned)
	}
}

// miniScenario is a one-cell k=4 matrix spec, compiled: the cheapest
// campaign that goes through the "scenario" registry name.
func miniScenario(t *testing.T) *scenario.Compiled {
	t.Helper()
	c, err := scenario.Compile(&scenario.Spec{
		Name:       "dispatch-mini",
		Family:     scenario.FamilyMatrix,
		Topology:   &scenario.TopologySpec{K: 4},
		Scale:      &scenario.ScaleSpec{SizeScale: 1024},
		DurationMS: 5,
		Workloads:  []scenario.WorkloadSpec{{Kind: "permutation"}},
		Schemes:    []string{"DCTCP"},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDispatchRejectsMismatchedResult gives the first worker a forged
// result the coordinator must refuse to merge, retiring the worker and
// recovering on the healthy one. Two forgeries of this schema version, so
// that decoding reads past the manifest: a manifest carrying a
// foreign config hash (a stale binary's output), and — for a dispatched
// scenario, whose tasks and manifests carry the spec's family name — a
// manifest with the right config under the wrong campaign name.
func TestDispatchRejectsMismatchedResult(t *testing.T) {
	mini := miniScenario(t)
	for _, tc := range []struct {
		name, campaign string
		params         exp.RunParams
		taskCampaign   string // the name tasks and manifests must carry
		forge          func(task Task) exp.ShardManifest
		wantLog        string
	}{
		{
			name: "foreign config hash", campaign: testCampaign, params: testParams(), taskCampaign: testCampaign,
			forge: func(task Task) exp.ShardManifest {
				// Internally consistent (hash matches desc) but not the
				// config the coordinator asked for.
				return exp.ShardManifest{SchemaVersion: exp.ShardSchemaVersion, Campaign: task.Campaign, Config: "evil config", ConfigHash: exp.HashConfig("evil config"), ShardCount: 1}
			},
			wantLog: "config hash mismatch",
		},
		{
			name: "scenario under a foreign campaign name", campaign: exp.CampaignScenario,
			params: exp.RunParams{Jobs: 2, Scenario: mini.JSON}, taskCampaign: exp.CampaignMatrix,
			forge: func(task Task) exp.ShardManifest {
				return exp.ShardManifest{SchemaVersion: exp.ShardSchemaVersion, Campaign: exp.CampaignFCT, Config: task.Config, ConfigHash: task.ConfigHash, ShardCount: 1}
			},
			wantLog: `result for campaign "fct"`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, _, err := exp.RunCampaignShard(tc.campaign, tc.params, exp.Unsharded, nil)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			serial, err := exp.MergeShardBlobs([]exp.ShardBlob{{Name: "serial.json", Data: data}})
			if err != nil {
				t.Fatalf("serial merge: %v", err)
			}
			var want bytes.Buffer
			serial.Render(&want)

			evil := http.NewServeMux()
			var posted atomic.Value
			evil.HandleFunc("POST /task", func(rw http.ResponseWriter, r *http.Request) {
				var task Task
				json.NewDecoder(r.Body).Decode(&task)
				posted.Store(task)
				writeStatus(rw, http.StatusAccepted, TaskStatus{ID: task.ID, State: StateRunning})
			})
			evil.HandleFunc("GET /task/{id}", func(rw http.ResponseWriter, r *http.Request) {
				writeStatus(rw, http.StatusOK, TaskStatus{ID: r.PathValue("id"), State: StateDone})
			})
			evil.HandleFunc("GET /task/{id}/result", func(rw http.ResponseWriter, r *http.Request) {
				json.NewEncoder(rw).Encode(struct {
					Manifest exp.ShardManifest `json:"manifest"`
				}{tc.forge(posted.Load().(Task))})
			})
			srvEvil := httptest.NewServer(evil)
			t.Cleanup(srvEvil.Close)
			srvGood := startWorker(t, NewWorker())

			opts := fastOpts([]string{addrOf(srvEvil), addrOf(srvGood)})
			opts.Shards = 1
			var log bytes.Buffer
			opts.Log = &log
			res, err := Dispatch(tc.campaign, tc.params, opts)
			if err != nil {
				t.Fatalf("dispatch: %v\nlog:\n%s", err, log.String())
			}
			if got := renderResult(t, res); got != want.String() {
				t.Errorf("output after forged result diverges from serial")
			}
			if res.Reassigned != 1 {
				t.Errorf("reassigned = %d, want 1\nlog:\n%s", res.Reassigned, log.String())
			}
			if !strings.Contains(log.String(), tc.wantLog) {
				t.Errorf("log does not mention %q:\n%s", tc.wantLog, log.String())
			}
			if got := posted.Load().(Task).Campaign; got != tc.taskCampaign {
				t.Errorf("task names campaign %q, want %q", got, tc.taskCampaign)
			}
			enc, err := exp.DecodeShard(res.Blobs[0])
			if err != nil {
				t.Fatal(err)
			}
			if got := enc.ShardManifest().Campaign; got != tc.taskCampaign {
				t.Errorf("returned manifest names campaign %q, want %q", got, tc.taskCampaign)
			}
		})
	}
}

// TestWorkerRejectsMisnamedCampaign pins the worker side of the same
// rule: a task addressed to "scenario" — whose shard files would carry
// the family name, which the coordinator refuses — is rejected before any
// simulation runs.
func TestWorkerRejectsMisnamedCampaign(t *testing.T) {
	srv := startWorker(t, NewWorker())
	mini := miniScenario(t)
	task := newTask(exp.CampaignScenario, exp.RunParams{Scenario: mini.JSON}, mini.Desc, mini.Hash, exp.Unsharded)
	body, _ := json.Marshal(task)
	resp, err := http.Post(srv.URL+"/task", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "whose shard files carry") {
		t.Fatalf("status = %d (%s), want 400 naming the family", resp.StatusCode, msg)
	}
}

// TestWorkerRejectsForeignConfigHash pins the worker-side precheck: a task
// whose config hash differs from this binary's own derivation is refused
// with 409 before any simulation runs.
func TestWorkerRejectsForeignConfigHash(t *testing.T) {
	srv := startWorker(t, NewWorker())
	task := shardTask(t, exp.Unsharded)
	task.ConfigHash = exp.HashConfig("not the real config")
	task.ID = TaskID(testCampaign, task.ConfigHash, task.Shard())
	body, _ := json.Marshal(task)
	resp, err := http.Post(srv.URL+"/task", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(msg), "config hash mismatch") {
		t.Fatalf("409 body does not explain the mismatch: %s", msg)
	}
}

// TestWorkerIdempotentResubmission pins that re-posting a known task ID
// returns the existing task's status instead of executing the shard again.
func TestWorkerIdempotentResubmission(t *testing.T) {
	w := NewWorker()
	srv := startWorker(t, w)
	body, _ := json.Marshal(shardTask(t, exp.Unsharded))
	post := func() int {
		resp, err := http.Post(srv.URL+"/task", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := post(); code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	if code := post(); code != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200 (existing status)", code)
	}
	w.mu.Lock()
	accepted := w.accepted
	w.mu.Unlock()
	if accepted != 1 {
		t.Fatalf("accepted = %d, want 1 — resubmission started the shard again", accepted)
	}
}

// TestDispatchAllWorkersDead pins the terminal failure: when every worker
// is gone, Dispatch reports the last error instead of hanging.
func TestDispatchAllWorkersDead(t *testing.T) {
	srv := httptest.NewServer(nil)
	srv.Close() // nothing listens: every request fails
	opts := fastOpts([]string{addrOf(srv)})
	opts.MaxAttempts = 2
	_, err := Dispatch(testCampaign, testParams(), opts)
	if err == nil {
		t.Fatal("dispatch succeeded with no live workers")
	}
}

// shardTask builds the task for one shard of the test campaign, as Dispatch
// would.
func shardTask(t *testing.T, shard exp.ShardSpec) *Task {
	t.Helper()
	p := testParams().WithDefaults()
	desc, hash, _, err := exp.CampaignProbe(testCampaign, p)
	if err != nil {
		t.Fatal(err)
	}
	task := newTask(testCampaign, p, desc, hash, shard)
	return &task
}

// oneCellTask builds the task for cell i of the test campaign.
func oneCellTask(t *testing.T, i int) *Task {
	t.Helper()
	_, _, cells, err := exp.CampaignProbe(testCampaign, testParams())
	if err != nil {
		t.Fatal(err)
	}
	return shardTask(t, exp.ShardSpec{Index: i, Count: cells})
}

// TestAttemptCompletesWithinPollInterval pins that completion is an event,
// not a poll result: with a 2 s heartbeat period a one-cell task (tens of
// milliseconds of simulation) is submitted, finished, fetched, decoded and
// verified in a fraction of one period.
func TestAttemptCompletesWithinPollInterval(t *testing.T) {
	srv := startWorker(t, NewWorker())
	opts := fastOpts([]string{addrOf(srv)})
	opts.PollInterval = 2 * time.Second
	c := newCoordinator(opts)
	task := oneCellTask(t, 0)

	start := time.Now()
	done, err := c.runAttempt(<-c.idle, task)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("attempt: %v", err)
	}
	if m := done.file.ShardManifest(); len(m.CellIndices) != 1 || m.ShardIndex != 0 {
		t.Errorf("result manifest %+v is not the one-cell shard 0", m)
	}
	if elapsed > opts.PollInterval/2 {
		t.Errorf("one-cell task took %v at PollInterval %v: completion waited for a poll tick", elapsed, opts.PollInterval)
	}
}

// TestDispatchBrokenConnectionMidWait tears a worker down while the
// coordinator's heartbeat hangs at it, with a PollInterval far longer than
// the whole campaign: the broken connection itself must retire the worker
// and move the shard, not the next poll.
func TestDispatchBrokenConnectionMidWait(t *testing.T) {
	want := serialRender(t)

	srvA := startVictim(t)
	srvB := startWorker(t, NewWorker())

	opts := fastOpts([]string{addrOf(srvA), addrOf(srvB)})
	opts.Shards = 2
	opts.PollInterval = time.Minute
	opts.StallTimeout = 2 * time.Minute
	var log bytes.Buffer
	opts.Log = &log
	start := time.Now()
	res, err := Dispatch(testCampaign, testParams(), opts)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("dispatch: %v\nlog:\n%s", err, log.String())
	}
	if got := renderResult(t, res); got != want {
		t.Errorf("output after worker teardown diverges from serial")
	}
	if res.Reassigned != 1 {
		t.Errorf("reassigned = %d, want 1\nlog:\n%s", res.Reassigned, log.String())
	}
	if !strings.Contains(log.String(), "heartbeat lost") {
		t.Errorf("log does not mention the lost heartbeat:\n%s", log.String())
	}
	if elapsed > opts.PollInterval/2 {
		t.Errorf("campaign took %v at PollInterval %v: the torn-down worker was noticed by a poll, not by its broken connection",
			elapsed, opts.PollInterval)
	}
}
