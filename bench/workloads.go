package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"xmp/internal/dispatch"
	"xmp/internal/exp"
	"xmp/internal/scenario"
)

// workloadDef is one benchmark workload: a scenario spec under workloads/
// plus how a pass executes it. Why each exists is recorded in
// BENCHMARK.json and README.md.
type workloadDef struct {
	name       string
	dispatched bool // see execution
}

var workloads = []*workloadDef{
	{name: "bulk-k8"},
	{name: "shortflow-k8"},
	{name: "chaos-k8"},
	{name: "harness-k4", dispatched: true},
}

// The harness workload's dispatch shape: 2 workers x Jobs 1 is two
// simulating goroutines, the core count of the machine the benchmark was
// sized on.
const (
	dispatchWorkers = 2
	dispatchShards  = 8
)

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// loadSpec reads the workload's spec, stamps the seed into scale.seed (and,
// once the chaos file is inlined, chaos.seed) and returns the resolved
// form. Passes re-compile the resolved spec, which is the identity
// resolution, so the program under test only ever sees generated inputs.
func (w *workloadDef) loadSpec(opt options) (*scenario.Spec, error) {
	s, dir, err := scenario.Load(filepath.Join(opt.dir, "workloads", w.name+".json"))
	if err != nil {
		return nil, err
	}
	if s.Scale == nil {
		s.Scale = &scenario.ScaleSpec{}
	}
	s.Scale.Seed = opt.seed
	r, err := scenario.Resolve(s, dir)
	if err != nil {
		return nil, err
	}
	if r.Chaos != nil {
		r.Chaos.Seed = opt.seed
	}
	if opt.smoke {
		r.Topology.K = 4
		r.DurationMS = 5
		for i := range r.Workloads {
			if r.Workloads[i].Senders > 256 {
				r.Workloads[i].Senders = 256
			}
		}
	}
	return r, nil
}

// execution is how one pass runs a compiled spec.
type execution struct {
	// dispatched passes go through dispatch.Dispatch against loopback
	// workers, shards wide; the others through an in-process RunShard.
	dispatched bool
	shards     int
	// jobs is the in-process pool width (the dispatch workers run Jobs 1).
	jobs int
}

// execution returns how the workload's timed passes run.
func (w *workloadDef) execution(smoke bool) execution {
	how := execution{dispatched: w.dispatched, shards: dispatchShards, jobs: 1}
	if smoke {
		// Every shard costs at least one 200 ms heartbeat poll, which the
		// smoke scale cannot afford eight of.
		how.shards = dispatchWorkers
	}
	return how
}

// inProcessPool is the jobs=2 in-process run: the render the dispatched
// workload's passes must equal byte for byte (and that workload's warm-up),
// and the pool the traced run holds against the sum of its cells.
var inProcessPool = execution{jobs: 2}

// runPass runs the spec once, compile to rendered text, the way `xmpsim
// run` (or `xmpsim dispatch`) does. Spans are recorded only when tr is
// non-nil (the traced run); end-to-end passes hand in nil. A panic anywhere
// below is reported as the pass's error: a failed pass fails its cells, it
// does not take the benchmark down.
func runPass(r *scenario.Spec, how execution, tr *tracer) (text []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	sp := tr.begin("scenario.compile")
	c, err := scenario.Compile(r, "")
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var merged *exp.MergeResult
	if how.dispatched {
		sp = tr.begin("dispatch.dispatch")
		res, err := dispatchCompiled(c, dispatchWorkers, how.shards)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		merged = res.Merged
	} else {
		sp = tr.begin("exp.run_shard")
		enc, err := c.RunShard(exp.Unsharded, how.jobs, nil)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("exp.encode")
		var blob bytes.Buffer
		err = enc.Encode(&blob)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("exp.merge")
		merged, err = exp.MergeShardBlobs([]exp.ShardBlob{{Name: r.Name, Data: blob.Bytes()}})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp = tr.begin("exp.render")
	var out bytes.Buffer
	merged.Render(&out)
	tr.end(sp)
	return out.Bytes(), nil
}

// dispatchCompiled runs a compiled scenario through dispatch.Dispatch with
// the coordinator defaults `xmpsim dispatch` uses, against fresh in-process
// loopback workers. Fresh per call because a worker answers a repeated task
// ID from its result cache, which would turn every pass after the first
// into a cache read.
func dispatchCompiled(c *scenario.Compiled, nworkers, shards int) (*dispatch.Result, error) {
	addrs := make([]string, nworkers)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: dispatch.NewWorker()}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(ln) // returns ErrServerClosed once Close below runs
		}()
		defer func() {
			srv.Close()
			<-done
		}()
		addrs[i] = ln.Addr().String()
	}
	return dispatch.Dispatch(exp.CampaignScenario,
		exp.RunParams{Jobs: 1, Scenario: c.JSON},
		dispatch.Options{Workers: addrs, Shards: shards})
}

func digest(text []byte) string {
	sum := sha256.Sum256(text)
	return hex.EncodeToString(sum[:])
}

func (w *workloadDef) expectedPath(opt options) string {
	return filepath.Join(opt.dir, "expected", fmt.Sprintf("%s.seed%d.sha256", w.name, opt.seed))
}

// expectedDigest returns the pinned digest of the workload's rendered text
// for this seed, or "" when the seed is unpinned (or the scale is smoke,
// which the pins do not describe) and passes are checked against the
// warm-up pass instead.
func (w *workloadDef) expectedDigest(opt options) (string, error) {
	if opt.smoke {
		return "", nil
	}
	data, err := os.ReadFile(w.expectedPath(opt))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(data)), nil
}

// pinExpected runs one pass and writes its digest as the seed's pin.
func pinExpected(w *workloadDef, opt options) error {
	if opt.smoke {
		return fmt.Errorf("pins describe the full scale; drop -smoke")
	}
	r, err := w.loadSpec(opt)
	if err != nil {
		return err
	}
	text, err := runPass(r, w.execution(false), nil)
	if err != nil {
		return err
	}
	path := w.expectedPath(opt)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fmt.Printf("%s  %s\n", digest(text), path)
	return os.WriteFile(path, []byte(digest(text)+"\n"), 0o644)
}
