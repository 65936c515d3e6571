package dispatch

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"xmp/internal/exp"
)

// FuzzWorkerWire sends arbitrary bodies to a worker's task submit and
// arbitrary ?wait=&seen= strings to its status heartbeat. Nothing may
// panic (a handler panic drops the connection), every body that is not a
// valid task must get a 4xx, and no heartbeat may hang past the worker's
// MaxWait. The seeds are real tasks carrying a foreign config hash, so no
// shard ever runs.
func FuzzWorkerWire(f *testing.F) {
	w := NewWorker()
	w.MaxWait = 10 * time.Millisecond
	// A running task that never finishes a cell: its heartbeat hangs until
	// the wait runs out.
	const hangID = "hang"
	w.tasks[hangID] = &workerTask{state: StateRunning, total: 1, changed: make(chan struct{})}
	srv := httptest.NewServer(w)
	f.Cleanup(srv.Close)

	foreign := exp.HashConfig("not the real config")
	for _, tc := range []struct {
		campaign string
		p        exp.RunParams
	}{
		{exp.CampaignAblation, exp.RunParams{Jobs: 2}},
		{exp.CampaignFig1, exp.RunParams{Timescale: 0.1}},
		{exp.CampaignMatrix, exp.RunParams{K: 4, SizeScale: 1024}},
		{exp.CampaignScenario, exp.RunParams{Scenario: json.RawMessage(`{"name":"s","family":"matrix","topology":{"k":4},"schemes":["DCTCP"]}`)}},
	} {
		task := newTask(tc.campaign, tc.p, "not the real config", foreign, exp.ShardSpec{Index: 0, Count: 2})
		body, err := json.Marshal(task)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, "200", "0")
	}
	f.Add([]byte(`{"campaign":"ablation","shard_count":0}`), "-1", "-5")
	f.Add([]byte(`not json`), "99999999999999999999", "x")
	f.Add([]byte(`{}`), "9223372036854775807", "9223372036854775807")

	f.Fuzz(func(t *testing.T, body []byte, wait, seen string) {
		resp, err := http.Post(srv.URL+"/task", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submit: %v (did the handler panic?)", err)
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch code := resp.StatusCode; {
		case code >= 200 && code < 300:
			if !validTask(body) {
				t.Fatalf("submit accepted (%d) a body that is no valid task: %s", code, reply)
			}
		case code < 400 || code >= 500:
			t.Fatalf("submit answered %d, want a 4xx: %s", code, reply)
		}

		start := time.Now()
		resp, err = http.Get(srv.URL + "/task/" + hangID + "?" + url.Values{"wait": {wait}, "seen": {seen}}.Encode())
		if err != nil {
			t.Fatalf("heartbeat: %v (did the handler panic?)", err)
		}
		var st TaskStatus
		decodeErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if took := time.Since(start); took > w.MaxWait+2*time.Second {
			t.Fatalf("heartbeat ?wait=%q hung %v, past the worker's %v cap", wait, took, w.MaxWait)
		}
		if resp.StatusCode != http.StatusOK || decodeErr != nil || st.State != StateRunning {
			t.Fatalf("heartbeat answered %d %+v (%v), want 200 and the running task", resp.StatusCode, st, decodeErr)
		}
	})
}

// validTask re-derives, independently of handleSubmit, whether body is a
// task this binary would run: a task of a known campaign, under the config
// hash this binary derives, for a valid shard, with its canonical ID.
func validTask(body []byte) bool {
	var t Task
	if json.Unmarshal(body, &t) != nil {
		return false
	}
	m, err := exp.ProbeManifest(t.Campaign, t.Params)
	return err == nil && m.Campaign == t.Campaign && m.ConfigHash == t.ConfigHash &&
		t.Shard().Validate() == nil && t.ID == TaskID(t.Campaign, t.ConfigHash, t.Shard())
}
