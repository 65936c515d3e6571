package dispatch

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"xmp/internal/exp"
)

// workerEnv, set to 1, makes the test binary a worker process: how the
// tests below reach StartLocalWorkers, readAnnouncement and Serve without
// an xmpsim binary.
const workerEnv = "XMP_DISPATCH_TEST_WORKER"

// TestMain runs the test binary as `xmpsim worker` when workerEnv is set:
// StartLocalWorkers spawns "<exe> worker -listen ADDR", and the child
// serves the worker protocol until it is killed.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if len(os.Args) != 4 || os.Args[1] != "worker" || os.Args[2] != "-listen" {
			fmt.Fprintf(os.Stderr, "test worker: unexpected command line %q\n", os.Args)
			os.Exit(2)
		}
		if err := Serve(os.Args[3], NewWorker(), os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "test worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// TestLocalWorkersMatchLocalRun spawns two worker processes through
// StartLocalWorkers, dispatches a small figure campaign across them in four
// shards and checks the merged render is the bytes of a local run.
func TestLocalWorkersMatchLocalRun(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(workerEnv, "1")
	addrs, stop, err := StartLocalWorkers(exe, 2, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if len(addrs) != 2 || addrs[0] == addrs[1] {
		t.Fatalf("workers announced %v, want two addresses", addrs)
	}

	p := exp.RunParams{Timescale: 0.1, Jobs: 1}
	data, _, err := exp.RunCampaignShard(exp.CampaignFig1, p, exp.Unsharded, nil)
	if err != nil {
		t.Fatal(err)
	}
	local, err := exp.MergeShardBlobs([]exp.ShardBlob{{Name: "local.json", Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	local.Render(&want)

	opts := fastOpts(addrs)
	opts.Shards = 4
	res, err := Dispatch(exp.CampaignFig1, p, opts)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if got := renderResult(t, res); got != want.String() {
		t.Fatalf("dispatched render differs from the local run:\n--- local ---\n%s\n--- dispatched ---\n%s", want.String(), got)
	}
}

func TestReadAnnouncement(t *testing.T) {
	if addr, err := readAnnouncement(strings.NewReader("xmpsim worker listening on 127.0.0.1:7701\n")); err != nil || addr != "127.0.0.1:7701" {
		t.Fatalf("readAnnouncement = %q, %v", addr, err)
	}
	for _, tc := range []struct {
		out  io.Reader
		want string
	}{
		{strings.NewReader(""), "exited before announcing"},
		{strings.NewReader("\n"), "empty announcement"},
		{strings.NewReader("listening nowhere\n"), "unexpected announcement"},
	} {
		if _, err := readAnnouncement(tc.out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("readAnnouncement error %v, want one naming %q", err, tc.want)
		}
	}
}

// TestServeAnnouncesAndServes runs Serve in-process: the announcement
// readAnnouncement parses names a listener that answers the protocol, and
// an address that cannot be bound is an error, not a hang.
func TestServeAnnouncesAndServes(t *testing.T) {
	if err := Serve("127.0.0.1:-1", NewWorker(), io.Discard); err == nil {
		t.Fatal("Serve bound a negative port")
	}
	announce, w := io.Pipe()
	go Serve("127.0.0.1:0", NewWorker(), w) // serves until the test binary exits
	addr, err := readAnnouncement(announce)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}
