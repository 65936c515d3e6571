package chaos_test

import (
	"encoding/json"
	"math"
	"math/big"
	"os"
	"reflect"
	"strings"
	"testing"

	"xmp/internal/chaos"
	"xmp/scenarios"
)

// overflowing is a schedule Validate once accepted and a run then crashed
// on: the link heals at 9e18 + 9e18 ns, which wraps the int64 clock into
// the past.
const overflowing = `{"seed":11,"events":[{"at":9000000000000000000,"kind":"link-down","target":"core0.0->agg0.0","dur":9000000000000000000}]}`

func TestValidateRefusesClockOverflow(t *testing.T) {
	_, err := chaos.ParseSchedule([]byte(overflowing))
	if err == nil || !strings.Contains(err.Error(), "event 0") {
		t.Fatalf("ParseSchedule(%s) = %v, want an error naming event 0", overflowing, err)
	}
	jitter := chaos.Schedule{Events: []chaos.Event{
		{At: ms, Kind: chaos.LinkDown, Target: "l", Dur: ms},
		{At: math.MaxInt64 / 2, Kind: chaos.Jitter, Target: "l", Extra: ms, Dur: math.MaxInt64 / 4, Period: math.MaxInt64 / 2},
	}}
	if err := jitter.Validate(); err == nil || !strings.Contains(err.Error(), "event 1") {
		t.Fatalf("jitter whose last resample passes the clock: %v, want an error naming event 1", err)
	}
	jitter.Events[1].Period = math.MaxInt64 / 8
	if err := jitter.Validate(); err != nil {
		t.Fatalf("jitter inside the clock's range refused: %v", err)
	}
}

// FuzzParseSchedule feeds arbitrary documents to ParseSchedule, which reads
// chaos files and inline chaos blocks of user specs. It must never panic;
// an accepted schedule round-trips MarshalJSON → ParseSchedule to an equal
// value, and every accepted event ends inside the simulation clock. The
// corpus is seeded with the chaos files and inline chaos blocks of
// scenarios/, the robustness benchmark workload's chaos file and the
// overflowing schedule.
func FuzzParseSchedule(f *testing.F) {
	entries, err := scenarios.FS.ReadDir(".")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		data, err := scenarios.FS.ReadFile(e.Name())
		if err != nil {
			f.Fatal(err)
		}
		if strings.HasSuffix(e.Name(), ".chaos.json") {
			f.Add(data)
			continue
		}
		var spec struct{ Chaos json.RawMessage }
		if json.Unmarshal(data, &spec) == nil && len(spec.Chaos) > 0 && spec.Chaos[0] == '{' {
			f.Add([]byte(spec.Chaos))
		}
	}
	bench, err := os.ReadFile("../../bench/workloads/robustness.chaos.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bench)
	f.Add([]byte(overflowing))

	maxClock := big.NewInt(math.MaxInt64)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := chaos.ParseSchedule(data)
		if err != nil {
			return
		}
		out, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal an accepted schedule: %v", err)
		}
		back, err := chaos.ParseSchedule(out)
		if err != nil {
			t.Fatalf("re-parse %s: %v", out, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the schedule:\n  in:  %+v\n  out: %+v", s, back)
		}
		for i, e := range s.Events {
			end := new(big.Int).Add(big.NewInt(int64(e.At)), big.NewInt(int64(e.Dur)))
			if e.Kind == chaos.Jitter {
				end.Add(end, big.NewInt(int64(e.Period)))
			}
			if end.Cmp(maxClock) > 0 {
				t.Fatalf("event %d accepted but ends at %v ns, past the clock", i, end)
			}
		}
	})
}
