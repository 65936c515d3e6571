package exp

import (
	"encoding/json"
	"testing"

	"xmp/internal/chaos"
	"xmp/scenarios"
)

// TestRobustnessFaultsBite runs the campaign's XMP-2 cell and checks the
// whole canonical schedule was applied to a run that carried traffic.
func TestRobustnessFaultsBite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a k=8 robustness cell")
	}
	data, err := scenarios.FS.ReadFile("robustness.chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	var sched chaos.Schedule
	if err := json.Unmarshal(data, &sched); err != nil {
		t.Fatal(err)
	}
	pt := soleCell[RobustnessPoint](t, CampaignRobustness, 4, 5)
	if pt.Scheme != "XMP-2" {
		t.Fatalf("cell 4 of the robustness campaign is %q, want XMP-2", pt.Scheme)
	}
	if pt.Faults != len(sched.Events) || pt.Faults == 0 {
		t.Errorf("applied %d of %d fault events", pt.Faults, len(sched.Events))
	}
	if pt.Flows == 0 || pt.GoodputMbps <= 0 {
		t.Errorf("cell produced no traffic: %+v", pt)
	}
	if pt.P999Ms <= 0 {
		t.Errorf("implausible FCT tail: p999=%v", pt.P999Ms)
	}
}
