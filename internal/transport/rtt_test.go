package transport

import (
	"testing"

	"xmp/internal/sim"
)

func testEstimator() rttEstimator {
	cfg := DefaultConfig()
	return newRTTEstimator(cfg)
}

func TestRTTFirstSample(t *testing.T) {
	e := testEstimator()
	if e.SRTT() != 0 {
		t.Fatal("srtt before samples")
	}
	if e.RTO() != 200*sim.Millisecond {
		t.Fatalf("initial RTO %v", e.RTO())
	}
	e.addSample(400 * sim.Microsecond)
	if e.SRTT() != 400*sim.Microsecond {
		t.Fatalf("srtt %v", e.SRTT())
	}
	// RTO = srtt + 4*rttvar = 400 + 4*200 = 1.2ms, clamped to RTOmin.
	if e.RTO() != 200*sim.Millisecond {
		t.Fatalf("RTO %v, want clamped to 200ms", e.RTO())
	}
}

func TestRTTSmoothing(t *testing.T) {
	e := testEstimator()
	e.addSample(1000 * sim.Microsecond)
	e.addSample(2000 * sim.Microsecond)
	// srtt = 7/8*1000 + 1/8*2000 = 1125us.
	if got := e.SRTT(); got != 1125*sim.Microsecond {
		t.Fatalf("srtt %v, want 1.125ms", got)
	}
}

func TestRTTIgnoresNonPositive(t *testing.T) {
	e := testEstimator()
	e.addSample(0)
	e.addSample(-sim.Millisecond)
	if e.SRTT() != 0 {
		t.Fatal("non-positive samples accepted")
	}
}

func TestRTOAboveMinWhenRTTLarge(t *testing.T) {
	e := testEstimator()
	e.addSample(100 * sim.Millisecond)
	// srtt=100ms, rttvar=50ms -> rto=300ms > RTOmin.
	if got := e.RTO(); got != 300*sim.Millisecond {
		t.Fatalf("RTO %v, want 300ms", got)
	}
}

func TestRTOBackoffCapped(t *testing.T) {
	e := testEstimator()
	for i := 0; i < 20; i++ {
		e.backoff()
	}
	if e.RTO() != 4*sim.Second {
		t.Fatalf("RTO %v, want capped at rtoMax 4s", e.RTO())
	}
}

func TestRTOVarianceShrinksOnStableRTT(t *testing.T) {
	e := testEstimator()
	for i := 0; i < 100; i++ {
		e.addSample(500 * sim.Microsecond)
	}
	// With zero variance the RTO converges to max(RTOmin, srtt).
	if e.RTO() != 200*sim.Millisecond {
		t.Fatalf("RTO %v", e.RTO())
	}
	if e.SRTT() != 500*sim.Microsecond {
		t.Fatalf("srtt %v drifted", e.SRTT())
	}
}
