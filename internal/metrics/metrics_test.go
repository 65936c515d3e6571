package metrics

import (
	"encoding/json"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"xmp/internal/sim"
)

func TestDistBasics(t *testing.T) {
	var d Dist
	for _, v := range []float64{5, 1, 3, 2, 4} {
		d.Add(v)
	}
	if d.N() != 5 {
		t.Fatal("N wrong")
	}
	if d.Mean() != 3 {
		t.Fatalf("mean %v", d.Mean())
	}
	if d.Min() != 1 || d.Max() != 5 {
		t.Fatalf("min/max %v/%v", d.Min(), d.Max())
	}
	if got := d.Percentile(50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := d.Percentile(90); got != 5 {
		t.Fatalf("p90 = %v", got)
	}
	if got := d.Percentile(10); got != 1 {
		t.Fatalf("p10 = %v", got)
	}
}

// TestDistResetKeepsBuffer: a reset Dist answers as a new one, and
// refilling it up to its old size allocates nothing.
func TestDistResetKeepsBuffer(t *testing.T) {
	var d Dist
	for v := 1000.0; v > 0; v-- {
		d.Add(v)
	}
	if d.Percentile(50) != 500 {
		t.Fatalf("p50 %v", d.Percentile(50))
	}
	d.Reset()
	if d.N() != 0 || d.Mean() != 0 || d.Percentile(50) != 0 {
		t.Fatalf("reset Dist holds n=%d mean=%v p50=%v", d.N(), d.Mean(), d.Percentile(50))
	}
	allocs := testing.AllocsPerRun(10, func() {
		d.Reset()
		for v := 1000.0; v > 0; v-- {
			d.Add(v + 1000)
		}
	})
	if allocs != 0 {
		t.Errorf("refilling a reset Dist allocated %v times, want 0", allocs)
	}
	if d.Min() != 1001 || d.Max() != 2000 || d.Mean() != 1500.5 || d.N() != 1000 {
		t.Errorf("refilled Dist: min %v max %v mean %v n %d, want 1001 2000 1500.5 1000", d.Min(), d.Max(), d.Mean(), d.N())
	}
}

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Percentile(50) != 0 || d.FractionAbove(1) != 0 || d.CDFAt(1) != 0 {
		t.Fatal("empty dist should answer zeros")
	}
	if xs, fs := d.CDF(); xs != nil || fs != nil {
		t.Fatal("empty CDF should be nil")
	}
	if d.Summary() != "n=0" {
		t.Fatal("summary wrong")
	}
}

func TestDistFractionAbove(t *testing.T) {
	var d Dist
	for i := 1; i <= 10; i++ {
		d.Add(float64(i) * 100) // 100..1000
	}
	if got := d.FractionAbove(300); got != 0.7 {
		t.Fatalf("FractionAbove(300) = %v, want 0.7", got)
	}
	if got := d.FractionAbove(1000); got != 0 {
		t.Fatalf("FractionAbove(max) = %v", got)
	}
	if got := d.FractionAbove(0); got != 1 {
		t.Fatalf("FractionAbove(0) = %v", got)
	}
}

func TestDistCDF(t *testing.T) {
	var d Dist
	for _, v := range []float64{1, 1, 2, 3, 3, 3} {
		d.Add(v)
	}
	xs, fs := d.CDF()
	wantX := []float64{1, 2, 3}
	wantF := []float64{2.0 / 6, 3.0 / 6, 1}
	if len(xs) != 3 {
		t.Fatalf("CDF points %v", xs)
	}
	for i := range wantX {
		if xs[i] != wantX[i] || math.Abs(fs[i]-wantF[i]) > 1e-12 {
			t.Fatalf("CDF[%d] = (%v,%v), want (%v,%v)", i, xs[i], fs[i], wantX[i], wantF[i])
		}
	}
	if got := d.CDFAt(2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CDFAt(2) = %v", got)
	}
}

func TestDistAddDuration(t *testing.T) {
	var d Dist
	d.AddDuration(250 * sim.Microsecond)
	if got := d.Mean(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("duration stored as %v ms, want 0.25", got)
	}
}

// Property: percentiles are monotone in p, bounded by [min, max], and the
// CDF is a proper nondecreasing function hitting 1.
func TestDistProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var d Dist
		for _, r := range raw {
			d.Add(float64(r))
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := d.Percentile(p)
			if v < prev || v < d.Min() || v > d.Max() {
				return false
			}
			prev = v
		}
		xs, fs := d.CDF()
		if fs[len(fs)-1] != 1 {
			return false
		}
		if !sort.Float64sAreSorted(xs) || !sort.Float64sAreSorted(fs) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares index %v", got)
	}
	// One user hogging: index -> 1/n.
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("single-hog index %v, want 0.25", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("degenerate cases wrong")
	}
	// Index is scale-invariant.
	a := JainIndex([]float64{1, 2, 3})
	b := JainIndex([]float64{10, 20, 30})
	if math.Abs(a-b) > 1e-12 {
		t.Fatal("not scale-invariant")
	}
}

func TestRateSeries(t *testing.T) {
	r := NewRateSeries(100 * sim.Millisecond)
	// 1 MB in bin 0, 2 MB in bin 3.
	r.Add(sim.Time(10*sim.Millisecond), 500000)
	r.Add(sim.Time(90*sim.Millisecond), 500000)
	r.Add(sim.Time(350*sim.Millisecond), 2000000)
	if r.Bins() != 4 {
		t.Fatalf("bins %d", r.Bins())
	}
	if got := r.RateBps(0); got != 80e6 { // 1 MB / 0.1 s
		t.Fatalf("bin0 %v", got)
	}
	if got := r.RateBps(1); got != 0 {
		t.Fatalf("bin1 %v", got)
	}
	if got := r.RateBps(3); got != 160e6 {
		t.Fatalf("bin3 %v", got)
	}
	if got := r.RateBps(99); got != 0 {
		t.Fatal("out of range bin should be 0")
	}
	// Average over all four bins: 3 MB / 0.4 s = 60 Mbps.
	if got := r.AvgRateBps(0, 4); got != 60e6 {
		t.Fatalf("avg %v", got)
	}
	if got := r.Normalized(0, 1e9); math.Abs(got-0.08) > 1e-12 {
		t.Fatalf("normalized %v", got)
	}
	if r.BinWidth() != 100*sim.Millisecond {
		t.Fatal("bin width accessor")
	}
}

func TestRateSeriesEdges(t *testing.T) {
	r := NewRateSeries(sim.Second)
	if r.AvgRateBps(0, 10) != 0 {
		t.Fatal("empty series avg should be 0")
	}
	if r.Normalized(0, 0) != 0 {
		t.Fatal("zero capacity should normalize to 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero bin width accepted")
		}
	}()
	NewRateSeries(0)
}

func TestMbps(t *testing.T) {
	if Mbps(513.6e6) != 513.6 {
		t.Fatal("Mbps conversion wrong")
	}
}

func TestDistJSONRoundTrip(t *testing.T) {
	// Shard export/merge relies on a decoded Dist being indistinguishable
	// from the original: same samples, and the exact insertion-order sum so
	// Mean() is bit-identical (re-summing sorted samples would not be).
	var d Dist
	rng := sim.NewRNG(7)
	for i := 0; i < 1000; i++ {
		d.Add(rng.Float64() * 1e6 / 3)
	}
	d.Percentile(50) // force the sorted state before marshaling

	b, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	var got Dist
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.N() != d.N() {
		t.Fatalf("N %d, want %d", got.N(), d.N())
	}
	if got.Mean() != d.Mean() {
		t.Fatalf("Mean %v, want %v (exact)", got.Mean(), d.Mean())
	}
	for _, p := range []float64{0, 10, 50, 95, 100} {
		if got.Percentile(p) != d.Percentile(p) {
			t.Fatalf("P%v %v, want %v", p, got.Percentile(p), d.Percentile(p))
		}
	}
	// A second round trip must be byte-stable.
	b2, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("marshal not stable:\n%s\nvs\n%s", b, b2)
	}
}
