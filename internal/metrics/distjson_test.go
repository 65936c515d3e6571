package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"xmp/internal/sim"
)

// edgeFloats are the values where encoding/json's float formatting changes
// shape: the %f/%e switch points, the exponent clean-up, signed zero and
// the ends of the float64 range.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
	1e-7, -1e-7, 9.999999e-7, 1e-6, 1.5e-6, 1e-9, 1e-10, 1e-100,
	1e20, 9.99999999e20, 1e21, -1e21, 1e22, 1e100,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
}

// TestDistMarshalMatchesEncodingJSON pins the writer to encoding/json's
// output for distWire byte for byte — the property that keeps shard files,
// their hashes and the goldens unchanged.
func TestDistMarshalMatchesEncodingJSON(t *testing.T) {
	cases := map[string]distWire{
		"nil samples":   {Sum: 0, Samples: nil},
		"empty samples": {Sum: 0, Samples: []float64{}},
		"edge floats":   {Sum: -1e-7, Samples: edgeFloats},
	}
	for _, f := range edgeFloats {
		cases[jsonFloat(f)] = distWire{Sum: f, Samples: []float64{f}}
	}
	for name, w := range cases {
		want, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("%s: reference marshal: %v", name, err)
		}
		d := &Dist{samples: w.Samples, sum: w.Sum}
		got, err := d.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: MarshalJSON wrote\n%s\nencoding/json writes\n%s", name, got, want)
		}
		var back Dist
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("%s: decoding own output: %v", name, err)
		}
		if !sameWire(distWire{back.sum, back.samples}, w) {
			t.Errorf("%s: round trip gave (%v, %v), want (%v, %v)", name, back.sum, back.samples, w.Sum, w.Samples)
		}
	}
}

func jsonFloat(f float64) string {
	b, _ := appendJSONFloat(nil, f)
	return string(b)
}

// TestDistMarshalRejectsNonFinite pins that NaN and ±Inf fail exactly as
// they do under encoding/json, in the sum and among the samples.
func TestDistMarshalRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, w := range []distWire{{Sum: bad, Samples: []float64{1}}, {Sum: 1, Samples: []float64{1, bad}}} {
			_, want := json.Marshal(w)
			_, got := (&Dist{samples: w.Samples, sum: w.Sum}).MarshalJSON()
			var unsupported *json.UnsupportedValueError
			if !errors.As(got, &unsupported) || want == nil || got.Error() != want.Error() {
				t.Errorf("%v: MarshalJSON error %v, encoding/json's %v", w, got, want)
			}
		}
	}
}

// TestDistUnmarshalIndented pins the scanner on the form shard files carry
// — encoding/json's indented output, one sample per line — and on inputs
// only the encoding/json fallback understands.
func TestDistUnmarshalIndented(t *testing.T) {
	w := distWire{Sum: 6.5, Samples: []float64{1, 2.5, 3e-9}}
	indented, err := json.MarshalIndent(w, "    ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		in      string
		scanned bool // read by the scanner itself, not the fallback
	}{
		{string(indented), true},
		{" {\t\"sum\" : 6.5 ,\r\n \"samples\" : [ 1 , 2.5 , 3e-9 ] } \n", true},
		{`{"samples":[1,2.5,3e-9],"sum":6.5}`, false},
		{`{"Sum":6.5,"SAMPLES":[1,2.5,3e-9],"extra":{}}`, false},
	} {
		if _, ok := scanDist([]byte(c.in)); ok != c.scanned {
			t.Errorf("scanDist(%q) recognised = %v, want %v", c.in, ok, c.scanned)
		}
		var d Dist
		if err := d.UnmarshalJSON([]byte(c.in)); err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if !sameWire(distWire{d.sum, d.samples}, w) {
			t.Errorf("%q decoded to (%v, %v)", c.in, d.sum, d.samples)
		}
	}
	for _, in := range []string{
		`{"sum":1,"samples":[1,]}`, `{"sum":1,"samples":[01]}`, `{"sum":+1,"samples":[]}`,
		`{"sum":1,"samples":[1e999]}`, `{"sum":1,"samples":[0x10]}`, `{"sum":1,"samples":[1] } x`,
		`{"sum":1,"samples":[.5]}`, `{"sum":1,"samples":[1.]}`, `{"sum":1,"samples":[Inf]}`, `{"sum":1,"samples":[1`,
	} {
		if err := new(Dist).UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
}

func sameWire(a, b distWire) bool {
	if math.Float64bits(a.Sum) != math.Float64bits(b.Sum) ||
		(a.Samples == nil) != (b.Samples == nil) || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		if math.Float64bits(a.Samples[i]) != math.Float64bits(b.Samples[i]) {
			return false
		}
	}
	return true
}

// FuzzDistJSON holds the scanner to encoding/json on arbitrary bytes: the
// same accept/reject decision, and on accept the same sum and samples bit
// for bit, nil-ness included. Inputs the scanner recognises on its own are
// the interesting ones; the rest prove the fallback is wired.
func FuzzDistJSON(f *testing.F) {
	for _, seed := range []string{
		`{"sum":0,"samples":null}`, `{"sum":0,"samples":[]}`, `{"sum":-0,"samples":[-0,1e-7,1E+21]}`,
		"{\n  \"sum\": 6.5,\n  \"samples\": [\n    1,\n    2.5\n  ]\n}", `null`, `{}`, `[]`,
		`{"sum":1,"samples":[1,]}`, `{"sum":1e999,"samples":[]}`, `{"sum":1,"samples":[1e-400]}`,
		`{"samples":[1],"sum":1}`, `{"sum":1,"samples":[1],"sum":2}`, `{"sum":"1","samples":[[1]]}`,
		`{"sum":01,"samples":[1.e1]}`, `{"sum":1,"samples":[1]}}`, `{"sum":1 "samples":[1]}`,
	} {
		f.Add([]byte(seed))
	}
	all, err := json.Marshal(distWire{Sum: 1, Samples: edgeFloats})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(all)

	f.Fuzz(func(t *testing.T, in []byte) {
		var want distWire
		wantErr := json.Unmarshal(in, &want)
		if scanned, ok := scanDist(in); ok {
			if wantErr != nil {
				t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", in, wantErr)
			}
			if !sameWire(scanned, want) {
				t.Fatalf("%q: scanner read (%v, %v), encoding/json (%v, %v)", in, scanned.Sum, scanned.Samples, want.Sum, want.Samples)
			}
		}
		var d Dist
		gotErr := d.UnmarshalJSON(in)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: UnmarshalJSON error %v, encoding/json's %v", in, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !sameWire(distWire{d.sum, d.samples}, want) {
			t.Fatalf("%q: decoded (%v, %v), encoding/json (%v, %v)", in, d.sum, d.samples, want.Sum, want.Samples)
		}
		// What decoded must encode, and as encoding/json would encode it.
		got, err := d.MarshalJSON()
		ref, refErr := json.Marshal(want)
		if err != nil || refErr != nil || !bytes.Equal(got, ref) {
			t.Fatalf("%q: re-encoded as %s (%v), encoding/json %s (%v)", in, got, err, ref, refErr)
		}
	})
}

// BenchmarkDistJSON is what a shard file pays per distribution: marshal,
// then unmarshal, 100k samples, through encoding/json's Marshaler hooks as
// ShardFile.Encode and the merge reach them.
func BenchmarkDistJSON(b *testing.B) {
	rng := sim.NewRNG(1)
	d := &Dist{}
	for i := 0; i < 100_000; i++ {
		d.Add(rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(d)
		if err != nil {
			b.Fatal(err)
		}
		if err := json.Unmarshal(data, &Dist{}); err != nil {
			b.Fatal(err)
		}
	}
}
