package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"xmp/internal/sim"
)

// edgeFloats are the values where the sum's decimal spelling changes
// shape — the %f/%e switch points, the exponent clean-up, signed zero and
// the ends of the float64 range — and whose bits exercise every byte.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
	1e-7, -1e-7, 9.999999e-7, 1e-6, 1.5e-6, 1e-9, 1e-10, 1e-100,
	1e20, 9.99999999e20, 1e21, -1e21, 1e22, 1e100,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
}

// TestDistWireForm pins the packed wire form byte for byte on small cases
// (the base64 strings are the little-endian IEEE-754 bits, computed
// independently) and the sum's spelling against encoding/json's.
func TestDistWireForm(t *testing.T) {
	for _, c := range []struct {
		sum     float64
		samples []float64
		want    string
	}{
		{0, nil, `{"sum":0,"samples":null}`},
		{0, []float64{}, `{"sum":0,"samples":null}`},
		{1, []float64{1}, `{"sum":1,"samples":"AAAAAAAA8D8="}`},
		{0.25, []float64{0.25, math.Copysign(0, -1)}, `{"sum":0.25,"samples":"AAAAAAAA0D8AAAAAAAAAgA=="}`},
		{6, []float64{1, 2, 3}, `{"sum":6,"samples":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"}`},
	} {
		got, err := (&Dist{samples: c.samples, sum: c.sum}).MarshalJSON()
		if err != nil || string(got) != c.want {
			t.Errorf("%v: MarshalJSON = %s (%v), want %s", c.samples, got, err, c.want)
		}
	}
	for _, f := range edgeFloats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&Dist{sum: f}).MarshalJSON()
		if err != nil || !bytes.HasPrefix(got, append([]byte(`{"sum":`), append(want, ',')...)) {
			t.Errorf("sum %v: MarshalJSON = %s (%v), encoding/json spells it %s", f, got, err, want)
		}
	}
}

// TestDistJSONRoundTripBits: every sample's bits, signed zero included,
// and the sum survive the wire, across chunk boundaries; the encoding is
// exactly the size it was allocated at.
func TestDistJSONRoundTripBits(t *testing.T) {
	rng := sim.NewRNG(3)
	for _, n := range []int{1, 2, 3, chunkFloats - 1, chunkFloats, chunkFloats + 1, 3*chunkFloats + 2} {
		d := &Dist{}
		for i := 0; i < n; i++ {
			if i < len(edgeFloats) {
				d.Add(edgeFloats[i])
			} else {
				d.Add(rng.Float64() * 1e3)
			}
		}
		got, err := d.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != cap(got) {
			t.Errorf("n=%d: %d bytes in a %d-byte buffer", n, len(got), cap(got))
		}
		var back Dist
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("n=%d: decoding own output: %v", n, err)
		}
		if math.Float64bits(back.sum) != math.Float64bits(d.sum) || len(back.samples) != n {
			t.Fatalf("n=%d: decoded sum %v and %d samples, want %v and %d", n, back.sum, len(back.samples), d.sum, n)
		}
		for i := range d.samples {
			if math.Float64bits(back.samples[i]) != math.Float64bits(d.samples[i]) {
				t.Fatalf("n=%d: sample %d decoded as %v, want %v", n, i, back.samples[i], d.samples[i])
			}
		}
	}
}

// TestDistMarshalRejectsNonFinite pins that NaN and ±Inf fail as they do
// under encoding/json, in the sum and among the samples.
func TestDistMarshalRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(bad)
		for _, d := range []*Dist{{sum: bad, samples: []float64{1}}, {sum: 1, samples: []float64{1, bad}}} {
			_, got := d.MarshalJSON()
			var unsupported *json.UnsupportedValueError
			if !errors.As(got, &unsupported) || want == nil || got.Error() != want.Error() {
				t.Errorf("%v: MarshalJSON error %v, encoding/json's %v", d, got, want)
			}
		}
	}
}

// TestDistUnmarshalRejectsNonCanonical: the decoder takes the canonical
// form only, and a refused input leaves the Dist as it was.
func TestDistUnmarshalRejectsNonCanonical(t *testing.T) {
	for _, in := range []string{
		// Bad base64: a character outside the alphabet, a broken quantum,
		// non-zero padding bits, padding mid-string, an empty string.
		`{"sum":1,"samples":"AAAAAAAA8D8*"}`, `{"sum":1,"samples":"AAAAAAAA8D8"}`,
		`{"sum":1,"samples":"AAAAAAAA8D9="}`, `{"sum":1,"samples":"AAAA=AAA8D8="}`, `{"sum":0,"samples":""}`,
		`{"sum":1,"samples":"AAAAAAAA\n8D8="}`,
		// A byte count that is not a multiple of 8.
		`{"sum":1,"samples":"AAAAAAAA8D8A"}`, `{"sum":1,"samples":"AAAA"}`,
		// NaN and ±Inf bits.
		`{"sum":1,"samples":"AQAAAAAA+H8="}`, `{"sum":1,"samples":"AAAAAAAA8H8="}`, `{"sum":1,"samples":"AAAAAAAA8P8="}`,
		// A sum JSON cannot carry or does not spell this way.
		`{"sum":1e999,"samples":null}`, `{"sum":Inf,"samples":null}`, `{"sum":1.0,"samples":null}`,
		`{"sum":+1,"samples":null}`, `{"sum":0x1p0,"samples":null}`, `{"sum":1e-07,"samples":null}`, `{"sum":,"samples":null}`,
		// Another shape: the v2 array, whitespace, key order, extra members,
		// a bare null, trailing bytes.
		`{"sum":1,"samples":[1]}`, `{"sum": 1,"samples":null}`, `{"sum":1,"samples":null} `,
		`{"samples":null,"sum":1}`, `{"sum":1,"samples":null,"n":0}`, `null`, `{}`, ``,
		`{"sum":1,"samples":"AAAAAAAA8D8="}}`, `{"sum":1,"samples":"}`, `{"sum":1,"samples":"`,
	} {
		d := Dist{samples: []float64{7}, sum: 7}
		if err := d.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%q accepted", in)
		}
		if d.sum != 7 || len(d.samples) != 1 || d.samples[0] != 7 {
			t.Errorf("%q: refused input changed the Dist to (%v, %v)", in, d.sum, d.samples)
		}
	}
}

// FuzzDistJSON holds the decoder to the canonical form on arbitrary
// bytes: it never panics, what it accepts re-encodes to exactly the input,
// and it accepts no non-finite sample (which the encoder would refuse).
func FuzzDistJSON(f *testing.F) {
	for _, seed := range []string{
		`{"sum":0,"samples":null}`, `{"sum":-0,"samples":null}`, `{"sum":1,"samples":"AAAAAAAA8D8="}`,
		`{"sum":0.25,"samples":"AAAAAAAA0D8AAAAAAAAAgA=="}`, `{"sum":6,"samples":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"}`,
		`{"sum":1e-7,"samples":null}`, `{"sum":1e+21,"samples":null}`, `{"sum":1,"samples":"AAAAAAAA8D8A"}`,
		`{"sum":1,"samples":"AAAAAAAA8D9="}`, `{"sum":1,"samples":"AQAAAAAA+H8="}`, `{"sum":1,"samples":"AAAAAAAA8H8="}`,
		`{"sum":1,"samples":"AAAAAAAA\n8D8="}`, `{"sum":1.0,"samples":null}`, `{"sum":0,"samples":""}`,
		`{"sum":1,"samples":[1]}`, `null`, `{"sum":1,"samples":"AAAA=AAA8D8="}`,
	} {
		f.Add([]byte(seed))
	}
	long := &Dist{}
	for i := 0; i < chunkFloats+len(edgeFloats); i++ {
		long.Add(edgeFloats[i%len(edgeFloats)])
	}
	all, err := long.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(all)

	f.Fuzz(func(t *testing.T, in []byte) {
		var d Dist
		if d.UnmarshalJSON(in) != nil {
			return
		}
		for _, v := range d.samples {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q: accepted a non-finite sample %v", in, v)
			}
		}
		got, err := d.MarshalJSON()
		if err != nil || !bytes.Equal(got, in) {
			t.Fatalf("%q: re-encoded as %q (%v)", in, got, err)
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
