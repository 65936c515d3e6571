package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"sync"
)

// This file is Dist's JSON codec. A shard file is mostly Dist samples, so
// they do not go through encoding/json's reflective encoder and its
// validate-then-decode double scan: the writer and scanner below touch each
// sample once. The wire form is exactly what encoding/json produces for
// distWire, byte for byte, so shard files hash the same whichever wrote
// them — TestDistMarshalMatchesEncodingJSON and FuzzDistJSON hold the two
// implementations together.

// distWire is the serialized form of a Dist. Sum travels alongside the
// samples because Mean divides the insertion-order floating-point sum: a
// deserialized Dist must answer Mean() bit-identically even though the
// samples may have been sorted (and would re-sum in a different order).
type distWire struct {
	Sum     float64   `json:"sum"`
	Samples []float64 `json:"samples"`
}

// marshalScratch recycles the append buffers MarshalJSON formats into. The
// returned slice is an exact-size copy: the caller (encoding/json's
// Marshaler path) keeps it for an unknown time, and a sample formats to
// anywhere between 1 and 24 bytes, so sizing the result up front either
// over-allocates or grows by doubling — both showed up as peak RSS.
var marshalScratch = sync.Pool{New: func() any { return new([]byte) }}

// MarshalJSON serializes the full sample set, so a Dist survives a
// shard-export/merge round trip answering every query (mean, percentiles,
// CDF points) bit-identically: float64s are written in their shortest
// round-trippable form, so no precision is lost. The output is
// byte-identical to json.Marshal(distWire{...}), including the error for
// NaN and ±Inf.
func (d *Dist) MarshalJSON() ([]byte, error) {
	scratch := marshalScratch.Get().(*[]byte)
	defer marshalScratch.Put(scratch)
	b := append((*scratch)[:0], `{"sum":`...)
	b, err := appendJSONFloat(b, d.sum)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"samples":`...)
	if d.samples == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range d.samples {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendJSONFloat(b, v); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	*scratch = b
	return append(make([]byte, 0, len(b)), b...), nil
}

// appendJSONFloat formats f exactly as encoding/json formats a float64:
// shortest round-trip digits, %e outside [1e-6, 1e21) with the exponent's
// leading zero dropped (ES6 number-to-string), an UnsupportedValueError for
// values JSON cannot carry.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// UnmarshalJSON restores a Dist serialized by MarshalJSON. Input in the
// shape MarshalJSON writes — with any JSON whitespace between tokens, as
// an indented shard file has — is read in one pass; anything else (other
// key order or spelling, extra members, null, malformed or out-of-range
// numbers) goes through encoding/json, which decides whether it is
// accepted and words the error.
func (d *Dist) UnmarshalJSON(b []byte) error {
	w, ok := scanDist(b)
	if !ok {
		if err := json.Unmarshal(b, &w); err != nil {
			return err
		}
	}
	d.samples = w.Samples
	d.sum = w.Sum
	d.sorted = false
	return nil
}

// scanDist parses `{"sum":N,"samples":[N,...]}` or `...:null}`. ok=false
// means "not recognised", never "invalid": the caller falls back.
func scanDist(b []byte) (w distWire, ok bool) {
	s := distScanner{b: b}
	if !s.lit(`{`) || !s.lit(`"sum"`) || !s.lit(`:`) || !s.number(&w.Sum) ||
		!s.lit(`,`) || !s.lit(`"samples"`) || !s.lit(`:`) {
		return distWire{}, false
	}
	switch {
	case s.lit(`null`):
	case s.lit(`[`):
		if s.lit(`]`) {
			w.Samples = []float64{}
			break
		}
		// Every comma up to the closing bracket separates two samples in
		// recognised input, so the slice is allocated once at its final
		// size.
		n := 1
		for _, c := range s.b[s.i:] {
			if c == ',' {
				n++
			} else if c == ']' {
				break
			}
		}
		w.Samples = make([]float64, n)
		for i := range w.Samples {
			if i > 0 && !s.lit(`,`) {
				return distWire{}, false
			}
			if !s.number(&w.Samples[i]) {
				return distWire{}, false
			}
		}
		if !s.lit(`]`) {
			return distWire{}, false
		}
	default:
		return distWire{}, false
	}
	if !s.lit(`}`) {
		return distWire{}, false
	}
	s.space()
	return w, s.i == len(s.b)
}

type distScanner struct {
	b []byte
	i int
}

func (s *distScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// lit consumes optional whitespace and then tok, or nothing.
func (s *distScanner) lit(tok string) bool {
	s.space()
	if len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		return false
	}
	s.i += len(tok)
	return true
}

// number consumes optional whitespace and one number of the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — strconv alone accepts
// more (hex, "Inf", a leading '+') — that also fits a float64.
func (s *distScanner) number(out *float64) bool {
	s.space()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return false
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return false
	}
	*out, s.i = f, i
	return true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
