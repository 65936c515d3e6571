package metrics

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strconv"
)

// This file is Dist's JSON codec. Shard files carry no samples (a matrix
// cell travels as named metrics); the codec serves whatever encodes a full
// result whole, such as the recycle differential's payload digests. Samples
// are packed rather than written as decimal numbers:
//
//	{"sum":N,"samples":"<base64>"}
//
// N is the insertion-order sum, spelled as encoding/json spells a float64.
// The string is the padded standard base64 of the samples' IEEE-754 bits,
// eight little-endian bytes each, in the Dist's current order. A Dist with
// no samples writes "samples":null. The form is canonical: the decoder
// accepts exactly the bytes the encoder would write for what it decodes, so
// an encoding re-encodes byte for byte and its hash is a function of the
// numbers alone — on any CPU, whatever its word size or byte order.

// wireB64 is the samples' base64: padded, with non-zero padding bits
// refused so that no two strings decode to the same samples.
var wireB64 = base64.StdEncoding.Strict()

// chunkFloats samples are packed or unpacked through one stack buffer at a
// time. 8·chunkFloats is a multiple of 3, so every chunk but the last is
// whole base64 quanta and only the end of the string carries padding.
const chunkFloats = 384

// errDistWire is the decoder's one error: anything that is not the
// canonical form.
var errDistWire = errors.New(`metrics: Dist JSON is not {"sum":N,"samples":"<base64 float64s>"|null} in canonical form`)

// MarshalJSON serializes the full sample set, so a Dist survives a
// shard-export/merge round trip answering every query (mean, percentiles,
// CDF points) bit-identically. The result is built in one buffer of its
// exact final size. NaN and ±Inf, in the sum or among the samples, fail
// with an *json.UnsupportedValueError, as encoding/json fails on them.
func (d *Dist) MarshalJSON() ([]byte, error) {
	var num [32]byte
	sum, err := appendJSONFloat(num[:0], d.sum)
	if err != nil {
		return nil, err
	}
	n := len(d.samples)
	size := len(`{"sum":,"samples":null}`) + len(sum)
	if n > 0 {
		size += len(`""`) - len(`null`) + wireB64.EncodedLen(8*n)
	}
	b := make([]byte, 0, size)
	b = append(b, `{"sum":`...)
	b = append(b, sum...)
	b = append(b, `,"samples":`...)
	if n == 0 {
		return append(b, `null}`...), nil
	}
	b = append(b, '"')
	var chunk [8 * chunkFloats]byte
	for i := 0; i < n; i += chunkFloats {
		part := d.samples[i:min(i+chunkFloats, n)]
		for j, v := range part {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, unsupported(v)
			}
			binary.LittleEndian.PutUint64(chunk[8*j:], math.Float64bits(v))
		}
		m := wireB64.EncodedLen(8 * len(part))
		wireB64.Encode(b[len(b):len(b)+m], chunk[:8*len(part)])
		b = b[:len(b)+m]
	}
	return append(b, `"}`...), nil
}

// appendJSONFloat formats f exactly as encoding/json formats a float64:
// shortest round-trip digits, %e outside [1e-6, 1e21) with the exponent's
// leading zero dropped (ES6 number-to-string), an UnsupportedValueError for
// values JSON cannot carry.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, unsupported(f)
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

func unsupported(f float64) error {
	return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

// UnmarshalJSON restores a Dist from exactly the bytes MarshalJSON writes.
// The samples are base64-decoded chunk by chunk straight into the final
// slice. Anything else — whitespace, another key order, a sum not spelled
// canonically, bad or non-canonical base64, a byte count that is not a
// multiple of 8, NaN or ±Inf bits — is an error and leaves d unchanged.
func (d *Dist) UnmarshalJSON(b []byte) error {
	const head, mid = `{"sum":`, `,"samples":`
	if len(b) < len(head) || string(b[:len(head)]) != head {
		return errDistWire
	}
	b = b[len(head):]
	end := bytes.IndexByte(b, ',')
	if end < 0 {
		return errDistWire
	}
	sum, err := strconv.ParseFloat(string(b[:end]), 64)
	if err != nil {
		return errDistWire
	}
	var num [32]byte
	if canon, err := appendJSONFloat(num[:0], sum); err != nil || string(canon) != string(b[:end]) {
		return errDistWire
	}
	b = b[end:]
	if len(b) < len(mid) || string(b[:len(mid)]) != mid {
		return errDistWire
	}
	b = b[len(mid):]
	if string(b) == `null}` {
		d.samples, d.sum, d.sorted = nil, sum, false
		return nil
	}
	if len(b) < len(`"x"}`) || b[0] != '"' || string(b[len(b)-2:]) != `"}` {
		return errDistWire
	}
	samples, ok := unpackSamples(b[1 : len(b)-2])
	if !ok {
		return errDistWire
	}
	d.samples, d.sum, d.sorted = samples, sum, false
	return nil
}

// unpackSamples decodes a non-empty samples string into its float64s.
func unpackSamples(s []byte) ([]float64, bool) {
	if len(s) == 0 || len(s)%4 != 0 {
		return nil, false
	}
	nbytes := len(s) / 4 * 3
	for i := len(s) - 1; i >= len(s)-2 && s[i] == '='; i-- {
		nbytes--
	}
	if nbytes == 0 || nbytes%8 != 0 {
		return nil, false
	}
	out := make([]float64, nbytes/8)
	var chunk [8 * chunkFloats]byte
	for i := 0; i < len(out); i += chunkFloats {
		part := out[i:min(i+chunkFloats, len(out))]
		enc := s[wireB64.EncodedLen(8*i):wireB64.EncodedLen(8*(i+len(part)))]
		if n, err := wireB64.Decode(chunk[:], enc); err != nil || n != 8*len(part) {
			return nil, false
		}
		for j := range part {
			v := math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*j:]))
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, false
			}
			part[j] = v
		}
	}
	return out, true
}
