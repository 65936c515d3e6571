package workload

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"xmp/internal/mptcp"
)

func TestParseSchemeRoundTrip(t *testing.T) {
	labels := []string{
		"TCP", "TCP-ECN", "DCTCP",
		"XMP-2", "XMP-4", "LIA-2", "LIA-4", "OLIA-2", "AMP-2",
		"BOS-uncoupled-2", "XMP-2/b6", "BOS-uncoupled-2/b6",
	}
	for _, label := range labels {
		s, err := ParseScheme(label)
		if err != nil {
			t.Errorf("%s: %v", label, err)
			continue
		}
		if got := SchemeString(s); got != label {
			t.Errorf("%s: round-tripped to %q", label, got)
		}
	}
}

func TestParseSchemeValues(t *testing.T) {
	s, err := ParseScheme("XMP-2/b6")
	if err != nil {
		t.Fatal(err)
	}
	want := Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2, Beta: 6}
	if s != want {
		t.Fatalf("got %+v, want %+v", s, want)
	}
	s, err = ParseScheme("DCTCP")
	if err != nil {
		t.Fatal(err)
	}
	if s.Algorithm != mptcp.AlgDCTCP || s.Subflows != 1 || s.Beta != 0 {
		t.Fatalf("DCTCP parsed to %+v", s)
	}
}

func TestParseSchemeRejects(t *testing.T) {
	for _, label := range []string{
		"", "TCP-2", "DCTCP-2", "XMP", "XMP-0", "XMP-x", "QUIC-2",
		"XMP-2/b0", "XMP-2/bx", "xmp-2",
		"XMP-2/b1", "XMP-65", "XMP-4000000000", "XMP-2/b2147483648",
		// Only XMP and BOS-uncoupled read beta: elsewhere it would be hashed
		// and then ignored.
		"LIA-2/b6", "LIA-4/b4", "OLIA-2/b4", "AMP-2/b4", "DCTCP/b9", "TCP-ECN/b2", "TCP/b2",
	} {
		if _, err := ParseScheme(label); err == nil {
			t.Errorf("%q: accepted", label)
		}
	}
}

// FuzzParseScheme feeds ParseScheme what a spec author could: it must not
// panic, and whatever it accepts must be launchable (beta unset, or >= 2 on
// an algorithm that reads it; subflows within bounds) and canonicalize to a
// fixed point. The corpus is
// seeded with every scheme label the shipped specs use.
func FuzzParseScheme(f *testing.F) {
	seeded := 0
	for _, glob := range []string{"../../scenarios/*.json", "../../bench/workloads/*.json"} {
		files, _ := filepath.Glob(glob)
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			var spec struct {
				Schemes   []string `json:"schemes"`
				Workloads []struct {
					Scheme string `json:"scheme"`
				} `json:"workloads"`
			}
			if err := json.Unmarshal(data, &spec); err != nil {
				f.Fatalf("%s: %v", file, err)
			}
			for _, w := range spec.Workloads {
				if w.Scheme != "" {
					spec.Schemes = append(spec.Schemes, w.Scheme)
				}
			}
			for _, label := range spec.Schemes {
				f.Add(label)
				seeded++
			}
		}
	}
	if seeded == 0 {
		f.Fatal("no scheme labels found in scenarios/ or bench/workloads/")
	}
	for _, label := range []string{"XMP-2/b6", "XMP-2/b1", "XMP-64", "XMP-65", "BOS-uncoupled-2", "TCP-ECN/b2", "LIA-2/b6"} {
		f.Add(label)
	}
	f.Fuzz(func(t *testing.T, label string) {
		s, err := ParseScheme(label)
		if err != nil {
			return
		}
		if s.Beta != 0 && (s.Beta < 2 || s.Beta > math.MaxInt32 || !s.Algorithm.TakesBeta()) {
			t.Errorf("%q: accepted beta %d on %v", label, s.Beta, s.Algorithm)
		}
		if s.Subflows < 1 || s.Subflows > MaxSubflows {
			t.Errorf("%q: accepted %d subflows", label, s.Subflows)
		}
		canon := SchemeString(s)
		back, err := ParseScheme(canon)
		if err != nil || back != s {
			t.Fatalf("%q: canonical form %q parses to %+v, %v; want %+v", label, canon, back, err, s)
		}
		if again := SchemeString(back); again != canon {
			t.Errorf("%q: SchemeString is not a fixed point: %q then %q", label, canon, again)
		}
	})
}
