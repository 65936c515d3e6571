package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"xmp/internal/mptcp"
)

// MaxSubflows bounds the subflow count ParseScheme accepts: four per
// equal-cost path of the paper's k=8 fat-tree, whose hosts carry 16 path
// aliases. Flow launch sizes per-flow buffers by the count, so an unbounded
// label would be an unbounded allocation.
const MaxSubflows = 64

// ParseScheme is the inverse of Scheme.Label plus the "/bN" beta suffix
// the campaign config descriptions use: "DCTCP", "TCP-ECN", "XMP-2",
// "LIA-4", "BOS-uncoupled-2", "XMP-2/b6". It is the grammar declarative
// scenario specs name schemes in, so the label a spec writes is exactly
// the label the result tables print. Which names exist, which of them take
// a subflow count and which a β is read from mptcp's algorithm table.
func ParseScheme(label string) (Scheme, error) {
	s := Scheme{Subflows: 1}
	base, suffix, hasBeta := strings.Cut(label, "/b")
	// A single-path scheme is its algorithm's exact name (TCP-ECN contains
	// '-', so the whole label is tried before the name-count split).
	alg, ok := mptcp.ParseAlgorithm(base)
	if !ok || alg.Multipath() {
		i := strings.LastIndex(base, "-")
		if i < 0 {
			return Scheme{}, fmt.Errorf("scheme %q: want NAME-SUBFLOWS or the name of a single-path algorithm", label)
		}
		if alg, ok = mptcp.ParseAlgorithm(base[:i]); !ok || !alg.Multipath() {
			return Scheme{}, fmt.Errorf("scheme %q: unknown algorithm %q", label, base[:i])
		}
		n, err := strconv.Atoi(base[i+1:])
		if err != nil || n < 1 || n > MaxSubflows {
			return Scheme{}, fmt.Errorf("scheme %q: bad subflow count %q (want 1..%d)", label, base[i+1:], MaxSubflows)
		}
		s.Subflows = n
	}
	s.Algorithm = alg
	if hasBeta {
		b, err := strconv.Atoi(suffix)
		if err != nil || b < 2 || b > math.MaxInt32 { // core.NewBOS panics outside these
			return Scheme{}, fmt.Errorf("scheme %q: bad beta suffix %q (want /bN, 2 <= N < 2^31)", label, "/b"+suffix)
		}
		if !alg.TakesBeta() {
			return Scheme{}, fmt.Errorf("scheme %q: bad beta suffix: %v has no beta parameter", label, alg)
		}
		s.Beta = b
	}
	return s, nil
}

// SchemeString renders a scheme in ParseScheme's grammar: Label plus the
// beta suffix when one is set. SchemeString(ParseScheme(x)) == x for every
// canonical label, which is what makes scheme lists hash-stable in
// resolved scenario specs.
func SchemeString(s Scheme) string {
	l := s.Label()
	if s.Beta != 0 {
		l += "/b" + strconv.Itoa(s.Beta)
	}
	return l
}
