package workload

import (
	"fmt"
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
// the label the result tables print.
func ParseScheme(label string) (Scheme, error) {
	var s Scheme
	base := label
	if i := strings.Index(base, "/b"); i >= 0 {
		b, err := strconv.Atoi(base[i+2:])
		if err != nil || b < 2 { // core.NewBOS panics below 2
			return Scheme{}, fmt.Errorf("scheme %q: bad beta suffix %q (want /bN, N >= 2)", label, base[i:])
		}
		s.Beta = b
		base = base[:i]
	}
	// Single-path schemes are exact names (TCP-ECN contains '-', so they
	// must match before the multipath name-count split).
	switch base {
	case "TCP":
		s.Algorithm, s.Subflows = mptcp.AlgReno, 1
		return s, nil
	case "TCP-ECN":
		s.Algorithm, s.Subflows = mptcp.AlgRenoECN, 1
		return s, nil
	case "DCTCP":
		s.Algorithm, s.Subflows = mptcp.AlgDCTCP, 1
		return s, nil
	}
	i := strings.LastIndex(base, "-")
	if i < 0 {
		return Scheme{}, fmt.Errorf("scheme %q: want NAME-SUBFLOWS (e.g. XMP-2) or TCP/TCP-ECN/DCTCP", label)
	}
	n, err := strconv.Atoi(base[i+1:])
	if err != nil || n < 1 || n > MaxSubflows {
		return Scheme{}, fmt.Errorf("scheme %q: bad subflow count %q (want 1..%d)", label, base[i+1:], MaxSubflows)
	}
	switch base[:i] {
	case "XMP":
		s.Algorithm = mptcp.AlgXMP
	case "LIA":
		s.Algorithm = mptcp.AlgLIA
	case "OLIA":
		s.Algorithm = mptcp.AlgOLIA
	case "AMP":
		s.Algorithm = mptcp.AlgAMP
	case "BOS-uncoupled":
		s.Algorithm = mptcp.AlgUncoupledBOS
	default:
		return Scheme{}, fmt.Errorf("scheme %q: unknown algorithm %q", label, base[:i])
	}
	s.Subflows = n
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
