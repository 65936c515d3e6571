package exp

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xmp/internal/topo"
	"xmp/internal/workload"
)

// The claims table holds every conclusion EXPERIMENTS.md draws from a
// results_*.txt golden, as a check on the assembled result of the campaign
// that golden pins. checkGolden evaluates a campaign's claims on the result
// it has just merged and diffed, so a claim costs no simulation of its own:
// the ten fast campaigns' claims run in tier-1, the four slow ones' (matrix,
// fig7, params, table2) under XMP_GOLDEN=1. EXPERIMENTS.md cites each claim
// by its id in brackets; TestClaimsMatchEXPERIMENTS keeps the two sets equal.

// claim is one conclusion. deviates, when set, says how the reproduction
// differs from the paper's shape that check states: check must then fail,
// and a deviation that starts to hold means EXPERIMENTS.md is out of date.
type claim struct {
	id, campaign, deviates string
	check                  check
}

// A vec reads named numbers off a result. A check reads a result and says
// whether a shape holds, listing every comparison it made.
type (
	vec     func(result any) []num
	check   func(result any) reading
	reading struct {
		ok   bool
		read []string
	}
	num struct {
		name string
		v    float64
	}
)

func (x num) String() string { return fmt.Sprintf("%s=%.6g", x.name, x.v) }

// on adapts an accessor over a campaign's assembled result type R.
func on[R any](f func(R) []num) vec { return func(r any) []num { return f(r.(R)) } }

// aligned calls f with the vecs' values index by index: a vec of one value
// stands for every index, the others must agree on a length.
func aligned(r any, vs []vec, f func(xs []num) reading) reading {
	vals, n := make([][]num, len(vs)), 1
	for k, v := range vs {
		if vals[k] = v(r); len(vals[k]) == 0 || n > 1 && len(vals[k]) > 1 && len(vals[k]) != n {
			panic(fmt.Sprintf("vecs of %d and %d values do not align", n, len(vals[k])))
		}
		n = max(n, len(vals[k]))
	}
	rs := make([]reading, n)
	for i := range rs {
		xs := make([]num, len(vals))
		for k, v := range vals {
			xs[k] = v[min(i, len(v)-1)]
		}
		rs[i] = f(xs)
	}
	return join(rs)
}

func join(rs []reading) reading {
	out := reading{ok: true}
	for _, r := range rs {
		out.ok, out.read = out.ok && r.ok, append(out.read, r.read...)
	}
	return out
}

func verdict(ok bool, format string, args ...any) reading {
	if !ok {
		format = "FAILS " + format
	}
	return reading{ok, []string{fmt.Sprintf(format, args...)}}
}

// order holds when, index by index, each vec's value exceeds the next's.
func order(vs ...vec) check {
	return func(r any) reading {
		return aligned(r, vs, func(xs []num) reading {
			ok, parts := true, make([]string, len(xs))
			for k, x := range xs {
				parts[k], ok = x.String(), ok && (k == 0 || xs[k-1].v > x.v)
			}
			return verdict(ok, "%s", strings.Join(parts, " > "))
		})
	}
}

// within holds when every value of v lies in [lo, hi]; ratios when every
// value of a over every value of b does.
func within(v vec, lo, hi float64) check {
	return func(r any) reading {
		return aligned(r, []vec{v}, func(xs []num) reading {
			return verdict(lo <= xs[0].v && xs[0].v <= hi, "%v in [%g, %g]", xs[0], lo, hi)
		})
	}
}

func ratios(a, b vec, lo, hi float64) check {
	return all(within(quot(least(a), most(b)), lo, inf), within(quot(most(a), least(b)), 0, hi))
}

// all holds when every check does; forEach when f(x) does for every x.
func all(cs ...check) check {
	return func(r any) reading {
		rs := make([]reading, len(cs))
		for i, c := range cs {
			rs[i] = c(r)
		}
		return join(rs)
	}
}

func forEach[T any](xs []T, f func(T) check) check {
	cs := make([]check, len(xs))
	for i, x := range xs {
		cs[i] = f(x)
	}
	return all(cs...)
}

// diff and quot combine two vecs index by index; least and most reduce one
// to its smallest or largest value.
func diff(a, b vec) vec { return zip(a, b, "-", func(x, y float64) float64 { return x - y }) }
func quot(a, b vec) vec { return zip(a, b, "/", func(x, y float64) float64 { return x / y }) }
func zip(a, b vec, op string, f func(x, y float64) float64) vec {
	return func(r any) (out []num) {
		aligned(r, []vec{a, b}, func(xs []num) reading {
			out = append(out, num{fmt.Sprintf("(%v %s %v)", xs[0], op, xs[1]), f(xs[0].v, xs[1].v)})
			return reading{ok: true}
		})
		return out
	}
}

func least(v vec) vec      { return func(r any) []num { return []num{slices.MinFunc(v(r), byValue)} } }
func most(v vec) vec       { return func(r any) []num { return []num{slices.MaxFunc(v(r), byValue)} } }
func byValue(a, b num) int { return cmp.Compare(a.v, b.v) }

// paper is the paper's values, for a ratio against them.
func paper(vs ...float64) vec {
	return func(any) (out []num) {
		for _, v := range vs {
			out = append(out, num{"paper", v})
		}
		return out
	}
}

// walk follows path — fields and indices, as in "Config.K" or "Rates[3]" —
// from v to the number there, or to every number of the array there.
func walk(v reflect.Value, path string) []float64 {
	for _, part := range strings.FieldsFunc(path, func(r rune) bool { return strings.ContainsRune(".[]", r) }) {
		if i, err := strconv.Atoi(part); err == nil {
			v = v.Index(i)
		} else {
			v = v.FieldByName(part)
		}
	}
	if v.Kind() != reflect.Array {
		return []float64{v.Convert(reflect.TypeOf(0.0)).Float()}
	}
	out := make([]float64, v.Len())
	for i := range out {
		out[i] = v.Index(i).Float()
	}
	return out
}

// col reads path off the rows of a point-list result whose first field
// prints as each key: col("GoodputMbps", "XMP-2"). fig reads it off each
// panel of a figure campaign, or the listed ones, naming values by config.
func col(path string, keys ...string) vec {
	return func(r any) (out []num) {
		rows := reflect.ValueOf(r)
		for _, k := range keys {
			i := 0
			for i < rows.Len() && fmt.Sprint(rows.Index(i).Field(0)) != k {
				i++
			}
			out = append(out, num{k + " " + path, walk(rows.Index(i), path)[0]})
		}
		return out
	}
}

func fig(path string, only ...int) vec {
	return func(r any) (out []num) {
		rows := reflect.ValueOf(r)
		for i := 0; i < rows.Len(); i++ {
			if len(only) > 0 && !slices.Contains(only, i) {
				continue
			}
			vs := walk(rows.Index(i), path)
			for j, v := range vs {
				name := fmt.Sprintf("%+v %s", rows.Index(i).Field(0), path)
				if len(vs) > 1 {
					name += fmt.Sprintf("[%d]", j)
				}
				out = append(out, num{name, v})
			}
		}
		return out
	}
}

// evaluate returns why claim c disagrees with result, or "" when it agrees.
func (c claim) evaluate(result any) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprintf("claim [%s] cannot read its %s result: %v", c.id, c.campaign, p)
		}
	}()
	r := c.check(result)
	if read := strings.Join(r.read, "; "); !r.ok && c.deviates == "" {
		return fmt.Sprintf("claim [%s] does not hold; read: %s", c.id, read)
	} else if r.ok && c.deviates != "" {
		return fmt.Sprintf("claim [%s] is recorded as a deviation (%s) but now holds; read: %s; EXPERIMENTS.md needs updating",
			c.id, c.deviates, read)
	}
	return ""
}

// checkClaims evaluates every claim on campaign against its merged result.
func checkClaims(t *testing.T, campaign string, result any) {
	t.Helper()
	for _, c := range claims {
		if c.campaign != campaign {
			continue
		}
		if msg := c.evaluate(result); msg != "" {
			t.Error(msg)
		}
	}
}

// TestClaimsMatchEXPERIMENTS runs no simulation: the [section/name] ids
// EXPERIMENTS.md cites are exactly the claims table's, each claim names a
// declared campaign, and no id is declared twice.
func TestClaimsMatchEXPERIMENTS(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	cited, declared := map[string]bool{}, map[string]bool{}
	for _, m := range regexp.MustCompile(`\[([a-z0-9]+/[^\]\s]+)\]`).FindAllStringSubmatch(string(doc), -1) {
		cited[m[1]] = true
	}
	for _, c := range claims {
		if _, ok := LookupCampaign(c.campaign); !ok || declared[c.id] || !cited[c.id] {
			t.Errorf("claim [%s]: campaign %q declared %v, id declared twice %v, cited in EXPERIMENTS.md %v",
				c.id, c.campaign, ok, declared[c.id], cited[c.id])
		}
		declared[c.id] = true
	}
	for id := range cited {
		if !declared[id] {
			t.Errorf("EXPERIMENTS.md cites [%s], which no claim declares", id)
		}
	}
}

// TestClaimEvaluator pins the evaluator's verdicts on a stand-in result.
func TestClaimEvaluator(t *testing.T) {
	a := on(func(xs []float64) []num { return []num{{"a", xs[0]}} })
	b := on(func(xs []float64) []num { return []num{{"b", xs[1]}} })
	holds, deviates := claim{"t/a>b", "t", "", order(a, b)}, claim{"t/dev", "t", "b wins here", order(a, b)}
	// A matrix whose campaign shipped goodput means alone, and a claim on
	// its goodput p5.
	shipped, err := assembleMatrix([]*MatrixCell{{Row: perm[0], Scheme: xmp2, Metrics: map[string]float64{"goodput.mean": 500}}},
		[]string{"goodput.mean"})
	if err != nil {
		t.Fatal(err)
	}
	unshipped := claim{"t/p5", CampaignMatrix, "", within(mx(p5, perm, xmp2), 0, inf)}
	for _, tc := range []struct {
		c      claim
		result any
		want   []string // substrings of the message; none means it agrees
	}{
		{holds, []float64{2, 1}, nil},
		{holds, []float64{1, 2}, []string{"[t/a>b]", "does not hold", "FAILS a=1 > b=2"}},
		{deviates, []float64{1, 2}, nil},
		{deviates, []float64{2, 1}, []string{"[t/dev]", "b wins here", "now holds", "a=2 > b=1", "EXPERIMENTS.md needs updating"}},
		{holds, "a string", []string{"[t/a>b]", "cannot read"}},
		{unshipped, shipped, []string{"[t/p5]", "cannot read", `"goodput.p5"`}},
	} {
		msg := tc.c.evaluate(tc.result)
		for _, w := range tc.want {
			if !strings.Contains(msg, w) {
				t.Errorf("[%s] on %v: message %q does not name %q", tc.c.id, tc.result, msg, w)
			}
		}
		if tc.want == nil && msg != "" {
			t.Errorf("[%s] on %v: %s", tc.c.id, tc.result, msg)
		}
	}
}

// stat reads one number off a matrix cell by metric name; mx reads it off
// the cell of each scheme on each row, row-major.
type stat struct {
	name string
	f    func(*MatrixCell) float64
}

func mx(k stat, rows []Row, ss ...workload.Scheme) vec {
	return on(func(m *Matrix) (out []num) {
		for _, row := range rows {
			for _, s := range ss {
				out = append(out, num{fmt.Sprintf("%s %s %s", workload.SchemeString(s), row, k.name), k.f(m.Get(row, s))})
			}
		}
		return out
	})
}

// of is statistic q of distribution dist, as in of("JCT p99", "jct",
// "p99"); q "max-min" is the width of its range.
func of(name, dist, q string) stat {
	if q == "max-min" {
		return stat{name, func(c *MatrixCell) float64 { return c.Metric(dist+".max") - c.Metric(dist+".min") }}
	}
	return stat{name, func(c *MatrixCell) float64 { return c.Metric(dist + "." + q) }}
}
func cdf(ms float64) stat {
	return of(fmt.Sprintf("JCT CDF(%gms)", ms), "jct", fmt.Sprintf("cdf@%gms", ms))
}
func byCat(c topo.Category, q string) stat {
	return of(c.String()+" goodput "+q, "goodput."+catName(c), q)
}
func rtt(c topo.Category, q string) stat { return of(c.String()+" RTT "+q, "rtt."+catName(c), q) }
func util(layer, q string) stat          { return of(layer+" util "+q, "util."+layer, q) }

var (
	dctcp, lia2, lia4, xmp2, xmp4, tcp = SchemeDCTCP, SchemeLIA2, SchemeLIA4, SchemeXMP2, SchemeXMP4, SchemeTCP

	lias, xmps, ecns = []workload.Scheme{lia2, lia4}, []workload.Scheme{xmp2, xmp4}, []workload.Scheme{dctcp, xmp2, xmp4}
	five             = []workload.Scheme{dctcp, lia2, lia4, xmp2, xmp4}
	pats             = []Row{{Pattern: Permutation}, {Pattern: Random}, {Pattern: Incast}}
	perm, rnd, inc   = pats[:1], pats[1:2], pats[2:]
	goodput, jct     = of("goodput", "goodput", "mean"), of("JCT", "jct", "mean")
	jctP50, jctP99   = of("JCT p50", "jct", "p50"), of("JCT p99", "jct", "p99")
	podRTT           = rtt(topo.InterPod, "mean")
	p5, p95          = of("goodput p5", "goodput", "p5"), of("goodput p95", "goodput", "p95")
	spread           = stat{"goodput p95-p5", func(c *MatrixCell) float64 { return c.Metric("goodput.p95") - c.Metric("goodput.p5") }}
	above300         = of("JCT >300ms", "jct", "above300")
	coreMed, coreMax = util(topo.LayerCore, "p50"), util(topo.LayerCore, "max-min")
	inf              = math.Inf(1)
)

// coexist reads Table 2's pairing of XMP-2 with each other scheme,
// queue-major: the XMP-2 half's goodput and the other half's. Variant 1 is
// RED-strict.
func coexist(variant int, queues []int, others ...workload.Scheme) (xmp, other vec) {
	var rows []Row
	for _, q := range queues {
		rows = append(rows, Row{Pattern: Random, QueueLimit: q, StrictNonECT: variant == 1, Coexist: "XMP-2"})
	}
	return mx(of("XMP-2 goodput", "coexist.goodput", "mean"), rows, others...), mx(goodput, rows, others...)
}

// grid reads stat k of the params matrix at each (beta, K): XMP-2/b<beta>
// on the Random row marking at K, K-major.
func grid(k stat, ks []int, betas ...int) vec {
	var rows []Row
	for _, K := range ks {
		rows = append(rows, Row{Pattern: Random, MarkThreshold: K})
	}
	var schemes []workload.Scheme
	for _, b := range betas {
		s := xmp2
		s.Beta = b
		schemes = append(schemes, s)
	}
	return mx(k, rows, schemes...)
}

// fanin reads stat k of the incastsweep matrix's XMP-2 cell at each fan-in.
func fanin(k stat, servers ...int) vec {
	var rows []Row
	for _, n := range servers {
		rows = append(rows, Row{Pattern: Incast, Servers: n})
	}
	return mx(k, rows, xmp2)
}

const (
	abBase, abDegen = "threshold-marking (baseline)", "degenerate RED (Wq=1, MinTh=MaxTh=K)"
	abRED, abGuard  = "conventional RED (EWMA, Internet thresholds)", "cwr guard disabled (reduce per marked ACK)"
)

var (
	betas, k5and10        = []int{2, 3, 4, 5, 6}, []int{5, 10}
	queues, q50, q100     = []int{50, 100}, []int{50}, []int{100}
	incasts, shortFlows   = []string{"incast10k", "incast-dctcp", "incast-xmp2"}, []string{"websearch", "datamining"}
	ecnFaulty, lossFaulty = []string{"DCTCP", "AMP-2", "XMP-2"}, []string{"LIA-2", "OLIA-2"}
	allFaulty             = []string{"DCTCP", "LIA-2", "OLIA-2", "AMP-2", "XMP-2"}
)

// sub is the subflow sweep's XMP goodput at n subflows, step that at a
// subflows over that at b; sackGain a scheme's goodput with SACK over that
// without.
func sub(n int) vec {
	return mx(goodput, perm, workload.Scheme{Algorithm: xmp2.Algorithm, Subflows: n})
}
func step(a, b int) vec { return quot(sub(a), sub(b)) }
func sackGain(s ...workload.Scheme) vec {
	return quot(mx(goodput, []Row{{Pattern: Random, SACK: true}}, s...), mx(goodput, rnd, s...))
}

// move is Figure 7's subflow s of flow f: its change in rate from epoch 4
// to epoch 8, as L3 loads up.
func move(f, s int) vec {
	return diff(fig(fmt.Sprintf("Rates[8][%d][%d]", f-1, s-1)), fig(fmt.Sprintf("Rates[4][%d][%d]", f-1, s-1)))
}

// Figure panels, in order: fig1 DCTCP K=10, K=20, Halving K=10, K=20; fig4
// and fig6 beta=4, beta=6; fig7 (beta, K) = (4, 20), (5, 15), (6, 10).
// Figure 4 has 20 bins a phase. Figure 7's Rates[epoch][flow-1][subflow-1]
// on L3 are f2-2 ([1][1]) and f3-1 ([2][0]); their siblings are f2-1 and
// f3-2.
var claims = []claim{
	{"table1/xmp2>dctcp>lia2", CampaignMatrix, "", all(
		order(mx(goodput, pats, xmp2), mx(goodput, pats, dctcp), mx(goodput, pats, lia2)),
		within(quot(mx(goodput, pats, xmp2), mx(goodput, pats, dctcp)), 1.05, 1.13))},
	{"table1/xmp4>xmp2", CampaignMatrix, "", within(quot(mx(goodput, pats[:2], xmp4), mx(goodput, pats[:2], xmp2)), 1.03, 1.07)},
	{"table1/lia-gains-more", CampaignMatrix, "", all(
		order(quot(mx(goodput, pats, lia4), mx(goodput, pats, lia2)), quot(mx(goodput, pats, xmp4), mx(goodput, pats, xmp2))),
		within(quot(mx(goodput, pats, lia4), mx(goodput, pats, lia2)), 1.15, 1.25))},
	{"table1/paper-magnitudes", CampaignMatrix, "",
		within(quot(mx(goodput, pats[1:], five...), paper(441, 310, 435, 498, 543, 424, 303, 425, 484, 536)), 0.87, 1.13)},
	{"table1/xmp4>xmp2-incast", CampaignMatrix, "on Incast XMP-4 trails XMP-2 (486.8 vs 500.0; paper 536 vs 484)",
		order(mx(goodput, inc, xmp4), mx(goodput, inc, xmp2))},
	{"table1/lia4>dctcp-permutation", CampaignMatrix,
		"LIA-4 trails DCTCP on Permutation (574.1 vs 647.2): loss-driven flows pay proportionally more RTOs on 16x shorter flows",
		order(mx(goodput, perm, lia4), mx(goodput, perm, dctcp))},

	{"table2/xmp~dctcp", CampaignTable2, "", within(quot(coexist(0, queues, dctcp)), 0.97, 1.03)},
	{"table2/xmp>lia,tcp", CampaignTable2, "",
		all(within(quot(coexist(0, queues, lia2, tcp)), 1, inf), within(quot(coexist(1, queues, lia2, tcp)), 1, inf))},
	{"table2/strict-xmp-dominates", CampaignTable2, "", within(quot(coexist(1, queues, lia2, tcp)), 2.5, 3.5)},
	{"table2/margins-compress", CampaignTable2,
		"the margins widen from queue 50 to 100 (XMP : LIA-2 +34 -> +95 Mbps, XMP : TCP +65 -> +162)",
		order(diff(coexist(0, q50, lia2, tcp)), diff(coexist(0, q100, lia2, tcp)))},

	{"table3/lia-jct-3-7x", CampaignMatrix, "", ratios(mx(jct, inc, lias...), mx(jct, inc, ecns...), 3, 7)},
	{"table3/paper-magnitudes", CampaignMatrix, "", within(quot(mx(jct, inc, dctcp, lia2, lia4), paper(52, 156, 180)), 0.75, 0.95)},
	{"table3/lia-300ms-tail", CampaignMatrix, "no scheme has a job above 300 ms: the 200 ms RTOmin releases every straggler by 250 ms",
		within(mx(above300, inc, lias...), 0.05, 1)},
	{"table3/dctcp-2x-xmp", CampaignMatrix, "XMP-2 completes jobs faster than DCTCP (25.6 vs 45.0 ms; paper 93 vs 52)",
		within(quot(mx(jct, inc, xmp2), mx(jct, inc, dctcp)), 1.5, 2.5)},

	{"fig1/fair", CampaignFig1, "", all(within(fig("Jain[3]"), 0.98, 1), within(fig("Rates[3]"), 0.15, 0.35))},
	{"fig1/halving-underutilizes", CampaignFig1, "",
		order(least(fig("Rates[0][0]", 0, 1)), fig("Rates[0][0]", 3), fig("Rates[0][0]", 2))},
	{"fig1/queue-scales-with-k", CampaignFig1, "", all(
		order(fig("AvgQueueLen", 1, 3), fig("AvgQueueLen", 0, 2)),
		within(quot(fig("AvgQueueLen"), fig("Config.K")), 0, 1),
		within(fig("Drops"), 0, 0))},
	{"fig1/dctcp-unfair", CampaignFig1,
		"DCTCP converges: exact per-ACK CE counts and desynchronized alpha windows remove the paper's global synchronization",
		within(fig("Jain[3]", 0, 1), 0, 0.9)},

	{"fig4/shift", CampaignFig4, "", all(
		order(fig("PhaseAvg[0][0]"), fig("PhaseAvg[1][0]")), order(fig("PhaseAvg[1][1]"), fig("PhaseAvg[0][1]")),
		order(fig("PhaseAvg[1][1]"), fig("PhaseAvg[2][1]")), order(fig("PhaseAvg[2][0]"), fig("PhaseAvg[1][0]")))},
	{"fig4/beta6-slower", CampaignFig4, "", all(
		order(diff(fig("PhaseAvg[0][0]", 0), fig("PhaseAvg[1][0]", 0)), diff(fig("PhaseAvg[0][0]", 1), fig("PhaseAvg[1][0]", 1))),
		order(diff(fig("PhaseAvg[1][1]", 0), fig("PhaseAvg[2][1]", 0)), diff(fig("PhaseAvg[1][1]", 1), fig("PhaseAvg[2][1]", 1))),
		order(fig("Bins[40][0]", 0), fig("Bins[40][0]", 1)), order(fig("Bins[60][1]", 0), fig("Bins[60][1]", 1)))},

	{"fig6/fair", CampaignFig6, "", all(within(fig("Rates[4]"), 0.2, 0.3), within(fig("Jain"), 0.99, 1))},
	{"fig6/beta6-degrades", CampaignFig6, "beta=6 fairness degrades only slightly: 1 s epochs are ~4000 RTTs, enough to converge",
		within(diff(fig("Jain", 0), fig("Jain", 1)), 0.05, 1)},

	{"fig7/l3-sheds-siblings-rise", CampaignFig7, "", all(
		order(fig("Rates[4][1][1]"), fig("Rates[8][1][1]")), order(fig("Rates[4][2][0]"), fig("Rates[8][2][0]")),
		order(fig("Rates[8][1][0]"), fig("Rates[4][1][0]")), order(fig("Rates[8][2][1]"), fig("Rates[4][2][1]")))},
	{"fig7/attenuated", CampaignFig7, "", forEach([][2]int{{1, 1}, {4, 2}, {5, 1}, {5, 2}}, func(far [2]int) check {
		return all(within(quot(move(far[0], far[1]), move(2, 2)), -0.5, 0.5), within(quot(move(far[0], far[1]), move(3, 1)), -0.5, 0.5))
	})},
	{"fig7/recovers", CampaignFig7, "", all(within(fig("Rates[11][1][1]"), 0.15, 1), within(fig("Rates[11][2][0]"), 0.15, 1))},
	{"fig7/l3-closed", CampaignFig7, "", all(
		within(fig("Rates[12][1][1]"), 0, 0.05), within(fig("Rates[12][2][0]"), 0, 0.05),
		order(fig("Rates[12][1][0]"), fig("Rates[11][1][0]")), order(fig("Rates[12][2][1]"), fig("Rates[11][2][1]")))},

	{"fig8/xmp-tighter", CampaignMatrix, "", all(
		order(mx(p5, perm, xmp2), mx(p5, perm, dctcp), mx(p5, perm, lia2)),
		order(least(mx(spread, perm, dctcp, lia2, lia4)), most(mx(spread, perm, xmps...))))},
	{"fig8/dctcp-top-tail", CampaignMatrix, "", order(mx(p95, perm, dctcp), most(mx(p95, perm, lia2, lia4, xmp2, xmp4)))},
	{"fig8/locality", CampaignMatrix, "", all(
		order(mx(byCat(topo.InnerRack, "p50"), perm, dctcp), most(mx(byCat(topo.InnerRack, "p50"), perm, lia2, lia4, xmp2, xmp4))),
		order(least(mx(byCat(topo.InterPod, "p50"), perm, xmps...)), mx(byCat(topo.InterPod, "p50"), perm, dctcp)))},
	{"fig8/lia-lowest-widest", CampaignMatrix, "", forEach(categories, func(c topo.Category) check {
		med, span := byCat(c, "p50"), byCat(c, "max-min")
		return all(order(least(mx(med, perm, ecns...)), least(mx(med, perm, lias...))),
			order(most(mx(span, perm, lias...)), most(mx(span, perm, ecns...))))
	})},

	{"fig9/rto-plateau", CampaignMatrix, "",
		all(within(diff(mx(cdf(200), inc, five...), mx(cdf(50), inc, five...)), 0, 0), within(mx(cdf(250), inc, five...), 1, 1))},
	{"fig9/xmp-first", CampaignMatrix, "", all(
		order(mx(cdf(25), inc, xmp2), mx(cdf(25), inc, dctcp), most(mx(cdf(25), inc, lias...))),
		within(mx(cdf(25), inc, lias...), 0.25, 0.4))},
	{"fig9/dctcp-best", CampaignMatrix, "XMP-2 completes more jobs by 25 ms than DCTCP, the Table 3 swap",
		order(mx(cdf(25), inc, dctcp), mx(cdf(25), inc, xmp2))},

	{"fig10/lia-inflates", CampaignMatrix, "", all(
		forEach(pats, func(p Row) check {
			pod, rack := rtt(topo.InterPod, "mean"), rtt(topo.InterRack, "mean")
			ps := []Row{p}
			return all(ratios(mx(pod, ps, lias...), mx(pod, ps, ecns...), 2, 3.3), ratios(mx(rack, ps, lias...), mx(rack, ps, ecns...), 2, 3.3))
		}),
		within(mx(rtt(topo.InterPod, "p95"), pats, lias...), 1.9, 2.3),
		forEach(pats[:2], func(p Row) check {
			inner, ps := rtt(topo.InnerRack, "mean"), []Row{p}
			return ratios(mx(inner, ps, lias...), mx(inner, ps, ecns...), 3.4, 5.5)
		}),
		order(mx(rtt(topo.InnerRack, "mean"), inc, dctcp), mx(rtt(topo.InnerRack, "mean"), inc, lia2)))},
	{"fig10/xmp~dctcp", CampaignMatrix, "", forEach(categories, func(c topo.Category) check {
		m := rtt(c, "mean")
		return all(within(diff(mx(m, pats, xmp2), mx(m, pats, dctcp)), -0.07, 0.07),
			within(diff(mx(m, pats, xmp4), mx(m, pats, dctcp)), -0.07, 0.07),
			within(diff(mx(m, pats, xmp4), mx(m, pats, xmp2)), -0.08, 0.08))
	})},

	{"fig11/xmp-raises-median", CampaignMatrix, "", order(mx(coreMed, perm, xmp4), mx(coreMed, perm, xmp2), mx(coreMed, perm, dctcp))},
	{"fig11/xmp-shorter-lines", CampaignMatrix, "", all(
		order(mx(coreMax, perm, dctcp), mx(coreMax, perm, xmp2), mx(coreMax, perm, xmp4)),
		order(mx(coreMax, perm, dctcp), most(mx(coreMax, perm, lias...))))},
	{"fig11/lia-below-xmp", CampaignMatrix, "", forEach(layers, func(layer string) check {
		u := util(layer, "p50")
		return all(order(mx(u, pats[:2], xmp2, xmp4), mx(u, pats[:2], lia2, lia4)), order(mx(u, inc, xmp2), mx(u, inc, lia2)))
	})},

	{"ablation/baseline-full", CampaignAblation, "", within(col("Utilization", abBase), 0.98, 1)},
	{"ablation/degenerate-red=threshold", CampaignAblation, "",
		forEach([]string{"Utilization", "AvgQueue", "MaxQueue", "Drops", "Marks", "Timeouts"}, func(f string) check {
			return within(diff(col(f, abDegen), col(f, abBase)), 0, 0)
		})},
	{"ablation/ewma-red-queues", CampaignAblation, "", all(
		within(col("Utilization", abRED), 0.95, 1), within(col("Drops", abRED), 1, inf),
		within(quot(col("AvgQueue", abRED), col("AvgQueue", abBase)), 5, 9))},
	{"ablation/guard-costs-25pc", CampaignAblation, "", within(quot(col("Utilization", abGuard), col("Utilization", abBase)), 0.7, 0.8)},

	{"sweep/diminishing", CampaignSubflow, "", all(
		order(sub(8), sub(4), sub(2), sub(1)),
		order(step(2, 1), step(4, 2), step(8, 4)),
		within(step(2, 1), 1.15, 1.25), within(step(4, 2), 1.04, 1.08), within(step(8, 4), 1.01, 1.05))},

	{"params/k5-loses", CampaignParams, "", within(quot(grid(goodput, []int{10}, betas...), grid(goodput, []int{5}, betas...)), 1, inf)},
	{"params/beta-recovers", CampaignParams, "", order(grid(goodput, k5and10, 6), grid(goodput, k5and10, 5),
		grid(goodput, k5and10, 4), grid(goodput, k5and10, 3), grid(goodput, k5and10, 2))},
	{"params/k20-saturates", CampaignParams, "", all(
		within(quot(grid(goodput, []int{20}, betas...), grid(goodput, []int{10}, betas...)), 1, inf),
		within(quot(grid(goodput, []int{20}, betas...), grid(goodput, []int{40}, betas...)), 1, inf))},
	// 8-16 us per packet of K from 20 to 40 is 0.16-0.32 ms.
	{"params/rtt-per-packet", CampaignParams, "", all(
		order(grid(podRTT, []int{40}, betas...), grid(podRTT, []int{20}, betas...), grid(podRTT, []int{10}, betas...), grid(podRTT, []int{5}, betas...)),
		within(diff(grid(podRTT, []int{40}, betas...), grid(podRTT, []int{20}, betas...)), 0.16, 0.32))},

	{"incastsweep/p99-wall-at-8", CampaignIncast, "", all(within(fanin(jctP99, 4), 0, 200), within(fanin(jctP99, 8), 200, inf))},
	{"incastsweep/p50-wall-at-32", CampaignIncast, "", all(
		order(fanin(jctP50, 32), fanin(jctP50, 16), fanin(jctP50, 8), fanin(jctP50, 4)),
		within(fanin(jctP50, 32), 200, inf), within(fanin(jctP50, 16), 0, 200))},

	{"sack/fleet-goodput-drops", CampaignSACK, "",
		all(order(sackGain(tcp), sackGain(lia2), sackGain(lia4)), within(sackGain(tcp, lia2, lia4), 0.75, 0.99))},

	{"vl2/xmp~dctcp", CampaignVL2, "", all(
		within(quot(mx(goodput, rnd, xmp2, xmp4), mx(goodput, rnd, dctcp)), 0.95, 1.05),
		within(diff(mx(podRTT, rnd, xmp2, xmp4), mx(podRTT, rnd, dctcp)), -0.03, 0.03))},
	{"vl2/lia-trails", CampaignVL2, "", all(
		order(least(mx(goodput, rnd, dctcp, xmp2, xmp4)), most(mx(goodput, rnd, lias...))),
		within(quot(mx(podRTT, rnd, lias...), mx(podRTT, rnd, dctcp)), 2, 2.6))},

	{"fct/incast-10k", CampaignFCT, "", all(
		within(col("Launched", incasts...), 10000, inf), within(diff(col("Launched", incasts...), col("Flows", incasts...)), 0, 0),
		within(col("Drops", incasts...), 1, inf), order(col("P999Ms", incasts...), col("P50Ms", incasts...)))},
	{"fct/rto-tail", CampaignFCT, "", all(within(col("P50Ms", shortFlows...), 0, 5), within(col("P99Ms", shortFlows...), 200, 300))},
	{"fct/incast-xmp2-slowest", CampaignFCT, "", within(quot(col("P50Ms", "incast-xmp2"), col("P50Ms", "incast10k", "incast-dctcp")), 2, 4)},

	{"robustness/faults-bite", CampaignRobustness, "", all(within(col("Faults", allFaulty...), 5, 5), within(col("Flows", allFaulty...), 128, 128))},
	{"robustness/ecn-beats-loss", CampaignRobustness, "", all(
		ratios(col("GoodputMbps", ecnFaulty...), col("GoodputMbps", lossFaulty...), 1.3, 1.6),
		order(least(col("P99Ms", lossFaulty...)), most(col("P99Ms", ecnFaulty...))))},
	{"robustness/xmp-trails-dctcp", CampaignRobustness, "", within(quot(col("GoodputMbps", "XMP-2"), col("GoodputMbps", "DCTCP")), 0.95, 0.999)},
}
