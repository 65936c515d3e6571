// Package workload generates the paper's Section 5.2 traffic patterns on
// a Fat-Tree: Permutation, Random (Pareto-sized flows) and Incast
// (request/response jobs over background Random traffic), and collects the
// measurements the tables and figures report (per-flow goodput by
// locality, RTT distributions, job completion times).
package workload

import (
	"fmt"

	"xmp/internal/arena"
	"xmp/internal/metrics"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/transport"
)

// Scheme identifies one transfer scheme of the evaluation, e.g. XMP-2
// (two subflows) or DCTCP.
type Scheme struct {
	Algorithm mptcp.Algorithm
	// Subflows per large flow (1 for the single-path schemes).
	Subflows int
	// Beta for the XMP/BOS variants (0 = default 4).
	Beta int
}

// Label renders the paper's scheme names: "XMP-2", "LIA-4", "DCTCP"...
func (s Scheme) Label() string {
	if s.Algorithm.Multipath() {
		return fmt.Sprintf("%s-%d", s.Algorithm, s.Subflows)
	}
	return s.Algorithm.String()
}

// Collector accumulates experiment measurements. Create with NewCollector.
type Collector struct {
	// Goodput of completed large flows in Mbps, overall and by locality.
	Goodput      *metrics.Dist
	GoodputByCat map[topo.Category]*metrics.Dist
	// RTT samples in milliseconds by locality (subsampled by RTTStride).
	RTT map[topo.Category]*metrics.Dist
	// JCT is the Incast job completion time in milliseconds.
	JCT *metrics.Dist
	// FCT records every flow's completion time in milliseconds — large and
	// small flows alike. The short-flow campaigns report its p50/p95/p99/
	// p999 tail; the goodput tables ignore it.
	FCT *metrics.Dist
	// FCTBySize slices the same completion times by flow size — the
	// paper's "small flows p99 vs large flows" cut. Index with FCTSizeBin:
	// 0 ≤ 32 KB, 1 in (32 KB, 1 MB], 2 > 1 MB. Sizes are acknowledged
	// application bytes at completion, so partially-delivered flows bin by
	// what they actually moved.
	FCTBySize [FCTBins]*metrics.Dist

	// FlowsCompleted counts finished large flows; BytesMoved their bytes.
	FlowsCompleted int
	BytesMoved     int64

	// RTTStride keeps every n-th RTT sample (1 = all). Fat-Tree runs
	// produce millions of samples; the distributions converge long before
	// that.
	RTTStride int
	rttSeen   int
}

// FCT size-bin boundaries in bytes and bin count (see Collector.FCTBySize).
const (
	FCTSmallMaxBytes  = 32 << 10
	FCTMediumMaxBytes = 1 << 20
	FCTBins           = 3
)

// FCTSizeBin maps a flow's size in bytes to its FCTBySize index.
func FCTSizeBin(bytes int64) int {
	switch {
	case bytes <= FCTSmallMaxBytes:
		return 0
	case bytes <= FCTMediumMaxBytes:
		return 1
	default:
		return 2
	}
}

// FCTBinLabel names a FCTBySize index in rendered tables.
func FCTBinLabel(bin int) string {
	switch bin {
	case 0:
		return "<=32KB"
	case 1:
		return "32KB-1MB"
	default:
		return ">1MB"
	}
}

// NewCollector returns an empty collector keeping every n-th RTT sample.
func NewCollector(rttStride int) *Collector {
	if rttStride < 1 {
		rttStride = 1
	}
	c := &Collector{
		Goodput:      &metrics.Dist{},
		GoodputByCat: make(map[topo.Category]*metrics.Dist),
		RTT:          make(map[topo.Category]*metrics.Dist),
		JCT:          &metrics.Dist{},
		FCT:          &metrics.Dist{},
		RTTStride:    rttStride,
	}
	for i := range c.FCTBySize {
		c.FCTBySize[i] = &metrics.Dist{}
	}
	for _, cat := range []topo.Category{topo.InnerRack, topo.InterRack, topo.InterPod} {
		c.GoodputByCat[cat] = &metrics.Dist{}
		c.RTT[cat] = &metrics.Dist{}
	}
	return c
}

func (c *Collector) recordFlow(f *mptcp.Flow, cat topo.Category, now sim.Time) {
	mbps := metrics.Mbps(f.GoodputBps(now))
	c.Goodput.Add(mbps)
	c.GoodputByCat[cat].Add(mbps)
	c.FlowsCompleted++
	c.BytesMoved += f.AckedBytes()
}

func (c *Collector) recordFCT(f *mptcp.Flow) {
	d := f.CompletionTime().Sub(f.StartTime())
	c.FCT.AddDuration(d)
	c.FCTBySize[FCTSizeBin(f.AckedBytes())].AddDuration(d)
}

func (c *Collector) recordRTT(cat topo.Category, rtt sim.Duration) {
	c.rttSeen++
	if c.rttSeen%c.RTTStride != 0 {
		return
	}
	c.RTT[cat].AddDuration(rtt)
}

// Config carries the knobs shared by all three generators.
type Config struct {
	// Net is the fabric the pattern runs over (FatTree or VL2).
	Net topo.Fabric
	RNG *sim.RNG
	// Scheme used by the large flows.
	Scheme    Scheme
	Transport transport.Config
	Collector *Collector
	// Stop: generators launch no new flows after this time; in-flight
	// flows run to completion.
	Stop sim.Time
	// TraceNames labels every flow with "scheme:src->dst" for trace
	// output. Off by default: a fat-tree campaign launches tens of
	// thousands of flows whose names are never read, and formatting them
	// eagerly was a measurable share of launch-path allocations.
	TraceNames bool
	// Arena recycles the entire flow graph — Flow, connections,
	// controllers — across launches (see mptcp.Arena): completed
	// flows are released back automatically after their callbacks run, and
	// steady-state launches allocate nothing. Leave nil when the caller
	// retains *Flow pointers past completion (or hold mptcp.FlowHandles,
	// which panic on stale access instead of reading a recycled flow). An
	// experiment cell's arena belongs to the worker running it and is
	// rewound (mptcp.Arena.Reset) for the next cell, which zeroes every flow
	// it built, failed ones included: none may be read after its cell.
	Arena *mptcp.Arena

	// Pooled launch plumbing (see launchRec): launch records carved from a
	// slab and reused through recFree, and the subflow-spec scratch buffer,
	// so launches allocate no records one by one and steady-state launches
	// no spec slices. Copy a Config only before launching from it.
	recs        arena.Slab[launchRec]
	recFree     []*launchRec
	specScratch []mptcp.SubflowSpec
	// nextID caches the Net.NextConnID method value: binding it per launch
	// would allocate a closure every time.
	nextID func() netem.ConnID
}

// nextConnID returns the cached ID-allocator method value.
func (cfg *Config) nextConnID() func() netem.ConnID {
	if cfg.nextID == nil {
		cfg.nextID = cfg.Net.NextConnID
	}
	return cfg.nextID
}

// launchRec carries one launch's variable context (category, completion
// handler) and is the flow's mptcp.Observer; completed records return to
// Config.recFree.
type launchRec struct {
	cfg           *Config
	cat           topo.Category
	done          doneHandler
	recordGoodput bool
}

// doneHandler is what a launch calls once its flow has completed and been
// recorded: a generator's per-loop or per-sender state, or a doneFunc.
type doneHandler interface {
	flowDone(f *mptcp.Flow)
}

// doneFunc adapts LaunchFlow's callback to a doneHandler.
type doneFunc func(*mptcp.Flow)

func (fn doneFunc) flowDone(f *mptcp.Flow) { fn(f) }

// getRec pops a free launch record or carves a new one.
func (cfg *Config) getRec() *launchRec {
	if n := len(cfg.recFree); n > 0 {
		r := cfg.recFree[n-1]
		cfg.recFree[n-1] = nil
		cfg.recFree = cfg.recFree[:n-1]
		return r
	}
	r := cfg.recs.Get()
	r.cfg = cfg
	return r
}

// Progress implements mptcp.Observer: launches keep no rate series.
func (r *launchRec) Progress(int, sim.Time, int) {}

// RTTSample implements mptcp.Observer.
func (r *launchRec) RTTSample(_ int, rtt sim.Duration) {
	if c := r.cfg.Collector; c != nil {
		c.recordRTT(r.cat, rtt)
	}
}

// Complete implements mptcp.Observer: record the flow, run the launch's
// handler, then hand the flow back to the arena.
func (r *launchRec) Complete(f *mptcp.Flow) {
	cfg := r.cfg
	if col := cfg.Collector; col != nil {
		col.recordFCT(f)
		if r.recordGoodput {
			col.recordFlow(f, r.cat, cfg.Net.Engine().Now())
		}
	}
	done := r.done
	// Recycle the record before user code runs: the completion handler
	// typically launches the next flow, which then reuses it immediately.
	r.done = nil
	cfg.recFree = append(cfg.recFree, r)
	if done != nil {
		done.flowDone(f)
	}
	// Release last: handlers may still read the flow's stats; after this
	// the flow belongs to the arena again.
	if cfg.Arena != nil {
		cfg.Arena.Release(f)
	}
}

// specs returns the reusable subflow-spec buffer sized to n. Safe because
// mptcp.New and Flow rebinds copy the spec values out and never retain the
// slice.
func (cfg *Config) specs(n int) []mptcp.SubflowSpec {
	if cap(cfg.specScratch) < n {
		cfg.specScratch = make([]mptcp.SubflowSpec, n)
	}
	return cfg.specScratch[:n]
}

// newFlow builds the flow through the arena when one is configured.
func (cfg *Config) newFlow(opts mptcp.Options) *mptcp.Flow {
	if cfg.Arena != nil {
		return cfg.Arena.NewFlow(cfg.Net.Engine(), opts)
	}
	return mptcp.New(cfg.Net.Engine(), opts)
}

// LaunchFlow starts one large flow of the configured scheme from host
// index src to dst, of the given size, and records it on completion.
// onDone (may be nil) runs after recording.
func LaunchFlow(cfg *Config, src, dst int, bytes int64, onDone func(*mptcp.Flow)) *mptcp.Flow {
	var done doneHandler
	if onDone != nil {
		done = doneFunc(onDone)
	}
	return launchLarge(cfg, src, dst, bytes, done)
}

// launchLarge is LaunchFlow for the generators, whose handlers are their
// own per-loop or per-sender state.
func launchLarge(cfg *Config, src, dst int, bytes int64, done doneHandler) *mptcp.Flow {
	return launch(cfg, cfg.Scheme, true, src, dst, bytes, done)
}

// launchSmallTCP starts a plain-TCP small flow (the latency-sensitive
// traffic: requests and responses of the Incast jobs). RTTs are recorded
// under the pair's category; goodput is not (the paper's goodput tables
// cover large flows only).
func launchSmallTCP(cfg *Config, src, dst int, bytes int64, done doneHandler) *mptcp.Flow {
	return launch(cfg, Scheme{Algorithm: mptcp.AlgReno}, false, src, dst, bytes, done)
}

// launch is the one launch body. large selects what separates the two
// kinds of flow besides their scheme: large flows record goodput and are
// named after the scheme, small ones are named "tcp".
func launch(cfg *Config, s Scheme, large bool, src, dst int, bytes int64, done doneHandler) *mptcp.Flow {
	net := cfg.Net

	nsub := s.Subflows
	if !s.Algorithm.Multipath() || nsub < 1 {
		nsub = 1
	}
	specs := cfg.specs(nsub)
	for i := range specs {
		specs[i] = mptcp.SubflowSpec{
			SrcAddr: net.AliasOf(src, i),
			DstAddr: net.AliasOf(dst, i),
		}
	}
	var nameFn func() string
	if cfg.TraceNames {
		nameFn = func() string {
			label := "tcp"
			if large {
				label = s.Label()
			}
			return fmt.Sprintf("%s:%d->%d", label, src, dst)
		}
	}
	rec := cfg.getRec()
	rec.cat = net.Categorize(src, dst)
	rec.done = done
	rec.recordGoodput = large
	f := cfg.newFlow(mptcp.Options{
		NameFn:     nameFn,
		Src:        net.Host(src),
		Dst:        net.Host(dst),
		Subflows:   specs,
		TotalBytes: bytes,
		Algorithm:  s.Algorithm,
		Beta:       s.Beta,
		Transport:  cfg.Transport,
		NextConnID: cfg.nextConnID(),
		Observer:   rec,
	})
	f.Start()
	return f
}
