package workload

import (
	"xmp/internal/arena"
	"xmp/internal/mptcp"
	"xmp/internal/sim"
	"xmp/internal/topo"
)

// PermutationConfig parameterizes the Permutation pattern: every host
// sends to one randomly chosen host, each host receives exactly one flow;
// when the whole permutation completes a new one starts. Flow sizes are
// uniform in [MinBytes, MaxBytes] (64-512 MB in the paper).
type PermutationConfig struct {
	Config
	MinBytes, MaxBytes int64
}

// Permutation is a running permutation-pattern generator.
type Permutation struct {
	cfg       PermutationConfig
	remaining int
	Rounds    int
	// perm holds the round's permutation, redrawn in place every round.
	perm []int
}

// StartPermutation launches the first round immediately.
func StartPermutation(cfg PermutationConfig) *Permutation {
	if cfg.MinBytes <= 0 || cfg.MaxBytes < cfg.MinBytes {
		panic("workload: bad permutation size range")
	}
	p := &Permutation{cfg: cfg}
	p.round()
	return p
}

// derangement fills perm with a permutation of [0,len(perm)) with no
// fixed points, so no host sends to itself, and returns it.
func derangement(rng *sim.RNG, perm []int) []int {
	for {
		rng.PermInto(perm)
		ok := true
		for i, v := range perm {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return perm
		}
	}
}

func (p *Permutation) round() {
	n := p.cfg.Net.NumHosts()
	if len(p.perm) != n {
		p.perm = make([]int, n)
	}
	perm := derangement(p.cfg.RNG, p.perm)
	p.remaining = n
	p.Rounds++
	for src, dst := range perm {
		size := p.cfg.RNG.UniformBytes(p.cfg.MinBytes, p.cfg.MaxBytes)
		launchLarge(&p.cfg.Config, src, dst, size, p)
	}
}

// flowDone starts the next round once the whole permutation completes.
func (p *Permutation) flowDone(*mptcp.Flow) {
	p.remaining--
	if p.remaining == 0 && p.cfg.Net.Engine().Now() < p.cfg.Stop {
		p.round()
	}
}

// RandomConfig parameterizes the Random pattern: each host keeps one
// outgoing flow alive to a random destination (at most MaxFlowsPerDst
// flows may target one host); sizes are bounded-Pareto (shape 1.5, mean
// 192 MB, bound 768 MB in the paper).
type RandomConfig struct {
	Config
	ParetoMeanBytes int64
	ParetoMaxBytes  int64
	MaxFlowsPerDst  int
	// ExcludeSameRack forbids intra-rack pairs (the constraint the paper
	// places on the Incast pattern's background flows).
	ExcludeSameRack bool
	// Hosts restricts which hosts act as sources (nil = all). The Table 2
	// coexistence runs split the hosts between two schemes this way.
	Hosts []int
}

// Random is a running random-pattern generator.
type Random struct {
	cfg      RandomConfig
	dstLoad  []int
	Launched int
	// srcs holds per-source launch state, each its flows' completion
	// handler, so the closed-loop relaunch chain allocates nothing per
	// launch.
	srcs []randSrc
}

// randSrc is one source's closed-loop state: the destination of its
// current flow.
type randSrc struct {
	r   *Random
	src int
	dst int
}

// flowDone frees the destination and relaunches from the source.
func (s *randSrc) flowDone(*mptcp.Flow) {
	r := s.r
	r.dstLoad[s.dst]--
	if r.cfg.Net.Engine().Now() < r.cfg.Stop {
		r.launchFrom(s.src)
	}
}

// StartRandom launches one flow per host immediately.
func StartRandom(cfg RandomConfig) *Random {
	if cfg.ParetoMeanBytes <= 0 || cfg.ParetoMaxBytes < cfg.ParetoMeanBytes {
		panic("workload: bad random size parameters")
	}
	if cfg.MaxFlowsPerDst < 1 {
		cfg.MaxFlowsPerDst = 4
	}
	r := &Random{cfg: cfg, dstLoad: make([]int, cfg.Net.NumHosts())}
	r.srcs = make([]randSrc, cfg.Net.NumHosts())
	for i := range r.srcs {
		r.srcs[i] = randSrc{r: r, src: i}
	}
	hosts := cfg.Hosts
	if hosts == nil {
		hosts = make([]int, cfg.Net.NumHosts())
		for i := range hosts {
			hosts[i] = i
		}
	}
	for _, src := range hosts {
		r.launchFrom(src)
	}
	return r
}

func (r *Random) pickDst(src int) int {
	n := r.cfg.Net.NumHosts()
	for tries := 0; tries < 64; tries++ {
		dst := r.cfg.RNG.Intn(n)
		if dst == src || r.dstLoad[dst] >= r.cfg.MaxFlowsPerDst {
			continue
		}
		if r.cfg.ExcludeSameRack && r.cfg.Net.Categorize(src, dst) == topo.InnerRack {
			continue
		}
		return dst
	}
	return -1
}

func (r *Random) launchFrom(src int) {
	dst := r.pickDst(src)
	if dst < 0 {
		return
	}
	size := int64(r.cfg.RNG.Pareto(1.5, float64(r.cfg.ParetoMeanBytes), 1, float64(r.cfg.ParetoMaxBytes)))
	if size < 1 {
		size = 1
	}
	r.dstLoad[dst]++
	r.Launched++
	s := &r.srcs[src]
	s.dst = dst
	launchLarge(&r.cfg.Config, src, dst, size, s)
}

// IncastConfig parameterizes the Incast pattern: Jobs concurrent jobs,
// each picking one client and Servers servers at random; the client sends
// a RequestBytes flow to each server, every server answers with a
// ResponseBytes flow, and the job ends when all responses arrive. Small
// flows use plain TCP. A Random-pattern background of large flows (scheme
// under test, no intra-rack pairs) loads the fabric.
type IncastConfig struct {
	Config
	Jobs          int
	Servers       int
	RequestBytes  int64
	ResponseBytes int64
	// Background enables the paper's per-host large background flows.
	Background       bool
	BackgroundConfig RandomConfig
}

// DefaultIncastShape fills the paper's job shape: 8 jobs, 8 servers, 2 KB
// requests, 64 KB responses.
func (c *IncastConfig) DefaultIncastShape() {
	if c.Jobs == 0 {
		c.Jobs = 8
	}
	if c.Servers == 0 {
		c.Servers = 8
	}
	if c.RequestBytes == 0 {
		c.RequestBytes = 2 << 10
	}
	if c.ResponseBytes == 0 {
		c.ResponseBytes = 64 << 10
	}
}

// Incast is a running incast-pattern generator.
type Incast struct {
	cfg        IncastConfig
	Background *Random
	JobsRun    int

	// Pooled job plumbing, as Config pools launch records: perm is the
	// host permutation every job draws its client and servers from; job
	// records are carved from jobs, each with its requests carved from
	// reqs, and reused through jobFree once their job ends.
	perm    []int
	jobs    arena.Slab[incastJob]
	reqs    arena.Runs[incastReq]
	jobFree []*incastJob
}

// StartIncast launches the background flows and the first Jobs jobs.
func StartIncast(cfg IncastConfig) *Incast {
	cfg.DefaultIncastShape()
	inc := &Incast{cfg: cfg}
	if cfg.Background {
		bg := cfg.BackgroundConfig
		bg.ExcludeSameRack = true
		inc.Background = StartRandom(bg)
	}
	for j := 0; j < cfg.Jobs; j++ {
		inc.job()
	}
	return inc
}

// incastJob is one running job: its client, start time and outstanding
// responses. It is its responses' completion handler; reqs, one per
// server, are its requests'. A record outlives its job: the next job
// reuses it, requests included.
type incastJob struct {
	inc     *Incast
	client  int
	start   sim.Time
	pending int
	reqs    []incastReq
}

// incastReq is one server's request of a job.
type incastReq struct {
	job *incastJob
	srv int
}

// getJob pops a free job record or carves a new one with its requests.
func (inc *Incast) getJob() *incastJob {
	if n := len(inc.jobFree); n > 0 {
		j := inc.jobFree[n-1]
		inc.jobFree[n-1] = nil
		inc.jobFree = inc.jobFree[:n-1]
		return j
	}
	j := inc.jobs.Get()
	j.inc = inc
	j.reqs = inc.reqs.Carve(inc.cfg.Servers)
	for i := range j.reqs {
		j.reqs[i].job = j
	}
	return j
}

func (inc *Incast) job() {
	cfg := &inc.cfg
	if n := cfg.Net.NumHosts(); len(inc.perm) != n {
		inc.perm = make([]int, n)
	}
	// Pick 1 client + Servers distinct servers.
	picked := cfg.RNG.PermInto(inc.perm)[:cfg.Servers+1]
	j := inc.getJob()
	j.client, j.start, j.pending = picked[0], cfg.Net.Engine().Now(), cfg.Servers
	inc.JobsRun++
	for i, srv := range picked[1:] {
		// Request client -> server; on completion the server responds.
		j.reqs[i].srv = srv
		launchSmallTCP(&cfg.Config, j.client, srv, cfg.RequestBytes, &j.reqs[i])
	}
}

// flowDone sends the server's response.
func (r *incastReq) flowDone(*mptcp.Flow) {
	cfg := &r.job.inc.cfg
	launchSmallTCP(&cfg.Config, r.srv, r.job.client, cfg.ResponseBytes, r.job)
}

// flowDone counts a response; the last one ends the job and starts the
// next.
func (j *incastJob) flowDone(*mptcp.Flow) {
	j.pending--
	if j.pending > 0 {
		return
	}
	cfg := &j.inc.cfg
	if cfg.Collector != nil {
		cfg.Collector.JCT.AddDuration(cfg.Net.Engine().Now().Sub(j.start))
	}
	// Every request and response of the job has completed, so nothing
	// refers to its record any more.
	j.inc.jobFree = append(j.inc.jobFree, j)
	if cfg.Net.Engine().Now() < cfg.Stop {
		j.inc.job()
	}
}

// ShortFlowsConfig parameterizes the ShortFlows pattern — the
// million-short-flow regime of the FCT campaigns. Every host keeps PerHost
// closed loops of latency-sensitive plain-TCP flows alive: the moment one
// flow completes, its loop samples a fresh bounded-Pareto size (shape
// Alpha, mean MeanBytes, bounds [MinBytes, MaxBytes] — the knobs that
// distinguish a web-search tail from a data-mining one) and launches to a
// fresh uniform-random destination. Completion times land in
// Collector.FCT, whose p50/p95/p99/p999 the FCT campaign reports.
type ShortFlowsConfig struct {
	Config
	Alpha              float64 // Pareto shape (default 1.1)
	MeanBytes          int64
	MinBytes, MaxBytes int64 // bounds (MinBytes defaults to 1)
	// PerHost is the number of concurrent closed loops per host (default 1).
	PerHost int
}

// ShortFlows is a running short-flow generator.
type ShortFlows struct {
	cfg       ShortFlowsConfig
	Launched  int
	Completed int
	// loops holds per-loop launch state, each its flows' completion
	// handler (the randSrc idiom): with the arena recycling the flow graph,
	// steady-state short-flow launch allocates nothing.
	loops []shortLoop
}

// shortLoop is one closed loop's state.
type shortLoop struct {
	sf  *ShortFlows
	src int
}

// flowDone relaunches the loop until Stop.
func (l *shortLoop) flowDone(*mptcp.Flow) {
	sf := l.sf
	sf.Completed++
	if sf.cfg.Net.Engine().Now() < sf.cfg.Stop {
		sf.launch(l)
	}
}

// StartShortFlows launches PerHost flows per host immediately.
func StartShortFlows(cfg ShortFlowsConfig) *ShortFlows {
	if cfg.Alpha == 0 {
		cfg.Alpha = 1.1
	}
	if cfg.MinBytes == 0 {
		cfg.MinBytes = 1
	}
	if cfg.PerHost == 0 {
		cfg.PerHost = 1
	}
	if cfg.MeanBytes <= 0 || cfg.MaxBytes < cfg.MeanBytes || cfg.Alpha <= 1 {
		panic("workload: bad short-flow size parameters")
	}
	sf := &ShortFlows{cfg: cfg}
	n := cfg.Net.NumHosts()
	sf.loops = make([]shortLoop, n*cfg.PerHost)
	for i := range sf.loops {
		sf.loops[i] = shortLoop{sf: sf, src: i % n}
	}
	for i := range sf.loops {
		sf.launch(&sf.loops[i])
	}
	return sf
}

func (sf *ShortFlows) launch(l *shortLoop) {
	cfg := &sf.cfg
	n := cfg.Net.NumHosts()
	// Uniform over hosts != src.
	dst := cfg.RNG.Intn(n - 1)
	if dst >= l.src {
		dst++
	}
	size := int64(cfg.RNG.Pareto(cfg.Alpha, float64(cfg.MeanBytes), float64(cfg.MinBytes), float64(cfg.MaxBytes)))
	if size < 1 {
		size = 1
	}
	sf.Launched++
	launchSmallTCP(&cfg.Config, l.src, dst, size, l)
}

// IncastBurstConfig parameterizes the IncastBurst pattern: Senders
// concurrent plain-TCP senders, spread round-robin over every host except
// the client, host 0, all transmit ResponseBytes to it at once —
// the barrier-synchronized fan-in of a partition/aggregate job. With
// Senders far above the host count the pattern models many worker
// processes per machine, which is how a k=8 fabric of 128 hosts mounts a
// 10,000-sender burst. Per-flow completion times land in Collector.FCT;
// each full round's completion lands in Collector.JCT.
type IncastBurstConfig struct {
	Config
	Senders       int
	ResponseBytes int64
	// Rounds of bursts to run back-to-back (default 1); a new round starts
	// only when the previous one fully completes and Now < Stop.
	Rounds int
	// UseScheme switches the senders from plain TCP to Config.Scheme (via
	// LaunchFlow) — the mitigation axis: the same synchronized fan-in under
	// TCP, DCTCP or a multipath coupler. An explicit flag rather than a
	// Scheme-field check because the Scheme zero value is a valid scheme
	// (AlgXMP), and "unset means plain TCP" must stay expressible.
	UseScheme bool
}

// IncastBurst is a running burst generator.
type IncastBurst struct {
	cfg        IncastBurstConfig
	Launched   int
	RoundsRun  int
	pending    int
	roundStart sim.Time
	// senders holds the sender slots, each its flows' completion handler.
	senders []burstSender
}

// burstSender is one sender slot's source host.
type burstSender struct {
	b   *IncastBurst
	src int
}

// flowDone counts the sender in; the last one ends the round and starts
// the next.
func (s *burstSender) flowDone(*mptcp.Flow) {
	b := s.b
	b.pending--
	if b.pending > 0 {
		return
	}
	cfg := &b.cfg
	if cfg.Collector != nil {
		cfg.Collector.JCT.AddDuration(cfg.Net.Engine().Now().Sub(b.roundStart))
	}
	if b.RoundsRun < cfg.Rounds && cfg.Net.Engine().Now() < cfg.Stop {
		b.round()
	}
}

// StartIncastBurst launches the first round immediately.
func StartIncastBurst(cfg IncastBurstConfig) *IncastBurst {
	if cfg.Rounds == 0 {
		cfg.Rounds = 1
	}
	n := cfg.Net.NumHosts()
	if cfg.Senders < 1 || cfg.ResponseBytes < 1 {
		panic("workload: bad incast-burst parameters")
	}
	b := &IncastBurst{cfg: cfg}
	b.senders = make([]burstSender, cfg.Senders)
	for i := range b.senders {
		b.senders[i] = burstSender{b: b, src: 1 + i%(n-1)}
	}
	b.round()
	return b
}

func (b *IncastBurst) round() {
	cfg := &b.cfg
	b.RoundsRun++
	b.roundStart = cfg.Net.Engine().Now()
	b.pending = len(b.senders)
	for i := range b.senders {
		s := &b.senders[i]
		b.Launched++
		if cfg.UseScheme {
			launchLarge(&cfg.Config, s.src, 0, cfg.ResponseBytes, s)
		} else {
			launchSmallTCP(&cfg.Config, s.src, 0, cfg.ResponseBytes, s)
		}
	}
}
