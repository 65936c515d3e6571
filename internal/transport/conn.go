package transport

import (
	"fmt"
	"math"

	"xmp/internal/cc"
	"xmp/internal/netem"
	"xmp/internal/sim"
)

// State is the lifecycle state of a connection.
type State uint8

// Connection lifecycle states.
const (
	StateIdle State = iota
	StateSynSent
	StateEstablished
	StateDone
	StateFailed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateSynSent:
		return "syn-sent"
	case StateEstablished:
		return "established"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Options configures a connection.
type Options struct {
	ID       netem.ConnID
	Src, Dst *netem.Host
	// SrcAddr/DstAddr select which host addresses the connection runs
	// between; in the Fat-Tree the destination alias determines the path.
	// Zero values default to each host's primary address.
	SrcAddr, DstAddr netem.Addr
	Controller       cc.Controller
	Config           Config
	Supply           Supply
	// Member is the coupling-group slot for multipath flows; nil for
	// single-path connections.
	Member *cc.Member
	// Owner receives the connection's events; nil for none.
	Owner Owner
}

// Owner receives a connection's events. Owners are typically pointers
// (mptcp's per-subflow records), so storing one in Options allocates
// nothing.
type Owner interface {
	// Progress fires on every ACK that newly acknowledges data.
	Progress(now sim.Time, ackedBytes int)
	// RTTSample fires for every RTT measurement (Figure 10 data).
	RTTSample(rtt sim.Duration)
	// Complete fires once when every supplied byte has been acknowledged.
	Complete(c *Conn)
}

// Stats aggregates a connection's counters.
type Stats struct {
	SentSegments    int64
	RetransSegments int64
	Timeouts        int64
	FastRetransmits int64
	AckedBytes      int64
	RcvdBytes       int64
	DupAcksSeen     int64
}

// segCounts are the segment counts of Stats as a connection keeps them,
// int32 (its byte counts stay 64-bit). Every increment goes through
// Conn.bump, which panics at 2^31-1 — 2^31 segments are 3 TB on one
// connection — instead of wrapping.
type segCounts struct {
	sent, retrans, timeouts, fastRetrans, dupAcksSeen int32
}

// Conn is one unidirectional TCP data transfer from Src to Dst. A single
// Conn object holds both endpoint state machines (the simulation is
// single-threaded); each host's demux delivers into the proper half.
//
// A burst of senders holds one Conn per subflow, all alive at once, so the
// record is laid out by width (DESIGN.md, "Per-connection records"):
// pointers, then 64-bit sequence numbers, times and byte counts, then
// 32-bit fields, then bytes and flags. Every field narrower than the value
// it once held has a stated bound: a configuration check at bind, an
// invariant of the code that writes it, or a guard that panics at the
// limit (bump) rather than wrap. TestConnLayout pins the size.
type Conn struct {
	eng    *sim.Engine
	ctrl   cc.Controller
	src    *netem.Host
	dst    *netem.Host
	supply Supply
	member *cc.Member
	// fwdPath/revPath are the link sequences each direction follows,
	// resolved once at setup and stamped on every packet sent.
	fwdPath, revPath *netem.Path

	// sender and receiver are the pre-boxed demux endpoints, so Register
	// never allocates an interface box per registration.
	sender   senderHalf
	receiver receiverHalf

	owner Owner

	startTime   sim.Time
	establishAt sim.Time
	doneAt      sim.Time

	// Sender half.
	sndUna, sndNxt int64
	suppliedEnd    int64
	// The one short (sub-MSS) segment a supply may hand out, its last:
	// sequence number (-1 = none yet); its length is shortLen.
	shortSeq   int64
	recoverSeq int64
	rtt        rttEstimator
	rtoH       sim.Handle
	// SACK scoreboard: segments above snd_una the receiver reported
	// holding, and the recovery cursor for hole retransmission.
	sacked     rangeSet
	holeCursor int64
	ackedBytes int64

	// Receiver half.
	rcvNxt        int64
	ooo           rangeSet // received segments above rcvNxt
	rcvdBytes     int64
	delAckH       sim.Handle
	lastTriggerTS int64

	id               netem.ConnID
	srcAddr, dstAddr netem.Addr
	// srcSlot/dstSlot are the hosts' demux slots for this connection,
	// resolved once at setup so the per-packet path is lookup-free.
	srcSlot, dstSlot int32
	// inflight counts packets of this connection currently inside the
	// network: every send stamps p.Owner at it, and the network decrements
	// it at the packet's exit point (host delivery or drop). The flow arena
	// recycles a finished connection only once this reaches zero, so a slot
	// or ID reuse can never receive a stale packet.
	inflight int32
	segs     segCounts

	// Config, as the connection reads it after bind (RTOMin lives in rtt).
	maxRetries  int32
	delAckCount int32

	// dupAcks <= segs.dupAcksSeen: both count the same duplicate ACKs,
	// and only dupAcks is reset mid-transfer, so that counter's guard
	// bounds it.
	dupAcks int32
	retries int32 // guarded by bump
	// delayCount <= delAckCount: reaching it sends the ACK that zeroes it.
	delayCount int32

	// shortLen <= netem.MSS: nextPayload refuses a longer payload.
	shortLen uint16
	state    State
	// pendingCE counts CE marks not yet echoed (EchoCounter, EchoDCTCP).
	// Every CE arrival sends an ACK that echoes at least one, so it stays
	// at 0 or 1; receiverDeliver guards its int8 limit all the same, which
	// also bounds the echo count an ACK carries (netem.Packet.ECNEcho).
	pendingCE  int8
	echoMode   cc.EchoMode
	enableSACK bool

	exhausted   bool
	inRecovery  bool
	pendingCWR  bool
	rtoArmed    bool
	eceLatched  bool // EchoStandard latch
	delAckArmed bool
}

// bump increments a narrowed counter of connection c, panicking at its
// int32 limit rather than wrapping.
func (c *Conn) bump(n *int32, what string) {
	if *n == math.MaxInt32 {
		c.overflow(what)
	}
	*n++
}

// overflow panics naming the connection and the counter that reached its
// limit; kept out of line so bump inlines.
//
//go:noinline
func (c *Conn) overflow(what string) {
	panic(fmt.Sprintf("transport: connection %d: %s reached its limit", c.id, what))
}

// senderHalf and receiverHalf adapt the two ends of a Conn to the host
// demultiplexer. They live inside the Conn and register by pointer, so the
// interface boxing happens once per Conn object, not per registration.
type senderHalf struct{ c *Conn }

func (h *senderHalf) Deliver(p *netem.Packet) { h.c.senderDeliver(p) }

// Audit makes each connection a netem.Auditor, once, through its sender
// half: a drained network checks the scoreboard of every connection it
// still has registered, as Rebind checks each one it recycles.
func (h *senderHalf) Audit() { h.c.auditScoreboard() }

type receiverHalf struct{ c *Conn }

func (h *receiverHalf) Deliver(p *netem.Packet) { h.c.receiverDeliver(p) }

// NewConn builds a connection and registers both halves with their hosts.
// Call Start to begin the handshake.
func NewConn(eng *sim.Engine, opts Options) *Conn {
	c := &Conn{}
	InitConn(c, eng, opts)
	return c
}

// InitConn is NewConn in place: it builds the connection in c, zeroed
// storage its caller owns (a multipath flow's subflow record), which must
// not move or be copied afterwards.
func InitConn(c *Conn, eng *sim.Engine, opts Options) {
	c.eng = eng
	c.shortSeq = -1
	c.sender.c = c
	c.receiver.c = c
	c.bind(opts)
}

// bind validates opts, installs the per-transfer configuration, registers
// both demux halves and resolves the forwarding paths. It is the shared
// tail of NewConn and Rebind.
func (c *Conn) bind(opts Options) {
	if err := opts.Config.Validate(); err != nil {
		panic(err)
	}
	if opts.Controller == nil {
		panic("transport: nil controller")
	}
	if opts.Supply == nil {
		panic("transport: nil supply")
	}
	if opts.Src == nil || opts.Dst == nil {
		panic("transport: nil host")
	}
	if opts.Src == opts.Dst {
		panic("transport: loopback connections are not modelled")
	}
	c.id = opts.ID
	c.maxRetries = opts.Config.MaxRetries
	c.delAckCount = opts.Config.DelAckCount
	c.echoMode = opts.Config.EchoMode
	c.enableSACK = opts.Config.EnableSACK
	c.ctrl = opts.Controller
	c.src = opts.Src
	c.dst = opts.Dst
	c.srcAddr = opts.SrcAddr
	c.dstAddr = opts.DstAddr
	c.supply = opts.Supply
	c.member = opts.Member
	c.owner = opts.Owner
	c.rtt = newRTTEstimator(opts.Config)
	if c.srcAddr == 0 && len(opts.Src.Addrs()) > 0 {
		c.srcAddr = opts.Src.PrimaryAddr()
	}
	if c.dstAddr == 0 && len(opts.Dst.Addrs()) > 0 {
		c.dstAddr = opts.Dst.PrimaryAddr()
	}
	c.fwdPath = mustPath(c.src, c.srcAddr, c.dst, c.dstAddr)
	c.revPath = mustPath(c.dst, c.dstAddr, c.src, c.srcAddr)
	c.srcSlot = opts.Src.Register(c.id, &c.sender)
	c.dstSlot = opts.Dst.Register(c.id, &c.receiver)
}

// mustPath returns the path from host from to address toAddr of host to.
// Every packet rides one, so a pair without one panics at setup.
func mustPath(from *netem.Host, fromAddr netem.Addr, to *netem.Host, toAddr netem.Addr) *netem.Path {
	pa := from.PathTo(toAddr)
	if pa == nil || pa.Hop(pa.Len()-1).Dst() != netem.Receiver(to) {
		panic(fmt.Sprintf("transport: no path from host %s (addr %d) to host %s (addr %d)", from.Name, fromAddr, to.Name, toAddr))
	}
	return pa
}

// Detach unregisters both demux halves, severing the connection from its
// hosts. Safe only once InFlight() is zero — from then on the network holds
// no packet that could demux to this connection. The flow arena detaches a
// quarantined connection right before recycling it; until then the Done
// connection stays registered so stale duplicates still earn their re-ACKs.
func (c *Conn) Detach() {
	c.src.Unregister(c.id, c.srcSlot)
	c.dst.Unregister(c.id, c.dstSlot)
}

// Rebind recycles a finished connection into a brand-new transfer described
// by opts, in place: no allocation, same Conn object, fresh identity. The
// caller guarantees the old transfer is fully drained — the connection must
// be Done or Failed with no packets in flight — and resets the controller
// (cc.Controller.Reset) once Rebind returns, or passes a new one.
func (c *Conn) Rebind(opts Options) {
	if c.state != StateDone && c.state != StateFailed {
		panic(fmt.Sprintf("transport: Rebind in state %v", c.state))
	}
	if c.inflight != 0 {
		panic(fmt.Sprintf("transport: Rebind with %d packets in flight", c.inflight))
	}
	c.auditScoreboard()
	c.stopRTO()
	c.stopDelAck()
	c.Detach()

	// Sender half back to zero.
	c.sndUna, c.sndNxt, c.suppliedEnd = 0, 0, 0
	c.exhausted = false
	c.shortSeq, c.shortLen = -1, 0
	c.dupAcks = 0
	c.inRecovery = false
	c.recoverSeq = 0
	c.pendingCWR = false
	c.retries = 0
	c.segs = segCounts{}
	c.ackedBytes = 0
	c.sacked.Clear()
	c.holeCursor = 0

	// Receiver half back to zero.
	c.rcvNxt = 0
	c.ooo.Clear()
	c.rcvdBytes = 0
	c.pendingCE = 0
	c.eceLatched = false
	c.delayCount = 0
	c.lastTriggerTS = 0

	c.state = StateIdle
	c.startTime, c.establishAt, c.doneAt = 0, 0, 0
	c.bind(opts)
}

// auditScoreboard panics unless the connection's sequence state is
// consistent: snd_una <= snd_nxt, every SACKed segment in
// [snd_una, snd_nxt), every out-of-order segment above rcv_nxt, and a
// window of at least one segment.
func (c *Conn) auditScoreboard() {
	sacked, ooo := c.sacked.ranges, c.ooo.ranges
	if c.sndUna > c.sndNxt ||
		len(sacked) > 0 && (sacked[0].start < c.sndUna || c.sacked.Max() > c.sndNxt) ||
		len(ooo) > 0 && ooo[0].start <= c.rcvNxt ||
		c.ctrl.Window() < 1 {
		panic(fmt.Sprintf("transport: connection %d has an inconsistent scoreboard: snd_una=%d snd_nxt=%d sacked=%v rcv_nxt=%d ooo=%v cwnd=%d",
			c.id, c.sndUna, c.sndNxt, sacked, c.rcvNxt, ooo, c.ctrl.Window()))
	}
}

// InFlight returns the number of this connection's packets currently inside
// the network (sent but neither delivered nor dropped yet).
func (c *Conn) InFlight() int { return int(c.inflight) }

// sendFwd stamps the forward demux slot, resolved path and in-flight owner
// and transmits toward the receiver.
func (c *Conn) sendFwd(p *netem.Packet) {
	p.Slot = c.dstSlot
	p.SetPath(c.fwdPath)
	p.Owner = &c.inflight
	c.inflight++
	c.src.Send(p)
}

// sendRev stamps the reverse demux slot, resolved path and in-flight owner
// and transmits toward the sender (ACKs and the SYN-ACK).
func (c *Conn) sendRev(p *netem.Packet) {
	p.Slot = c.srcSlot
	p.SetPath(c.revPath)
	p.Owner = &c.inflight
	c.inflight++
	c.dst.Send(p)
}

// ID returns the connection identifier.
func (c *Conn) ID() netem.ConnID { return c.id }

// State returns the lifecycle state.
func (c *Conn) State() State { return c.state }

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() Stats {
	return Stats{
		SentSegments:    int64(c.segs.sent),
		RetransSegments: int64(c.segs.retrans),
		Timeouts:        int64(c.segs.timeouts),
		FastRetransmits: int64(c.segs.fastRetrans),
		AckedBytes:      c.ackedBytes,
		RcvdBytes:       c.rcvdBytes,
		DupAcksSeen:     int64(c.segs.dupAcksSeen),
	}
}

// Controller exposes the congestion controller (for experiment probes).
func (c *Conn) Controller() cc.Controller { return c.ctrl }

// SRTT returns the sender's smoothed RTT estimate.
func (c *Conn) SRTT() sim.Duration { return c.rtt.SRTT() }

// AckedBytes returns the application bytes acknowledged so far.
func (c *Conn) AckedBytes() int64 { return c.ackedBytes }

// StartTime returns when Start was called.
func (c *Conn) StartTime() sim.Time { return c.startTime }

// CompletionTime returns when the transfer finished (valid in StateDone).
func (c *Conn) CompletionTime() sim.Time { return c.doneAt }

// Hosts returns the connection's sending and receiving hosts.
func (c *Conn) Hosts() (src, dst *netem.Host) { return c.src, c.dst }

// SrcAddr returns the sender-side address.
func (c *Conn) SrcAddr() netem.Addr { return c.srcAddr }

// DstAddr returns the receiver-side address (selects the path).
func (c *Conn) DstAddr() netem.Addr { return c.dstAddr }

// StopSending cuts the connection off from its supply: no new segments
// are pulled, and the transfer completes once everything outstanding is
// acknowledged. Used by the experiments that stop long-lived flows on a
// schedule.
func (c *Conn) StopSending() {
	c.exhausted = true
	c.maybeComplete()
}

// Start begins the handshake now.
func (c *Conn) Start() {
	if c.state != StateIdle {
		panic(fmt.Sprintf("transport: Start in state %v", c.state))
	}
	c.state = StateSynSent
	c.startTime = c.eng.Now()
	c.sendSYN()
}

func (c *Conn) sendSYN() {
	p := c.src.PacketPool().Control(c.id, c.srcAddr, c.dstAddr, true, c.ctrl.ECNCapable())
	p.SendTime = int64(c.eng.Now())
	c.sendFwd(p)
	c.armRTO(c.rtt.RTO())
}

// --- Sender half ---

func (c *Conn) senderDeliver(p *netem.Packet) {
	if c.state == StateDone || c.state == StateFailed {
		return
	}
	if p.SYN && p.IsAck {
		if c.state == StateSynSent {
			c.state = StateEstablished
			c.establishAt = c.eng.Now()
			c.retries = 0
			if p.EchoTime >= 0 {
				c.sampleRTT(sim.Duration(int64(c.eng.Now()) - p.EchoTime))
			}
			c.stopRTO()
			c.publishMember()
			c.trySend()
			c.maybeComplete()
		}
		return
	}
	if !p.IsAck {
		return
	}
	now := c.eng.Now()
	c.ingestSACK(p)
	switch {
	case p.Ack > c.sndUna:
		newly := p.Ack - c.sndUna
		var newlyBytes int64
		for s := c.sndUna; s < p.Ack; s++ {
			newlyBytes += int64(c.payloadOf(s))
		}
		c.sndUna = p.Ack
		if c.sndNxt < c.sndUna {
			// After an RTO rewind the receiver may cumulatively ACK past
			// snd_nxt (it already held the rewound segments); resume
			// sending from the ACK point.
			c.sndNxt = c.sndUna
		}
		c.sacked.TrimBelow(c.sndUna)
		c.dupAcks = 0
		c.retries = 0
		if p.EchoTime >= 0 {
			c.sampleRTT(sim.Duration(int64(now) - p.EchoTime))
		}
		retransmitted := false
		if c.inRecovery {
			if c.sndUna > c.recoverSeq {
				c.inRecovery = false
			} else if c.retransmitHole() {
				retransmitted = true
			} else if !c.enableSACK || c.sndUna >= c.holeCursor {
				// NewReno partial ack: retransmit the next hole — unless
				// the SACK cursor already retransmitted it and it is
				// still in flight (the RTO remains the backstop).
				c.resend(c.sndUna)
				c.holeCursor = c.sndUna + 1
				retransmitted = true
			}
		}
		if c.echoMode == cc.EchoStandard && p.ECNEcho > 0 {
			c.pendingCWR = true
		}
		c.ctrl.OnAck(cc.Ack{
			Now:        now,
			NewlyAcked: newly,
			SndUna:     c.sndUna,
			SndNxt:     c.sndNxt,
			ECNEcho:    int(p.ECNEcho),
			SRTT:       c.rtt.SRTT(),
		})
		c.ackedBytes += newlyBytes
		c.publishMember()
		if c.owner != nil && newlyBytes > 0 {
			c.owner.Progress(now, int(newlyBytes))
		}
		// Packet conservation during recovery: an ACK that already
		// released a retransmission does not also release new data.
		if !retransmitted {
			c.trySend()
		}
		if c.maybeComplete() {
			return
		}
		if c.sndNxt > c.sndUna {
			c.armRTO(c.rtt.RTO())
		} else {
			c.stopRTO()
		}

	case p.Ack == c.sndUna && c.sndNxt > c.sndUna:
		c.bump(&c.segs.dupAcksSeen, "duplicate ACK count")
		c.dupAcks++
		if c.echoMode == cc.EchoStandard && p.ECNEcho > 0 {
			c.pendingCWR = true
		}
		// Congestion feedback can ride duplicate ACKs; deliver it with
		// NewlyAcked=0 so marks are never lost during reordering.
		c.ctrl.OnAck(cc.Ack{
			Now:     now,
			SndUna:  c.sndUna,
			SndNxt:  c.sndNxt,
			ECNEcho: int(p.ECNEcho),
			SRTT:    c.rtt.SRTT(),
		})
		retransmitted := false
		if c.dupAcks == 3 && !c.inRecovery {
			c.inRecovery = true
			c.recoverSeq = c.sndNxt - 1
			c.holeCursor = c.sndUna
			c.bump(&c.segs.fastRetrans, "fast retransmit count")
			c.ctrl.OnFastRetransmit()
			if !c.retransmitHole() {
				c.resend(c.sndUna)
			}
			retransmitted = true
			c.armRTO(c.rtt.RTO())
		} else if c.inRecovery {
			// SACK recovery: each further duplicate ACK may release one
			// more hole retransmission (packet conservation: the ACK's
			// budget goes to the retransmit, not to new data).
			retransmitted = c.retransmitHole()
		}
		c.publishMember()
		if !retransmitted {
			c.trySend()
		}
	}
}

// ingestSACK folds an ACK's SACK blocks into the scoreboard.
func (c *Conn) ingestSACK(p *netem.Packet) {
	if !c.enableSACK || p.SACKCount <= 0 {
		return
	}
	for i := range int(p.SACKCount) {
		c.sacked.Add(p.SACKBlock(i))
	}
	c.sacked.TrimBelow(c.sndUna)
}

// pipe estimates the segments in flight: outstanding minus those the
// receiver reported holding. Without SACK it is simply the outstanding
// count.
func (c *Conn) pipe() int64 {
	return (c.sndNxt - c.sndUna) - c.sacked.Count()
}

// retransmitHole resends the earliest unSACKed segment at or above the
// recovery cursor, advancing the cursor. Returns false when the
// scoreboard offers no actionable hole (non-SACK connections always
// return false and fall back to NewReno behaviour).
func (c *Conn) retransmitHole() bool {
	if !c.enableSACK || c.sacked.Empty() {
		return false
	}
	from := c.holeCursor
	if from < c.sndUna {
		from = c.sndUna
	}
	hole, ok := c.sacked.FirstHoleAbove(from)
	if !ok || hole >= c.sndNxt {
		return false
	}
	c.resend(hole)
	c.holeCursor = hole + 1
	return true
}

func (c *Conn) sampleRTT(rtt sim.Duration) {
	if rtt <= 0 {
		return
	}
	c.rtt.addSample(rtt)
	if c.owner != nil {
		c.owner.RTTSample(rtt)
	}
}

// payloadOf returns the application bytes carried by segment seq.
func (c *Conn) payloadOf(seq int64) int {
	if seq == c.shortSeq {
		return int(c.shortLen)
	}
	return netem.MSS
}

// maxBurst caps the segments released by one ACK event. Without it, a
// large SACK block collapsing the pipe estimate lets the sender blast a
// whole window back-to-back into a shallow NIC queue — the classic SACK
// burst problem real stacks bound the same way.
const maxBurst = 8

func (c *Conn) trySend() {
	if c.state != StateEstablished {
		return
	}
	cwnd := int64(c.ctrl.Window())
	burst := maxBurst
	for c.pipe() < cwnd && burst > 0 {
		payload, ok := c.nextPayload()
		if !ok {
			break
		}
		c.sendSegment(c.sndNxt, payload, false)
		c.sndNxt++
		burst--
	}
	if c.sndNxt > c.sndUna && !c.rtoArmed {
		c.armRTO(c.rtt.RTO())
	}
}

// nextPayload returns the payload of segment sndNxt, pulling from the
// supply if this sequence number has never been sent before.
func (c *Conn) nextPayload() (int, bool) {
	if c.sndNxt < c.suppliedEnd {
		return c.payloadOf(c.sndNxt), true
	}
	if c.exhausted {
		return 0, false
	}
	payload, ok := c.supply.Next()
	if !ok {
		c.exhausted = true
		return 0, false
	}
	if payload <= 0 || payload > netem.MSS {
		panic(fmt.Sprintf("transport: supply returned payload %d", payload))
	}
	if payload != netem.MSS {
		if c.shortSeq >= 0 {
			panic(fmt.Sprintf("transport: supply returned a second short segment (%d bytes after %d)", payload, c.shortLen))
		}
		c.shortSeq, c.shortLen = c.suppliedEnd, uint16(payload)
	}
	c.suppliedEnd++
	return payload, true
}

func (c *Conn) sendSegment(seq int64, payload int, retrans bool) {
	p := c.src.PacketPool().Data(c.id, c.srcAddr, c.dstAddr, seq, payload, c.ctrl.ECNCapable())
	p.SendTime = int64(c.eng.Now())
	if c.pendingCWR {
		p.CWR = true
		c.pendingCWR = false
	}
	if retrans {
		c.bump(&c.segs.retrans, "retransmitted segment count")
	} else {
		c.bump(&c.segs.sent, "sent segment count")
	}
	c.sendFwd(p)
}

func (c *Conn) resend(seq int64) {
	c.sendSegment(seq, c.payloadOf(seq), true)
}

// Conn event ops for the typed scheduling path: the retransmission and
// delayed-ACK timers, the two timer churns of the per-packet hot path.
const (
	opRTO sim.Op = iota
	opDelAck
)

// OnEvent implements sim.Target, expiring the connection's timers. Not for
// direct use. Scheduling the connection itself with a pre-bound op — in
// place of the former *sim.Timer pair and its captured method values —
// keeps per-ACK timer re-arms allocation-free.
func (c *Conn) OnEvent(op sim.Op, _ any) {
	if op == opRTO {
		c.rtoArmed = false
		c.rtoH = sim.Handle{}
		c.onRTO()
	} else {
		c.delAckArmed = false
		c.delAckH = sim.Handle{}
		c.onDelAckTimeout()
	}
}

// armRTO (re)arms the retransmission timer, lazily cancelling any pending
// expiration.
func (c *Conn) armRTO(d sim.Duration) {
	if c.rtoArmed {
		c.eng.Cancel(c.rtoH)
	}
	c.rtoH = c.eng.ScheduleTarget(d, c, opRTO, nil)
	c.rtoArmed = true
}

func (c *Conn) stopRTO() {
	if c.rtoArmed {
		c.eng.Cancel(c.rtoH)
		c.rtoArmed = false
		c.rtoH = sim.Handle{}
	}
}

// armDelAck (re)arms the delayed-ACK timer.
func (c *Conn) armDelAck(d sim.Duration) {
	if c.delAckArmed {
		c.eng.Cancel(c.delAckH)
	}
	c.delAckH = c.eng.ScheduleTarget(d, c, opDelAck, nil)
	c.delAckArmed = true
}

func (c *Conn) stopDelAck() {
	if c.delAckArmed {
		c.eng.Cancel(c.delAckH)
		c.delAckArmed = false
		c.delAckH = sim.Handle{}
	}
}

func (c *Conn) onRTO() {
	switch c.state {
	case StateSynSent:
		c.bump(&c.retries, "retry count")
		if c.maxRetries > 0 && c.retries > c.maxRetries {
			c.fail()
			return
		}
		c.rtt.backoff()
		c.sendSYN()
	case StateEstablished:
		if c.sndNxt == c.sndUna {
			return // nothing outstanding; stale timer
		}
		c.bump(&c.retries, "retry count")
		if c.maxRetries > 0 && c.retries > c.maxRetries {
			c.fail()
			return
		}
		c.bump(&c.segs.timeouts, "timeout count")
		c.ctrl.OnRetransmitTimeout()
		c.publishMember()
		c.inRecovery = false
		c.dupAcks = 0
		// Conservatively forget SACK state: the wholesale rewind below
		// resends from snd_una regardless.
		c.sacked.Clear()
		c.holeCursor = 0
		// Go-back-N restart: rewind snd_nxt; already-supplied segments are
		// resent from local state without consuming the supply again.
		c.sndNxt = c.sndUna
		c.rtt.backoff()
		c.resend(c.sndUna)
		c.sndNxt = c.sndUna + 1
		c.armRTO(c.rtt.RTO())
	}
}

func (c *Conn) maybeComplete() bool {
	if c.state != StateEstablished {
		return false
	}
	// The transfer is complete when the supply is exhausted and everything
	// supplied has been acknowledged. Probe the supply when idle so
	// zero-byte and just-finished transfers terminate.
	if c.sndUna == c.sndNxt && c.sndNxt == c.suppliedEnd {
		if !c.exhausted {
			return false // supply not yet drained; trySend will pull
		}
		c.state = StateDone
		c.doneAt = c.eng.Now()
		c.stopRTO()
		c.stopDelAck()
		if c.member != nil {
			c.member.Active = false
			c.member.Cwnd = 0
		}
		if c.owner != nil {
			c.owner.Complete(c)
		}
		return true
	}
	return false
}

func (c *Conn) fail() {
	c.state = StateFailed
	c.stopRTO()
	c.stopDelAck()
	if c.member != nil {
		c.member.Active = false
		c.member.Cwnd = 0
	}
}

func (c *Conn) publishMember() {
	if c.member == nil {
		return
	}
	c.member.Cwnd = c.ctrl.Window()
	c.member.SRTT = c.rtt.SRTT()
	c.member.Active = c.state == StateEstablished
}

// --- Receiver half ---

func (c *Conn) receiverDeliver(p *netem.Packet) {
	if p.SYN && !p.IsAck {
		ack := c.dst.PacketPool().Ack(c.id, c.dstAddr, c.srcAddr, 0)
		ack.SYN = true
		ack.EchoTime = p.SendTime
		c.sendRev(ack)
		return
	}
	if p.IsAck || p.SYN {
		return
	}
	// Congestion-feedback bookkeeping happens on every arrival, in-order
	// or not: a mark is a statement about the path, not about ordering.
	if p.CE {
		switch c.echoMode {
		case cc.EchoCounter, cc.EchoDCTCP:
			if c.pendingCE == math.MaxInt8 {
				c.overflow("pending CE count")
			}
			c.pendingCE++
		case cc.EchoStandard:
			c.eceLatched = true
		}
	}
	if p.CWR && c.echoMode == cc.EchoStandard && !p.CE {
		c.eceLatched = false
	}
	c.lastTriggerTS = p.SendTime

	switch {
	case p.Seq == c.rcvNxt:
		c.rcvdBytes += int64(p.PayloadBytes)
		c.rcvNxt++
		// Drain any out-of-order run now contiguous with rcv_nxt.
		jumped := false
		if hole, ok := c.ooo.FirstHoleAbove(c.rcvNxt); ok {
			jumped = hole > c.rcvNxt
			c.rcvNxt = hole
		} else if m := c.ooo.Max(); m > c.rcvNxt {
			c.rcvNxt = m
			jumped = true
		}
		c.ooo.TrimBelow(c.rcvNxt)
		c.delayCount++
		// An ACK is not withheld while it would delay congestion feedback
		// the sender is waiting for.
		if jumped || c.delayCount >= c.delAckCount || c.pendingCE > 0 {
			c.sendAck()
		} else if !c.delAckArmed {
			c.armDelAck(delAckTimeout)
		}
	case p.Seq > c.rcvNxt:
		if !c.ooo.Contains(p.Seq) {
			c.ooo.Add(p.Seq, p.Seq+1)
			c.rcvdBytes += int64(p.PayloadBytes)
		}
		c.sendAck() // immediate duplicate ACK
	default:
		c.sendAck() // old duplicate; re-ack
	}
}

func (c *Conn) sendAck() {
	ack := c.dst.PacketPool().Ack(c.id, c.dstAddr, c.srcAddr, c.rcvNxt)
	if c.eceLatched {
		ack.ECNEcho = 1
	} else if c.pendingCE > 0 {
		// As many pending marks as the mode's encoding carries per ACK; the
		// rest ride on the following ACKs.
		// pendingCE <= math.MaxInt8, so the echo fits the packet's int8.
		ack.ECNEcho = int8(min(int(c.pendingCE), c.echoMode.EchoCap()))
		c.pendingCE -= ack.ECNEcho
	}
	if c.enableSACK && !c.ooo.Empty() {
		var blocks [3]segRange
		n := c.ooo.Blocks(blocks[:], 3)
		for i := range n {
			ack.SetSACK(i, blocks[i].start, blocks[i].end)
		}
		ack.SACKCount = int8(n)
	}
	ack.EchoTime = c.lastTriggerTS
	c.delayCount = 0
	c.stopDelAck()
	c.sendRev(ack)
}

func (c *Conn) onDelAckTimeout() {
	if c.delayCount > 0 {
		c.sendAck()
	}
}
