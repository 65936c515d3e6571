// Package netem models the network elements of the simulator: packets,
// queue disciplines (drop-tail, instantaneous-threshold ECN marking, RED),
// store-and-forward links, output-queued switches and host NICs.
//
// Together with the event engine in internal/sim it plays the role NS-3.14
// played in the paper's evaluation.
package netem

import "fmt"

// Addr identifies a host interface address. A physical host may own several
// addresses ("aliases"); in the Fat-Tree topology each alias routes through
// a different core switch, which is how MPTCP subflows are spread across
// distinct paths (Section 5.2 of the paper).
type Addr int32

// AddrNone is the zero, invalid address.
const AddrNone Addr = -1

// ConnID identifies one TCP connection (an MPTCP subflow is one
// connection). Both endpoints of a connection share the ConnID; hosts use
// it to demultiplex arriving packets.
type ConnID int32

// Standard wire sizes. The paper computes BDPs with 1500-byte packets on
// 1 Gbps links (12 us serialization per packet), so a full-sized data
// packet is HeaderBytes+MSS = 1500 bytes.
const (
	// MSS is the maximum segment payload in bytes.
	MSS = 1460
	// HeaderBytes models the combined IP+TCP header overhead.
	HeaderBytes = 40
	// MaxPacketBytes is the wire size of a full-sized data packet.
	MaxPacketBytes = MSS + HeaderBytes
)

// initialTTL bounds the nodes a path resolution visits; a walk that has not
// reached a host by then is a routing loop and resolves to no path.
const initialTTL = 64

// Packet is one simulated packet. Sequence and acknowledgement numbers are
// expressed in MSS-sized segments rather than bytes: the paper's algorithms
// all operate on packet-granularity congestion windows, and segment
// numbering keeps receiver bookkeeping exact. PayloadBytes carries the true
// byte count of this segment (the final segment of a flow may be short), so
// goodput accounting remains byte-accurate.
type Packet struct {
	// Everything a hop reads — forwarding, queueing, marking, release, demux
	// — sits in the first 64 bytes, one cache line (see TestPacketLayout).
	// path/hop carry the resolved forwarding path: path is the link array
	// and hop indexes the link the packet currently occupies. A packet with
	// a nil path goes no further than its first link's receiver, so it can
	// reach a host or a test sink but not cross a switch.
	path *Path
	// Owner points at the sending connection's in-flight reference count,
	// stamped by the transport at send time. The network decrements it
	// (and clears the pointer) at the exact point the packet leaves the
	// simulation — host delivery or pool release on a drop — so a counter
	// at zero proves no packet of that connection is anywhere in the
	// network. The flow arena relies on this to recycle connection state
	// only when nothing in flight can still reach it.
	Owner *int32
	// pool is the owning PacketPool (nil for plain heap packets); inPool
	// flags membership in the free-list so a double Release fails fast.
	pool *PacketPool
	// WireBytes is the total on-the-wire size used for serialization delay
	// and utilization accounting.
	WireBytes int
	hop       int32
	// Slot is the destination host's demux slot for this packet's
	// connection, stamped by the transport at send time; 0 means unstamped,
	// which no host delivers.
	Slot     int32
	Src, Dst Addr
	Conn     ConnID

	// ECN state.
	ECT bool // sender is ECN-capable
	CE  bool // congestion experienced (set by switches)
	// CWR is the congestion-window-reduced flag on data packets; only
	// meaningful with standard RFC 3168 echo semantics (it clears the
	// receiver's ECE latch). The BOS two-bit echo repurposes the ECE+CWR
	// header bits of ACKs, modelled by the ECNEcho field below.
	CWR bool

	// TCP-level fields.
	SYN, FIN, IsAck bool
	inPool          bool
	Seq             int64 // segment index of this data packet (data packets)
	PayloadBytes    int   // bytes of application data in this segment
	Ack             int64 // cumulative ack: next expected segment index
	// ECNEcho is the number of CE marks the receiver reports in this ACK,
	// 0..3, encoded on the wire in the ECE+CWR bits (the BOS two-bit echo).
	// For standard-ECN flows it is 0 or 1 (1 = ECE set).
	ECNEcho int
	// EchoTime carries the sender timestamp being echoed for RTT
	// measurement (TCP timestamp option); <0 when absent.
	SendTime int64
	EchoTime int64

	// SACK blocks: up to 3 half-open segment ranges the receiver holds
	// above the cumulative ACK (RFC 2018, in segment units). Only
	// populated when the connection negotiated SACK.
	SACK      [3][2]int64
	SACKCount int

	_ [24]byte // to a multiple of 64: slab elements stay line-aligned
}

// dropOwner decrements the in-flight counter stamped on the packet, once.
func (p *Packet) dropOwner() {
	if p.Owner != nil {
		*p.Owner--
		p.Owner = nil
	}
}

// SetPath stamps a resolved forwarding path onto the packet, positioning it
// at the first hop (the source NIC). A nil path clears the stamp.
func (p *Packet) SetPath(pa *Path) {
	p.path = pa
	p.hop = 0
}

// The package-level constructors build plain heap packets for tests and
// hand-rolled harnesses. Each is its PacketPool counterpart on a nil pool, so
// a packet kind is defined once; Release leaves such packets alone.

// NewDataPacket builds a data segment of payload bytes from src to dst.
func NewDataPacket(conn ConnID, src, dst Addr, seq int64, payload int, ect bool) *Packet {
	return (*PacketPool)(nil).Data(conn, src, dst, seq, payload, ect)
}

// NewAckPacket builds a pure acknowledgement from src to dst.
func NewAckPacket(conn ConnID, src, dst Addr, ack int64) *Packet {
	return (*PacketPool)(nil).Ack(conn, src, dst, ack)
}

// NewControlPacket builds a SYN or FIN segment (syn selects which).
func NewControlPacket(conn ConnID, src, dst Addr, syn bool, ect bool) *Packet {
	return (*PacketPool)(nil).Control(conn, src, dst, syn, ect)
}

// String renders a compact human-readable description, used by test
// failure messages.
func (p *Packet) String() string {
	kind := "data"
	switch {
	case p.SYN:
		kind = "syn"
	case p.FIN:
		kind = "fin"
	case p.IsAck:
		kind = "ack"
	}
	return fmt.Sprintf("%s conn=%d %d->%d seq=%d ack=%d ce=%v echo=%d",
		kind, p.Conn, p.Src, p.Dst, p.Seq, p.Ack, p.CE, p.ECNEcho)
}
