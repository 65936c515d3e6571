package netem

import (
	"fmt"
	"os"

	"xmp/internal/arena"
)

// PacketPool recycles Packet structs within one topology. Like the event
// engine it serves, a pool is strictly single-threaded: each experiment's
// network owns exactly one pool, and pooled packets never cross engines.
// Parallel experiment runners therefore need no locking — every run
// allocates from its own pool.
//
// Only packets obtained from a pool are ever recycled; packets built with
// the package-level constructors (tests, hand-rolled harnesses) pass
// through Release untouched, so code that retains such packets after
// delivery keeps working.
type PacketPool struct {
	free []*Packet
	// slab backs first-time packet allocation in chunks, so warming the
	// pool to its steady-state depth costs ~depth/chunk heap allocations.
	slab arena.Slab[Packet]

	// Poison overwrites every recycled packet with sentinel garbage so a
	// use-after-release surfaces as a loud failure (negative wire size, no
	// path) instead of silent data corruption. Enabled by
	// default when XMPSIM_POISON is set in the environment; tests may set
	// it directly before traffic starts.
	Poison bool

	allocs   int64 // fresh heap allocations
	recycles int64 // Gets served from the free-list
}

// poisonFromEnv is the process-wide default for PacketPool.Poison, read
// once at startup so per-run pools need no environment access on the hot
// path.
var poisonFromEnv = os.Getenv("XMPSIM_POISON") != ""

// NewPacketPool returns an empty pool. Poison defaults to the XMPSIM_POISON
// environment switch.
func NewPacketPool() *PacketPool {
	return &PacketPool{Poison: poisonFromEnv}
}

// Allocs returns the number of packets the pool heap-allocated.
func (pl *PacketPool) Allocs() int64 { return pl.allocs }

// Recycles returns the number of Gets served from the free-list.
func (pl *PacketPool) Recycles() int64 { return pl.recycles }

// FreeLen returns the current free-list depth.
func (pl *PacketPool) FreeLen() int { return len(pl.free) }

// get returns a zeroed packet owned by the pool. A nil pool degrades to a
// plain heap allocation with no recycling, which keeps every call site
// uniform whether or not a pool is wired in.
func (pl *PacketPool) get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pl.recycles++
		*p = Packet{pool: pl}
		return p
	}
	pl.allocs++
	p := pl.slab.Get()
	p.pool = pl
	return p
}

// Data builds a data segment of payload bytes, 0..MSS, from src to dst,
// recycling a released packet when one is available.
func (pl *PacketPool) Data(conn ConnID, src, dst Addr, seq int64, payload int, ect bool) *Packet {
	if uint(payload) > MSS {
		panic(fmt.Sprintf("netem: data segment of %d bytes, outside 0..MSS", payload))
	}
	p := pl.get()
	p.Src, p.Dst, p.Conn = src, dst, conn
	p.WireBytes = int32(HeaderBytes + payload)
	p.ECT = ect
	p.Seq = seq
	p.PayloadBytes = int32(payload)
	p.SendTime, p.EchoTime = -1, -1
	return p
}

// Ack builds a pure acknowledgement from src to dst.
func (pl *PacketPool) Ack(conn ConnID, src, dst Addr, ack int64) *Packet {
	p := pl.get()
	p.Src, p.Dst, p.Conn = src, dst, conn
	p.WireBytes = HeaderBytes
	p.IsAck = true
	p.Ack = ack
	p.SendTime, p.EchoTime = -1, -1
	return p
}

// Control builds a SYN or FIN segment (syn selects which).
func (pl *PacketPool) Control(conn ConnID, src, dst Addr, syn bool, ect bool) *Packet {
	p := pl.get()
	p.Src, p.Dst, p.Conn = src, dst, conn
	p.WireBytes = HeaderBytes
	p.ECT = ect
	p.SendTime, p.EchoTime = -1, -1
	if syn {
		p.SYN = true
	} else {
		p.FIN = true
	}
	return p
}

// put returns p to the free-list. Double-release is a bug in the network
// elements (two sinks claimed the same packet) and panics loudly.
func (pl *PacketPool) put(p *Packet) {
	if p.inPool {
		panic(fmt.Sprintf("netem: double release of packet %s", p))
	}
	p.dropOwner() // drops bypass host delivery; settle the in-flight count here
	p.inPool = true
	if pl.Poison {
		poisonPacket(p)
	}
	pl.free = append(pl.free, p)
}

// poisonSeq is the sentinel written into recycled packets' sequence fields.
const poisonSeq = int64(-0x6b6b6b6b6b6b6b6b)

// poisonPacket fills a released packet with values chosen to make any late
// reader fail fast: the negative wire size makes a link's serialization
// delay negative (Schedule panics), the cleared path makes a switch it
// reaches panic, and the sequence sentinel is far outside any valid window.
func poisonPacket(p *Packet) {
	p.Src, p.Dst = AddrNone, AddrNone
	p.Conn = -1
	p.WireBytes = -1
	p.ECT, p.CE, p.CWR = false, false, false
	p.SYN, p.FIN, p.IsAck = false, false, false
	p.Seq, p.Ack = poisonSeq, poisonSeq
	p.PayloadBytes = -1
	p.ECNEcho = -1
	p.SendTime, p.EchoTime = poisonSeq, poisonSeq
	p.SACKCount = -1
	p.Slot = -1 // negative slot fails the demux fast path and the map both
	p.path = nil
	p.hop = -1
}

// Release returns the packet to its owning pool, if any. Network sinks
// (host delivery, switch and queue drops, link shutdown) call this at the
// exact point a packet leaves the simulation; pool-less packets are
// untouched. After Release the caller must not touch the packet again.
func (p *Packet) Release() {
	if p.pool == nil {
		return
	}
	p.pool.put(p)
}
