package netem

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"xmp/internal/sim"
)

// TestPacketLayout pins the struct layout the per-hop path is tuned for:
// every field a link, queue, switch, pool release or host demux touches
// sits in the first cache line, and the size is two whole lines, so the
// elements of a slab chunk stay line-aligned and the packets a burst holds
// in flight stay small.
func TestPacketLayout(t *testing.T) {
	var p Packet
	hot := map[string]uintptr{
		"path":      unsafe.Offsetof(p.path) + unsafe.Sizeof(p.path),
		"Owner":     unsafe.Offsetof(p.Owner) + unsafe.Sizeof(p.Owner),
		"pool":      unsafe.Offsetof(p.pool) + unsafe.Sizeof(p.pool),
		"WireBytes": unsafe.Offsetof(p.WireBytes) + unsafe.Sizeof(p.WireBytes),
		"hop":       unsafe.Offsetof(p.hop) + unsafe.Sizeof(p.hop),
		"Slot":      unsafe.Offsetof(p.Slot) + unsafe.Sizeof(p.Slot),
		"Src":       unsafe.Offsetof(p.Src) + unsafe.Sizeof(p.Src),
		"Dst":       unsafe.Offsetof(p.Dst) + unsafe.Sizeof(p.Dst),
		"Conn":      unsafe.Offsetof(p.Conn) + unsafe.Sizeof(p.Conn),
		"ECT":       unsafe.Offsetof(p.ECT) + unsafe.Sizeof(p.ECT),
		"CE":        unsafe.Offsetof(p.CE) + unsafe.Sizeof(p.CE),
		"CWR":       unsafe.Offsetof(p.CWR) + unsafe.Sizeof(p.CWR),
		"SYN":       unsafe.Offsetof(p.SYN) + unsafe.Sizeof(p.SYN),
		"FIN":       unsafe.Offsetof(p.FIN) + unsafe.Sizeof(p.FIN),
		"IsAck":     unsafe.Offsetof(p.IsAck) + unsafe.Sizeof(p.IsAck),
		"inPool":    unsafe.Offsetof(p.inPool) + unsafe.Sizeof(p.inPool),
	}
	for name, end := range hot {
		if end > 64 {
			t.Errorf("Packet.%s ends at byte %d, outside the first cache line", name, end)
		}
	}
	// The pad is sized for 8-byte pointers; on a 32-bit CPU the struct
	// shrinks and only the hot-field bound above still applies.
	if size := unsafe.Sizeof(p); unsafe.Sizeof(uintptr(0)) == 8 && size != 128 {
		t.Errorf("Packet is %d bytes, want 128: two cache lines", size)
	}
}

// TestSACKOffsetAtLimit: a SACK block is stored as int32 offsets above the
// ACK. The farthest block that fits round-trips exactly; one segment
// farther, or a block below the ACK, panics rather than wrap.
func TestSACKOffsetAtLimit(t *testing.T) {
	const ack = int64(1) << 40
	p := NewAckPacket(1, 0, 1, ack)
	p.SetSACK(2, ack+1, ack+math.MaxInt32)
	if start, end := p.SACKBlock(2); start != ack+1 || end != ack+math.MaxInt32 {
		t.Fatalf("SACK block read back as [%d, %d)", start, end)
	}
	for _, b := range [][2]int64{{ack + 1, ack + math.MaxInt32 + 1}, {ack - 1, ack + 1}, {ack + 5, ack + 4}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "SACK block") {
					t.Errorf("SACK block [%d, %d) above ack %d: panic %q", b[0], b[1], ack, msg)
				}
			}()
			p.SetSACK(0, b[0], b[1])
		}()
	}
}

// TestDataPayloadAtLimit: a data segment's sizes are int32 fields bounded
// by MaxPacketBytes. A full segment builds; a payload past MSS, or
// negative, panics.
func TestDataPayloadAtLimit(t *testing.T) {
	if p := NewDataPacket(1, 0, 1, 0, MSS, false); p.WireBytes != MaxPacketBytes || p.PayloadBytes != MSS {
		t.Fatalf("full segment: wire %d, payload %d", p.WireBytes, p.PayloadBytes)
	}
	for _, payload := range []int{MSS + 1, -1} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "outside 0..MSS") {
					t.Errorf("payload %d: panic %q", payload, msg)
				}
			}()
			NewDataPacket(1, 0, 1, 0, payload, false)
		}()
	}
}

// TestLinkTxAccountingBySize: serialization-done takes a full segment's
// and a bare header's size from the lane's op and any other size from the
// packet; the byte and packet counters and the utilization they feed must
// be exact for all three, alone and interleaved.
func TestLinkTxAccountingBySize(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, "l", Gbps, 5*sim.Microsecond, NewDropTail(100), s)
	sizes := []int{MaxPacketBytes, HeaderBytes, 700, HeaderBytes, MaxPacketBytes, 41, 1499, MaxPacketBytes}
	var bytes int64
	var busy sim.Duration
	for i, b := range sizes {
		l.Send(sized(int64(i), b))
		bytes += int64(b)
		busy += l.TxTime(b)
	}
	eng.Run(sim.MaxTime)
	if l.TxBytes() != bytes || l.TxPackets() != int64(len(sizes)) {
		t.Fatalf("tx = %d bytes / %d packets, want %d / %d", l.TxBytes(), l.TxPackets(), bytes, len(sizes))
	}
	if got, want := l.Utilization(sim.Time(busy)), float64(bytes*8)/(float64(Gbps)*float64(busy)/float64(sim.Second)); got != want {
		t.Fatalf("utilization over the busy period = %v, want %v", got, want)
	}
	for i, p := range s.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("delivery order %v", seqs(s))
		}
	}
}

// TestLinkResetIsNewLink drives a link into every state Reset must clear —
// queued packets, a busy transmitter, down, extra delay, counters, uptime
// — and checks that after Engine.Reset and Link.Reset it behaves and
// accounts exactly as a link just built.
func TestLinkResetIsNewLink(t *testing.T) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	rng := sim.NewRNG(3)
	l := NewLink(eng, "l", Gbps, 5*sim.Microsecond, NewLossy(NewThresholdECN(20, 5), 0, rng), s)
	drive := func() (delivered int, at []sim.Time, st QueueStats, tx int64, util float64) {
		s.pkts, s.at = nil, nil
		for i := 0; i < 30; i++ { // overflows the 20-packet buffer
			p := dataPkt(true)
			p.Seq = int64(i)
			l.Send(p)
		}
		eng.Run(sim.MaxTime)
		return len(s.pkts), s.at, l.Queue().Stats(), l.TxBytes(), l.Utilization(eng.Now())
	}
	n1, at1, st1, tx1, u1 := drive()

	// Dirty everything, and leave packets queued and one on the wire.
	l.Queue().(*Lossy).SetP(0.5)
	l.SetExtraDelay(3 * sim.Microsecond)
	for i := 0; i < 10; i++ {
		l.Send(dataPkt(true))
	}
	eng.Run(eng.Now().Add(30 * sim.Microsecond))
	l.SetDown(true)
	eng.Run(eng.Now().Add(sim.Millisecond))

	eng.Reset()
	l.Reset()
	*rng = *sim.NewRNG(3)
	if l.Down() || l.ExtraDelay() != 0 || l.TxBytes() != 0 || l.TxPackets() != 0 || l.Queue().Len() != 0 ||
		l.Queue().Bytes() != 0 || l.Queue().Stats() != (QueueStats{}) || l.Queue().(*Lossy).P() != 0 {
		t.Fatalf("Reset left state behind: down=%v extra=%v tx=%d/%d queue=%d/%dB stats=%+v p=%v", l.Down(), l.ExtraDelay(),
			l.TxBytes(), l.TxPackets(), l.Queue().Len(), l.Queue().Bytes(), l.Queue().Stats(), l.Queue().(*Lossy).P())
	}
	n2, at2, st2, tx2, u2 := drive()
	if n1 != n2 || st1 != st2 || tx1 != tx2 || u1 != u2 || len(at1) != len(at2) {
		t.Fatalf("after Reset: %d delivered, stats %+v, tx %d, util %v; a new link: %d, %+v, %d, %v", n2, st2, tx2, u2, n1, st1, tx1, u1)
	}
	for i := range at1 {
		if at1[i] != at2[i] {
			t.Fatalf("after Reset packet %d arrives at %v; on a new link at %v", i, at2[i], at1[i])
		}
	}
}

// TestHostResetForgetsConnections: after Reset a host hands out slots as a
// new host does, delivers nothing to an endpoint of the previous cell, and
// keeps its resolved paths.
func TestHostResetForgetsConnections(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1, "h")
	h.AddAddr(7)
	h.AttachNIC(NewLink(eng, "nic", Gbps, 0, NewDropTail(8), h))
	pa := h.PathTo(7)
	if pa == nil {
		t.Fatal("no loopback path")
	}
	eps := make([]*countingEndpoint, 40) // past demuxHint: the tables have grown
	for i := range eps {
		eps[i] = &countingEndpoint{}
		h.Register(ConnID(i+1), eps[i])
	}
	h.Unregister(3, 3)
	h.Unregister(9, 9)
	h.Receive(NewAckPacket(99, 0, 7, 0)) // misdelivered
	h.Reset()
	if h.Misdelivered != 0 {
		t.Fatalf("Misdelivered = %d after Reset", h.Misdelivered)
	}
	if got := h.PathTo(7); got != pa {
		t.Fatal("Reset dropped the resolved path cache")
	}
	for i := 1; i <= 3; i++ {
		if slot := h.Register(ConnID(i), &countingEndpoint{}); slot != int32(i) {
			t.Fatalf("connection %d after Reset got slot %d, a new host gives %d", i, slot, i)
		}
	}
	p := NewAckPacket(5, 0, 7, 0)
	p.Slot = 5
	h.Receive(p)
	if eps[4].n != 0 || h.Misdelivered != 1 {
		t.Fatalf("a packet for a connection of the previous cell: delivered %d times, misdelivered %d", eps[4].n, h.Misdelivered)
	}
}

type countingEndpoint struct{ n int }

func (e *countingEndpoint) Deliver(*Packet) { e.n++ }
