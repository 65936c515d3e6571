package core

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"xmp/internal/cc"
)

// TestBOSLayout pins the size of the controller every XMP subflow of an
// incast burst holds. The bound holds for 8-byte pointers.
func TestBOSLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit pointers")
	}
	if size := unsafe.Sizeof(BOS{}); size > 80 {
		t.Errorf("BOS is %d bytes, want at most 80", size)
	}
}

// wantPanic fails t unless f panics with a message containing want.
func wantPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Errorf("%s: panic %q, want one containing %q", name, msg, want)
		}
	}()
	f()
}

// TestBOSWindowPanicsAtLimit drives the int32 window to 2^31-1 through
// both ways it grows — a slow-start ACK and a congestion-avoidance round —
// and checks that the next growth panics rather than wraps; β and the
// initial window are checked against int32 at construction.
func TestBOSWindowPanicsAtLimit(t *testing.T) {
	wantPanic(t, "slow start", "grows past 2^31-1", func() {
		b := NewBOS(10, DefaultBeta)
		b.cwnd, b.ssthresh = math.MaxInt32-1, math.MaxInt32
		b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 1, SndNxt: 2})
		if b.Window() != math.MaxInt32 {
			t.Fatalf("slow start to the limit: window %d", b.Window())
		}
		b.OnAck(cc.Ack{NewlyAcked: 1, SndUna: 2, SndNxt: 3})
	})
	wantPanic(t, "congestion avoidance", "grows past 2^31-1", func() {
		b := NewBOS(10, DefaultBeta)
		b.cwnd, b.ssthresh = math.MaxInt32, 1
		b.OnAck(cc.Ack{SndUna: 1, SndNxt: 10}) // opens the first round
		b.OnAck(cc.Ack{SndUna: 11, SndNxt: 20})
	})
	big := int64(math.MaxInt32) + 1
	if int64(int(big)) != big {
		return // a 32-bit int cannot hold a value past the int32 bound
	}
	wantPanic(t, "beta", "beta must be in", func() { NewBOS(10, int(big)) })
	wantPanic(t, "initial window", "initial window", func() { NewBOS(int(big), DefaultBeta) })
}
