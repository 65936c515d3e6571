package mptcp

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"xmp/internal/cc"
	"xmp/internal/core"
	"xmp/internal/transport"
)

// TestFlowLayout pins the sizes of a flow and its subflow records, which
// every sender of an incast burst holds at once (DESIGN.md, "Per-connection
// records"). The bounds hold for 8-byte pointers.
func TestFlowLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit pointers")
	}
	if size := unsafe.Sizeof(Flow{}); size > 176 {
		t.Errorf("Flow is %d bytes, want at most 176", size)
	}
	if size := unsafe.Sizeof(subflow{}); size > 480 {
		t.Errorf("subflow is %d bytes, want at most 480", size)
	}
}

// TestXMP2SenderRecords bounds what one XMP-2 sender of an incast burst
// holds in its arena: the Flow, its two subflow records (connections
// embedded), their two BOS controllers and the coupling group's two member
// pointers.
func TestXMP2SenderRecords(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit pointers")
	}
	var member *cc.Member
	sum := unsafe.Sizeof(Flow{}) + 2*(unsafe.Sizeof(subflow{})+unsafe.Sizeof(core.BOS{})+unsafe.Sizeof(member))
	if sum > 1312 {
		t.Errorf("an XMP-2 sender's records are %d bytes, want at most 1312", sum)
	}
}

// TestShapeBetaPanicsOutsideInt32: a flow's recycling key keeps β as an
// int32; a β past that panics when the key is built rather than wrap into
// another shape's key.
func TestShapeBetaPanicsOutsideInt32(t *testing.T) {
	big := int64(math.MaxInt32) + 1
	if int64(int(big)) != big {
		t.Skip("a 32-bit int cannot hold a value past the int32 bound")
	}
	opts := Options{Algorithm: AlgXMP, Subflows: make([]SubflowSpec, 2), Transport: transport.DefaultConfig(), Beta: math.MaxInt32}
	if key := shapeOf(&opts); key.beta != math.MaxInt32 || key.nsub != 2 {
		t.Fatalf("shape at the limit: β %d, %d subflows", key.beta, key.nsub)
	}
	opts.Beta = int(big)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "outside int32") {
			t.Errorf("β 2^31: panic %q", msg)
		}
	}()
	shapeOf(&opts)
}
