package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPermIntoMatchesPerm: PermInto yields math/rand's Perm permutation
// and leaves the stream where Perm leaves it, whatever the buffer held.
func TestPermIntoMatchesPerm(t *testing.T) {
	ref := rand.New(rand.NewSource(7))
	g := NewRNG(7)
	buf := make([]int, 40)
	for i := range buf {
		buf[i] = -1
	}
	for n := 0; n <= len(buf); n++ {
		want := ref.Perm(n)
		if got := g.PermInto(buf[:n]); !slices.Equal(got, want) {
			t.Fatalf("n=%d: PermInto %v, Perm %v", n, got, want)
		}
		if a, b := g.Int63n(1<<40), ref.Int63n(1<<40); a != b {
			t.Fatalf("n=%d: streams diverged after the draw: %d vs %d", n, a, b)
		}
	}
}
