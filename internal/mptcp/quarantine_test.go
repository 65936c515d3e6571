package mptcp

import (
	"fmt"
	"testing"

	"xmp/internal/transport"
)

// BenchmarkQuarantine measures what a recycled launch and its release pay
// to find the flow's shape in the arena's quarantine — one take and one
// put — cycling over 1, 3 and 8 shapes (the schemes of a worker's cells)
// with 16 drained flows parked under each.
func BenchmarkQuarantine(b *testing.B) {
	for _, shapes := range []int{1, 3, 8} {
		b.Run(fmt.Sprintf("shapes=%d", shapes), func(b *testing.B) {
			var q quarantine
			keys := make([]shapeKey, shapes)
			for i := range keys {
				opts := Options{
					Algorithm: Algorithm(i % 4),
					Subflows:  make([]SubflowSpec, 1+i/4),
					Transport: transport.DefaultConfig(),
				}
				keys[i] = shapeOf(&opts)
				for j := 0; j < 16; j++ {
					q.put(&Flow{shape: keys[i]})
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.put(q.take(keys[i%shapes]))
			}
		})
	}
}
