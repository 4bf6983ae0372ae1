package simclock

import (
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkVirtualNowParallel exercises the sharded-core clock pattern: each
// worker owns one clock in a contiguous slice and alternates Sleep/Now, the
// exact traffic the scale harness generates. The clocks are padded to a
// cache line each, so neighbouring shards never invalidate each other's
// line; TestVirtualOffsetPadding gates the layout.
func BenchmarkVirtualNowParallel(b *testing.B) {
	g := NewGroup(16)
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		c := g.Clock(int(next.Add(1)-1) % g.Len())
		for pb.Next() {
			c.Sleep(time.Microsecond)
			_ = c.Now()
		}
	})
}
