package microbench

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/vtime"
)

// BusPublishDeliverBounded measures end-to-end notification throughput —
// Publish on one goroutine, handler execution on the subscription's delivery
// goroutine — through the bounded ring with the blocking overflow policy: a
// full queue exerts backpressure on the publisher instead of growing, so
// memory stays capped at QueueCap notifications and no notification is lost
// (per-op = one notification, published and delivered).
func BusPublishDeliverBounded(b *testing.B) {
	clock := vtime.NewClock(time.Nanosecond)
	bu := bus.NewWithOptions(clock, nil, bus.Options{Overflow: bus.OverflowBlock})
	defer bu.Close()
	var delivered atomic.Int64
	sub := bu.Subscribe("bench", "n0", "bench.topic", func(bus.Notification) {
		delivered.Add(1)
	})
	defer sub.Cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu.Publish("bench", "n0", "bench.topic", i)
	}
	for delivered.Load() < int64(b.N) {
		time.Sleep(10 * time.Microsecond)
	}
}
