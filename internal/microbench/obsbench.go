package microbench

import (
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/relation"
)

// obsChainDrain drains the batch chain while performing exactly the per-batch
// registry traffic the instrumented fragment driver performs: one counter add
// and one histogram observation per batch. With a nil layer the resolved
// handles are nil and every operation is a single-branch no-op, so the pair
// of benchmarks brackets the monitoring overhead of the observability layer
// on the hot path.
func obsChainDrain(b *testing.B, o *obs.Obs) {
	produced := o.Counter(obs.Label(obs.MEngineTuplesProduced, "fragment", "bench"))
	batchSize := o.Histogram(obs.MEngineBatchSize, obs.DefBucketsSize)
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := chainPlan(b)
		if err := it.Open(chainCtx()); err != nil {
			b.Fatal(err)
		}
		batch := relation.GetBatch()
		rows := 0
		for {
			n, err := it.NextBatch(batch)
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
			produced.Add(int64(n))
			batchSize.Observe(float64(n))
			rows += n
		}
		batch.Release()
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
		if rows != chainRows-1 {
			b.Fatalf("drained %d rows, want %d", rows, chainRows-1)
		}
	}
	b.ReportMetric(float64(chainRows)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}

// ObsMonitoringOverhead drains the batch chain with live registry handles.
// Compare against ObsMonitoringOverheadBaseline: the instrumented drain must
// stay within 5% of the uninstrumented one.
func ObsMonitoringOverhead(b *testing.B) {
	obsChainDrain(b, obs.New())
}

// ObsMonitoringOverheadBaseline is the same drain with instrumentation
// disabled (nil handles).
func ObsMonitoringOverheadBaseline(b *testing.B) {
	obsChainDrain(b, nil)
}
