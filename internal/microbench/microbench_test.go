package microbench

import (
	"math"
	"testing"
)

func BenchmarkTupleEncode(b *testing.B)       { TupleEncode(b) }
func BenchmarkTupleDecode(b *testing.B)       { TupleDecode(b) }
func BenchmarkProducerSendBatch(b *testing.B) { ProducerSendBatch(b) }

// BenchmarkBusPublishDeliver prices the bounded subscription ring under the
// blocking overflow policy.
func BenchmarkBusPublishDeliver(b *testing.B) { BusPublishDeliverBounded(b) }

// BenchmarkBatchChain drains the scan→select→project chain serially.
func BenchmarkBatchChain(b *testing.B) { BatchChain(b) }

// BenchmarkObsMonitoringOverhead compares the batch drain with live registry
// handles against the same drain with instrumentation disabled.
func BenchmarkObsMonitoringOverhead(b *testing.B) {
	b.Run("instrumented", ObsMonitoringOverhead)
	b.Run("baseline", ObsMonitoringOverheadBaseline)
}

// bestNs runs a benchmark three times, alternating with nothing in between,
// and returns the fastest ns/op: on shared single-core runners a background
// burst can slow any one run by 10%+, and the minimum is the standard robust
// estimator for "how fast does this code actually go".
func bestNs(fn func(*testing.B)) float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		r := testing.Benchmark(fn)
		if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < best {
			best = ns
		}
	}
	return best
}

// TestObsOverheadWithinBudget pins the observability acceptance bar: the
// instrumented hot path must regress the uninstrumented drain by at most 5%.
func TestObsOverheadWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison")
	}
	baseNs := bestNs(ObsMonitoringOverheadBaseline)
	instNs := bestNs(ObsMonitoringOverhead)
	if instNs > baseNs*1.05 {
		t.Errorf("instrumented drain %.0f ns/op vs baseline %.0f ns/op: overhead %.1f%%, budget 5%%",
			instNs, baseNs, (instNs/baseNs-1)*100)
	}
}

// BenchmarkParallelChain sweeps the morsel pool width over the same chain
// BatchChain drains serially.
func BenchmarkParallelChain(b *testing.B) {
	b.Run("w1", ParallelChain1)
	b.Run("w2", ParallelChain2)
	b.Run("w4", ParallelChain4)
	b.Run("w8", ParallelChain8)
}

// BenchmarkPartitionedJoin sweeps the worker count over the shared-state
// partitioned hash join.
func BenchmarkPartitionedJoin(b *testing.B) {
	b.Run("w1", PartitionedJoin1)
	b.Run("w2", PartitionedJoin2)
	b.Run("w4", PartitionedJoin4)
	b.Run("w8", PartitionedJoin8)
}

func BenchmarkTupleDecodeIntoArena(b *testing.B) { TupleDecodeInto(b) }

// BenchmarkStoredScan prices the streaming scan engine: the posix table
// drained batch-at-a-time through the block scan, and the readahead producer
// on versus off.
func BenchmarkStoredScan(b *testing.B) {
	b.Run("batch", ScanStoredBatch)
	b.Run("readahead-on", ScanReadaheadOn)
	b.Run("readahead-off", ScanReadaheadOff)
}

// BenchmarkSpill prices the memory-governed paths: the grace-hash join and
// the external merge sort with 3/4 of their state going through storage.
func BenchmarkSpill(b *testing.B) {
	b.Run("join", SpillJoin)
	b.Run("sort", ExternalSort)
}

// TestParallelChainSerialParity pins the morsel mode's acceptance bar: a
// single-worker pool must stay within 5% of the serial batch drain, so
// Parallelism=1 never taxes configurations that don't opt in.
func TestParallelChainSerialParity(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison")
	}
	serial := bestNs(BatchChain)
	pool := bestNs(ParallelChain1)
	if pool > serial*1.05 {
		t.Errorf("1-worker pool %.0f ns/op vs serial batch %.0f ns/op: overhead %.1f%%, budget 5%%",
			pool, serial, (pool/serial-1)*100)
	}
}

// TestGate exercises the benchmark regression gate's comparison rules.
func TestGate(t *testing.T) {
	baseline := []Result{
		{Name: "A", NsPerOp: 100},
		{Name: "B", NsPerOp: 100},
		{Name: "Retired", NsPerOp: 50},
	}
	current := []Result{
		{Name: "A", NsPerOp: 124},  // +24%: within tolerance
		{Name: "B", NsPerOp: 130},  // +30%: regression
		{Name: "New", NsPerOp: 10}, // no baseline: ignored
	}
	regs := Gate(baseline, current, 0.25)
	if len(regs) != 1 || regs[0].Name != "B" {
		t.Fatalf("regressions = %v, want exactly B", regs)
	}
	if regs[0].String() == "" {
		t.Error("empty regression description")
	}
	if got := Gate(baseline, baseline, 0); got != nil {
		t.Fatalf("identical results flagged: %v", got)
	}
}
