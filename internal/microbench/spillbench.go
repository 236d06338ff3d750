package microbench

import (
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Spill benchmarks: the grace-hash join and the external merge sort under a
// memory budget sized to a quarter of their working set, against the memory
// backend. They price the spill machinery itself — run framing, partition
// routing, reload and merge — without posix I/O noise, so the regression
// gate catches structural slowdowns in the spill path.

// spillBudgetDivisor makes the budget a quarter of the accounted input, so
// roughly three quarters of the state goes through storage each op.
const spillBudgetDivisor = 4

// spillCtx is chainCtx plus a budget and a fresh memory backend.
func spillCtx(budget int64) *engine.ExecContext {
	ctx := chainCtx()
	ctx.Mem = storage.NewBudget(budget)
	ctx.Spill = storage.NewMemory()
	return ctx
}

// spillJoinBudget is computed once from the shared build relation.
var spillJoinBudget = func() int64 {
	var total int64
	for _, t := range joinBuildRelation {
		total += int64(t.ByteSize()) + 48
	}
	return total / spillBudgetDivisor
}()

// SpillJoin measures one full build+probe+drain of the serial grace-hash
// join with 3/4 of its build side spilled (per-op = one joinProbeRows probe).
func SpillJoin(b *testing.B) {
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := spillCtx(spillJoinBudget)
		j := &engine.HashJoin{
			Build:     engine.NewSliceSource(joinBuildRelation, 0),
			Probe:     engine.NewSliceSource(joinProbeRelation, 0),
			BuildKeys: []int{0}, ProbeKeys: []int{0},
			BuildEst: joinBuildRows,
		}
		batch := relation.GetBatch()
		rows, err := drainRows(j, ctx, batch)
		batch.Release()
		if err != nil {
			b.Fatal(err)
		}
		if rows != joinProbeRows {
			b.Fatalf("joined %d rows, want %d", rows, joinProbeRows)
		}
	}
	b.ReportMetric(float64(joinProbeRows)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}

// sortRows sizes the external-sort benchmark input.
const sortRows = 4096

var sortRelation = func() []relation.Tuple {
	ts := make([]relation.Tuple, sortRows)
	for i := range ts {
		// Reversed keys with duplicates: every run flush is non-trivially
		// ordered and the merge exercises its stability tie-break.
		ts[i] = relation.Tuple{relation.Int(int64((sortRows - i) % 97)), relation.Int(int64(i))}
	}
	return ts
}()

var spillSortBudget = func() int64 {
	var total int64
	for _, t := range sortRelation {
		total += int64(t.ByteSize()) + 24
	}
	return total / spillBudgetDivisor
}()

// ExternalSort measures one full external merge sort with 3/4 of the input
// flushed to runs (per-op = one sortRows drain).
func ExternalSort(b *testing.B) {
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := spillCtx(spillSortBudget)
		s := &engine.Sort{
			Child: engine.NewSliceSource(sortRelation, 0),
			Ords:  []int{0}, Desc: []bool{false},
		}
		batch := relation.GetBatch()
		rows, err := drainRows(s, ctx, batch)
		batch.Release()
		if err != nil {
			b.Fatal(err)
		}
		if rows != sortRows {
			b.Fatalf("sorted %d rows, want %d", rows, sortRows)
		}
	}
	b.ReportMetric(float64(sortRows)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}
