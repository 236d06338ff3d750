package microbench

import (
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Stored-scan benchmarks: a posix-resident synthetic table (string key,
// int64 value, 16-byte string payload) drained batch-at-a-time through the
// block scan, with the readahead producer at its default depth, on, and off.
// The benchmark gate holds ScanStoredBatch to its recorded ns/op.

// scanRows sizes the stored-scan benchmark table: ~300KB encoded at the
// 16-byte synthetic payload, a handful of 64KiB blocks per drain.
const scanRows = 8192

// scanStore lazily generates the benchmark table on posix.
var (
	scanOnce  sync.Once
	scanStore *dataset.Store
	scanErr   error
)

func scanSetup() (*dataset.Store, error) {
	scanOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dqp-scanbench-")
		if err != nil {
			scanErr = err
			return
		}
		posix, err := storage.NewPosix(dir)
		if err != nil {
			scanErr = err
			return
		}
		tbl, err := dataset.WriteSynthetic(posix, "base/scanbench", dataset.SyntheticSpec{Name: "scanbench", Rows: scanRows, PayloadBytes: 16, Seed: 5})
		if err != nil {
			scanErr = err
			return
		}
		scanStore = dataset.NewStore()
		scanStore.Add(tbl)
	})
	return scanStore, scanErr
}

// scanBench drains a fresh scan over the posix table per op. Unlike the
// zero-cost operator chains, the scan runs under the default cost model:
// the per-batch cost accounting — the byte-size bookkeeping, the
// perturbation lookup, the meter round trip — is part of what production
// fragments pay; the nanosecond clock scale keeps the modelled cost's real
// duration negligible.
func scanBench(b *testing.B, readahead int) {
	store, err := scanSetup()
	if err != nil {
		b.Fatal(err)
	}
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := chainCtx()
		ctx.Costs = engine.DefaultCosts()
		ctx.Store = store
		ctx.Readahead = readahead
		rows, err := drainRows(&engine.TableScan{Table: "scanbench"}, ctx, relation.NewBatch(1024))
		if err != nil {
			b.Fatal(err)
		}
		if rows != scanRows {
			b.Fatalf("scanned %d rows, want %d", rows, scanRows)
		}
	}
	b.ReportMetric(float64(scanRows)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}

// ScanStoredBatch drains the posix table batch-at-a-time through the block
// scan with default readahead (per-op = one full drain of scanRows tuples).
func ScanStoredBatch(b *testing.B) { scanBench(b, 0) }

// ScanReadaheadOn drains the block scan with the double-buffering readahead
// producer on (per-op = one full drain of scanRows tuples).
func ScanReadaheadOn(b *testing.B) { scanBench(b, 2) }

// ScanReadaheadOff drains the block scan synchronously, readahead disabled
// (per-op = one full drain of scanRows tuples).
func ScanReadaheadOff(b *testing.B) { scanBench(b, -1) }
