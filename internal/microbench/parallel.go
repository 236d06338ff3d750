package microbench

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
)

// morselSource hands the cached chain relation out in batch-sized morsels
// under a mutex — the same contract as the engine's shared scan source in
// morsel mode, so ParallelChainN measures the worker pool's coordination
// cost over the identical scan→select→project chain BatchChain drains
// serially.
type morselSource struct {
	mu     sync.Mutex
	src    engine.Iterator
	opened bool
	closed bool
	eos    bool
}

// Open opens the underlying source once; every worker chain's Open funnels
// here (a second Open must not rewind a drain in progress).
func (m *morselSource) Open(ctx *engine.ExecContext) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.opened {
		return nil
	}
	m.opened = true
	return m.src.Open(ctx)
}

func (m *morselSource) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.src.Close()
}

func (m *morselSource) NextBatch(dst *relation.Batch) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.eos {
		dst.Rewind()
		return 0, nil
	}
	n, err := m.src.NextBatch(dst)
	if err == nil && n == 0 {
		m.eos = true
	}
	return n, err
}

// parallelChain drains the chain with a pool of workers pulling morsels from
// a shared source, each through its own select→project operators (per-op =
// one full drain of chainRows tuples across the pool).
func parallelChain(b *testing.B, workers int) {
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := &morselSource{src: engine.NewSliceSource(chainRelation, 0)}
		if err := src.Open(chainCtx()); err != nil {
			b.Fatal(err)
		}
		var (
			wg    sync.WaitGroup
			total int64
			mu    sync.Mutex
			fail  error
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				it := chainPlanOver(b, src)
				if err := it.Open(chainCtx()); err != nil {
					mu.Lock()
					fail = err
					mu.Unlock()
					return
				}
				batch := relation.GetBatch()
				rows := int64(0)
				for {
					n, err := it.NextBatch(batch)
					if err != nil {
						mu.Lock()
						fail = err
						mu.Unlock()
						break
					}
					if n == 0 {
						break
					}
					rows += int64(n)
				}
				batch.Release()
				mu.Lock()
				total += rows
				mu.Unlock()
			}()
		}
		wg.Wait()
		if fail != nil {
			b.Fatal(fail)
		}
		if err := src.Close(); err != nil {
			b.Fatal(err)
		}
		if total != chainRows-1 {
			b.Fatalf("drained %d rows, want %d", total, chainRows-1)
		}
	}
	b.ReportMetric(float64(chainRows)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}

// ParallelChain1 runs the operator-chain benchmark with a serial driver.
func ParallelChain1(b *testing.B) { parallelChain(b, 1) }

// ParallelChain2 runs the operator-chain benchmark on 2 workers.
func ParallelChain2(b *testing.B) { parallelChain(b, 2) }

// ParallelChain4 runs the operator-chain benchmark on 4 workers.
func ParallelChain4(b *testing.B) { parallelChain(b, 4) }

// ParallelChain8 runs the operator-chain benchmark on 8 workers.
func ParallelChain8(b *testing.B) { parallelChain(b, 8) }

// joinRows sizes the partitioned-join benchmark inputs.
const (
	joinBuildRows = 1024
	joinProbeRows = 2048
)

var joinBuildRelation = func() []relation.Tuple {
	ts := make([]relation.Tuple, joinBuildRows)
	for i := range ts {
		ts[i] = relation.Tuple{relation.Int(int64(i)), relation.String("build")}
	}
	return ts
}()

var joinProbeRelation = func() []relation.Tuple {
	ts := make([]relation.Tuple, joinProbeRows)
	for i := range ts {
		ts[i] = relation.Tuple{relation.Int(int64(i % joinBuildRows)), relation.String("probe")}
	}
	return ts
}()

// partitionedJoin measures the shared-state hash join under a worker pool:
// every worker drains morsels of the build side into the partitioned table,
// waits at the build barrier, then probes concurrently (per-op = one full
// build+probe of the join across the pool).
func partitionedJoin(b *testing.B, workers int) {
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSrc := &morselSource{src: engine.NewSliceSource(joinBuildRelation, 0)}
		probeSrc := &morselSource{src: engine.NewSliceSource(joinProbeRelation, 0)}
		base := &engine.HashJoin{BuildKeys: []int{0}, ProbeKeys: []int{0}, BuildEst: joinBuildRows}
		base.SetWorkers(workers)
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			total int64
			fail  error
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				j := base.WorkerClone(buildSrc, probeSrc)
				if err := j.Open(chainCtx()); err != nil {
					mu.Lock()
					fail = err
					mu.Unlock()
					base.Abort()
					return
				}
				batch := relation.GetBatch()
				rows := int64(0)
				for {
					n, err := j.NextBatch(batch)
					if err != nil {
						mu.Lock()
						fail = err
						mu.Unlock()
						break
					}
					if n == 0 {
						break
					}
					rows += int64(n)
				}
				batch.Release()
				_ = j.Close()
				mu.Lock()
				total += rows
				mu.Unlock()
			}()
		}
		wg.Wait()
		if fail != nil {
			b.Fatal(fail)
		}
		if total != joinProbeRows {
			b.Fatalf("joined %d rows, want %d", total, joinProbeRows)
		}
	}
	b.ReportMetric(float64(joinProbeRows)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}

// PartitionedJoin1 runs the partitioned-join benchmark with a serial driver.
func PartitionedJoin1(b *testing.B) { partitionedJoin(b, 1) }

// PartitionedJoin2 runs the partitioned-join benchmark on 2 workers.
func PartitionedJoin2(b *testing.B) { partitionedJoin(b, 2) }

// PartitionedJoin4 runs the partitioned-join benchmark on 4 workers.
func PartitionedJoin4(b *testing.B) { partitionedJoin(b, 4) }

// PartitionedJoin8 runs the partitioned-join benchmark on 8 workers.
func PartitionedJoin8(b *testing.B) { partitionedJoin(b, 8) }
