// Package microbench holds the engine's micro-benchmarks as plain functions
// so they can run both under `go test -bench` (see microbench_test.go) and
// from cmd/dqp-experiments, which executes them via testing.Benchmark and
// writes the results to BENCH_micro.json. The benchmarks isolate the hot
// paths of the batch-vectorized pipeline: the tuple codec, the exchange
// producer, the operator chain (serial and morsel-parallel), the spill
// paths, the stored scan, the notification bus and the monitoring layer.
package microbench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/scalar"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// sampleTuple is a representative row: a key, a 60-char payload, a float.
func sampleTuple() relation.Tuple {
	return relation.Tuple{
		relation.String("YAL00042W"),
		relation.String("MSTNAKQLVDLLNRQEGLTREQFEEYIKQLQKQGVELVVDENNQPTLRKGSAGGASTQ"),
		relation.Float(4.25),
	}
}

// TupleEncode measures encoding one tuple into a pooled buffer.
func TupleEncode(b *testing.B) {
	t := sampleTuple()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := relation.GetEncodeBuffer()
		buf = relation.AppendTuple(buf, t)
		relation.PutEncodeBuffer(buf)
	}
}

// TupleDecode measures decoding one tuple.
func TupleDecode(b *testing.B) {
	enc := relation.EncodeTuple(sampleTuple())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := relation.DecodeTuple(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TupleDecodeInto measures decoding one tuple into an arena — the transport
// receive path.
func TupleDecodeInto(b *testing.B) {
	enc := relation.EncodeTuple(sampleTuple())
	var a relation.Arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := relation.DecodeTupleInto(&a, enc); err != nil {
			b.Fatal(err)
		}
	}
}

// sendBatchSize is the batch the producer benchmark routes per call.
const sendBatchSize = relation.DefaultBatchSize

// ProducerSendBatch measures routing one 256-tuple batch through a weighted
// exchange producer over the in-proc transport (per-op = per batch).
func ProducerSendBatch(b *testing.B) {
	clock := vtime.NewClock(time.Nanosecond)
	net := simnet.NewNetwork(clock)
	net.AddNode("src")
	net.AddNode("sink")
	tr := transport.NewInProc(net)
	consumers := 4
	addrs := make([]engine.Addr, consumers)
	for i := 0; i < consumers; i++ {
		svc := fmt.Sprintf("cons/%d", i)
		tr.Register("sink", svc, func(simnet.NodeID, *transport.Message) {})
		addrs[i] = engine.Addr{Node: "sink", Service: svc}
	}
	pol, err := engine.NewWeightedPolicy([]float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		b.Fatal(err)
	}
	prod := engine.NewProducer(engine.ProducerConfig{
		Exchange: "EX", Fragment: "F", Instance: 0,
		ConsumerFragment: "G", Consumers: addrs,
		Est: int64(b.N) * sendBatchSize, Policy: pol, Transport: tr, Node: "src",
		BufferTuples: 50, CheckpointEvery: 1000,
	})
	prod.Bind(&engine.ExecContext{
		Clock: clock, Node: net.Node("src"), Meter: vtime.NewMeter(clock),
	})
	batch := make([]relation.Tuple, sendBatchSize)
	for i := range batch {
		batch[i] = relation.Tuple{relation.Int(int64(i)), relation.String("payload")}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prod.SendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// chainRows is the input cardinality of the operator-chain benchmarks.
const chainRows = 2048

// chainRelation caches the input rows across iterations.
var chainRelation = func() []relation.Tuple {
	ts := make([]relation.Tuple, chainRows)
	for i := range ts {
		ts[i] = relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i * 7))}
	}
	return ts
}()

// chainCtx builds a zero-cost ExecContext: with modelled costs at zero, the
// benchmark measures pure engine overhead — interface dispatch, locks, meter
// traffic, allocation. The payload work (predicate evaluation, output-tuple
// construction) is deliberately kept small, so the measurement exposes the
// per-batch overhead rather than burying it.
func chainCtx() *engine.ExecContext {
	clock := vtime.NewClock(time.Nanosecond)
	return &engine.ExecContext{
		Clock:   clock,
		Node:    simnet.NewNode("bench"),
		Meter:   vtime.NewMeter(clock),
		Buckets: 64,
	}
}

// chainPlan builds scan→select→project over the cached rows; the predicate
// passes all but one row, so the drained cardinality stays deterministic
// while the filter still evaluates every tuple.
func chainPlan(b *testing.B) engine.Iterator {
	return chainPlanOver(b, engine.NewSliceSource(chainRelation, 0))
}

// chainPlanOver builds the same select→project over any source — the
// parallel-chain benchmark hangs per-worker operator copies off one shared
// morsel source.
func chainPlanOver(b *testing.B, src engine.Iterator) engine.Iterator {
	pred, err := scalar.Compare(
		scalar.Col(0, relation.TInt, "k"), scalar.Ge,
		scalar.Const(relation.Int(1)))
	if err != nil {
		b.Fatal(err)
	}
	return &engine.Project{
		Child: &engine.Select{Child: src, Pred: pred},
		Ords:  []int{1},
	}
}

// ballastBytes is the heap ballast the chain benchmarks hold while running.
// Each drain allocates ~100KB of output tuples per op, so with the default
// few-MB live heap the collector marks almost continuously and run-to-run
// pacing noise swamps any comparison; a ballast stretches the GC period so
// every variant measures engine overhead under identical, steady conditions.
const ballastBytes = 64 << 20

// drainRows opens it under ctx, drains it through batch, closes it, and
// returns the number of rows produced.
func drainRows(it engine.Iterator, ctx *engine.ExecContext, batch *relation.Batch) (int, error) {
	if err := it.Open(ctx); err != nil {
		return 0, err
	}
	rows := 0
	for {
		n, err := it.NextBatch(batch)
		if err != nil {
			_ = it.Close()
			return rows, err
		}
		if n == 0 {
			return rows, it.Close()
		}
		rows += n
	}
}

// BatchChain drains the chain serially (per-op = one full drain of
// chainRows tuples).
func BatchChain(b *testing.B) {
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := relation.GetBatch()
		rows, err := drainRows(chainPlan(b), chainCtx(), batch)
		batch.Release()
		if err != nil {
			b.Fatal(err)
		}
		if rows != chainRows-1 {
			b.Fatalf("drained %d rows, want %d", rows, chainRows-1)
		}
	}
	b.ReportMetric(float64(chainRows)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}

// Result is one benchmark outcome, shaped for BENCH_micro.json. Every entry
// records the runner's core budget at measurement time: without it the gate
// cannot tell "no parallel speedup" from "one core" (see GateScaling).
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	TuplesPerOp int     `json:"tuples_per_op,omitempty"`
	GOMAXPROCS  int     `json:"gomaxprocs,omitempty"`
	NumCPU      int     `json:"num_cpu,omitempty"`
}

// spec names one benchmark and the tuples it processes per op.
type spec struct {
	name   string
	fn     func(*testing.B)
	tuples int
}

func specs() []spec {
	return []spec{
		{"TupleEncode", TupleEncode, 1},
		{"TupleDecode", TupleDecode, 1},
		{"TupleDecodeInto", TupleDecodeInto, 1},
		{"ProducerSendBatch", ProducerSendBatch, sendBatchSize},
		{"BatchChain", BatchChain, chainRows},
		{"ParallelChain1", ParallelChain1, chainRows},
		{"ParallelChain2", ParallelChain2, chainRows},
		{"ParallelChain4", ParallelChain4, chainRows},
		{"ParallelChain8", ParallelChain8, chainRows},
		{"PartitionedJoin1", PartitionedJoin1, joinProbeRows},
		{"PartitionedJoin2", PartitionedJoin2, joinProbeRows},
		{"PartitionedJoin4", PartitionedJoin4, joinProbeRows},
		{"PartitionedJoin8", PartitionedJoin8, joinProbeRows},
		{"SpillJoin", SpillJoin, joinProbeRows},
		{"ExternalSort", ExternalSort, sortRows},
		{"ScanStoredBatch", ScanStoredBatch, scanRows},
		{"ScanReadaheadOn", ScanReadaheadOn, scanRows},
		{"ScanReadaheadOff", ScanReadaheadOff, scanRows},
		{"BusPublishDeliverBounded", BusPublishDeliverBounded, 1},
		{"ObsMonitoringOverhead", ObsMonitoringOverhead, chainRows},
		{"ObsMonitoringOverheadBaseline", ObsMonitoringOverheadBaseline, chainRows},
	}
}

func runSpec(s spec) Result {
	r := testing.Benchmark(s.fn)
	return Result{
		Name:        s.name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		TuplesPerOp: s.tuples,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
}

// All runs every micro-benchmark through testing.Benchmark and collects the
// results. TuplesPerOp lets consumers derive throughput.
func All() []Result {
	var out []Result
	for _, s := range specs() {
		out = append(out, runSpec(s))
	}
	return out
}

// Run reruns a single named benchmark; ok is false for an unknown name. The
// regression gate uses it to retry flagged benchmarks, since on a shared
// runner any one testing.Benchmark measurement can come in 30%+ slow.
func Run(name string) (Result, bool) {
	for _, s := range specs() {
		if s.name == name {
			return runSpec(s), true
		}
	}
	return Result{}, false
}
