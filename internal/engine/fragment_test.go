package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/ws"
)

func TestServiceName(t *testing.T) {
	if got := ServiceName("F2", 1); got != "frag/F2#1" {
		t.Fatalf("ServiceName = %q", got)
	}
}

// runtimeFixture builds the plumbing for a single-fragment runtime.
func runtimeFixture(t *testing.T, root *physical.OpSpec, sink Sink) (*physical.Plan, RuntimeConfig) {
	t.Helper()
	clock := vtime.NewClock(time.Microsecond)
	net := simnet.NewNetwork(clock)
	net.AddNode("data1")
	frag := &physical.FragmentSpec{
		ID:             "F1",
		Root:           root,
		Instances:      []simnet.NodeID{"data1"},
		InitialWeights: []float64{1},
	}
	plan := &physical.Plan{Fragments: []*physical.FragmentSpec{frag}, Coordinator: "coord"}
	ctx := &ExecContext{
		Clock:    clock,
		Node:     net.Node("data1"),
		Meter:    vtime.NewMeter(clock),
		Store:    dataset.DemoSized(10, 10),
		Services: ws.NewRegistry(ws.Entropy{}),
		Costs:    Costs{},
		Buckets:  16,
	}
	return plan, RuntimeConfig{
		Plan: plan, Fragment: frag, Instance: 0, Ctx: ctx,
		Tr: transport.NewInProc(net), Node: "data1", Sink: sink,
	}
}

// nullSink discards rows.
type nullSink struct{ rows int }

func (s *nullSink) Send(relation.Tuple) error { s.rows++; return nil }
func (s *nullSink) Close() error              { return nil }

func TestRuntimeCompileErrors(t *testing.T) {
	cols := []relation.Column{{Name: "x", Type: relation.TInt}}
	cases := map[string]*physical.OpSpec{
		"bad kind": {Kind: physical.OpKind(99), OutCols: cols},
		"unknown exchange": {Kind: physical.KConsume, Exchange: "EZZZ",
			NumProducers: 1, OutCols: cols},
		"bad agg kind": {Kind: physical.KAggregate, OutCols: cols,
			AggKinds: []uint8{77}, AggArgs: []int{-1},
			Children: []*physical.OpSpec{{Kind: physical.KScan, Table: "protein_sequences", OutCols: cols}}},
		"bad filter pred": {Kind: physical.KFilter, OutCols: cols,
			Pred: []sqlparse.Comparison{{
				Left:  sqlparse.ColumnRef{Name: "nope"},
				Op:    sqlparse.OpEq,
				Right: sqlparse.IntLit{Value: 1},
			}},
			Children: []*physical.OpSpec{{Kind: physical.KScan, Table: "protein_sequences",
				OutCols: cols}}},
	}
	for name, spec := range cases {
		_, cfg := runtimeFixture(t, spec, &nullSink{})
		if _, err := NewFragmentRuntime(cfg); err == nil {
			t.Errorf("%s: compile succeeded", name)
		}
	}
}

func TestRuntimeRequiresSinkOrProducer(t *testing.T) {
	cols := []relation.Column{{Name: "ORF", Type: relation.TString}}
	spec := &physical.OpSpec{Kind: physical.KScan, Table: "protein_sequences", OutCols: cols}
	_, cfg := runtimeFixture(t, spec, nil)
	if _, err := NewFragmentRuntime(cfg); err == nil || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("err = %v", err)
	}
}

func TestRuntimeRunScanToSink(t *testing.T) {
	cols := []relation.Column{
		{Table: "protein_sequences", Name: "ORF", Type: relation.TString},
		{Table: "protein_sequences", Name: "sequence", Type: relation.TString},
	}
	spec := &physical.OpSpec{Kind: physical.KScan, Table: "protein_sequences", OutCols: cols}
	sink := &nullSink{}
	_, cfg := runtimeFixture(t, spec, sink)
	rt, err := NewFragmentRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sink.rows != 10 || rt.Produced() != 10 {
		t.Fatalf("rows = %d, produced = %d", sink.rows, rt.Produced())
	}
	if rt.Err() != nil {
		t.Fatalf("Err = %v", rt.Err())
	}
	if rt.QueuedTuples() != 0 || rt.ConsumedTuples() != 0 {
		t.Fatal("scan fragment has no consumers")
	}
}

// failSink rejects every row, forcing the driver down its mid-stream error
// return after stateful operators below the root have already buffered (and
// reserved) state.
type failSink struct{ err error }

func (s *failSink) Send(relation.Tuple) error { return s.err }
func (s *failSink) Close() error              { return nil }

// TestRuntimeErrorPathReleasesBudget pins the driver's close-on-error
// contract: a mid-stream failure (here the sink rejecting the first row)
// must still close the operator tree, or a budgeted aggregate's reserved
// bytes leak on mem_inflight_bytes for the rest of the process.
func TestRuntimeErrorPathReleasesBudget(t *testing.T) {
	scanCols := []relation.Column{
		{Table: "protein_sequences", Name: "ORF", Type: relation.TString},
	}
	outCols := []relation.Column{
		{Name: "ORF", Type: relation.TString},
		{Name: "n", Type: relation.TInt},
	}
	spec := &physical.OpSpec{
		Kind: physical.KAggregate, OutCols: outCols,
		GroupOrds: []int{0},
		AggKinds:  []uint8{uint8(logical.AggCount)},
		AggArgs:   []int{-1},
		Children: []*physical.OpSpec{{Kind: physical.KScan,
			Table: "protein_sequences", OutCols: scanCols}},
	}
	sinkErr := errors.New("sink rejected row")
	_, cfg := runtimeFixture(t, spec, &failSink{err: sinkErr})
	cfg.Ctx.Mem = storage.NewBudget(1 << 20) // large: buffer, never spill
	cfg.Ctx.Spill = storage.NewMemory()
	rt, err := NewFragmentRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if err := rt.Run(context.Background()); !errors.Is(err, sinkErr) {
		t.Fatalf("Run = %v, want the sink error", err)
	}
	if n := cfg.Ctx.Mem.Inflight(); n != 0 {
		t.Fatalf("inflight = %d bytes after failed run, want 0 (operator tree not closed)", n)
	}
}

func TestRuntimeRunErrorPath(t *testing.T) {
	cols := []relation.Column{{Name: "x", Type: relation.TString}}
	spec := &physical.OpSpec{Kind: physical.KScan, Table: "missing_table", OutCols: cols}
	_, cfg := runtimeFixture(t, spec, &nullSink{})
	rt, err := NewFragmentRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if err := rt.Run(context.Background()); err == nil {
		t.Fatal("Run over a missing table succeeded")
	}
	if rt.Err() == nil {
		t.Fatal("Err not recorded")
	}
}

// orderedRoot wraps leaf in one of the order-sensitive roots the driver
// pulls batch-wise: a full sort, an ORDER BY + LIMIT (compiled to TopN), or
// a plain LIMIT.
func orderedRoot(kind string, leaf *physical.OpSpec) *physical.OpSpec {
	sortSpec := &physical.OpSpec{Kind: physical.KSort, SortOrds: []int{0}, SortDesc: []bool{true},
		OutCols: leaf.OutCols, Children: []*physical.OpSpec{leaf}}
	switch kind {
	case "sort":
		return sortSpec
	case "top-n":
		return &physical.OpSpec{Kind: physical.KLimit, LimitN: 37, OutCols: leaf.OutCols,
			Children: []*physical.OpSpec{sortSpec}}
	default:
		return &physical.OpSpec{Kind: physical.KLimit, LimitN: 53, OutCols: leaf.OutCols,
			Children: []*physical.OpSpec{leaf}}
	}
}

// rootRows is how many rows orderedRoot(kind, ·) emits over 95 input rows.
var rootRows = map[string]int64{"sort": 95, "top-n": 37, "limit": 53}

// assertM1Cadence checks that frag emitted one M1 event per MonitorEvery
// (10) produced rows, at exactly 10, 20, ... up to rows.
func assertM1Cadence(t *testing.T, m *countingMonitor, frag string, rows int64) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	var got []int64
	for _, e := range m.m1 {
		if e.Fragment == frag {
			got = append(got, e.Produced)
		}
	}
	if int64(len(got)) != rows/10 {
		t.Fatalf("%s emitted M1 at %v, want one per 10 of %d rows", frag, got, rows)
	}
	for i, p := range got {
		if p != int64(i+1)*10 {
			t.Fatalf("%s emitted M1 at %v, want every 10 produced rows", frag, got)
		}
	}
}

func TestOrderedRootsM1CadenceOverScan(t *testing.T) {
	scanCols := []relation.Column{
		{Table: "protein_sequences", Name: "ORF", Type: relation.TString},
		{Table: "protein_sequences", Name: "sequence", Type: relation.TString},
	}
	for _, kind := range []string{"sort", "top-n", "limit"} {
		leaf := &physical.OpSpec{Kind: physical.KScan, Table: "protein_sequences", OutCols: scanCols}
		sink := &nullSink{}
		_, cfg := runtimeFixture(t, orderedRoot(kind, leaf), sink)
		mon := &countingMonitor{}
		cfg.Ctx.Store = dataset.DemoSized(95, 10)
		cfg.Ctx.Monitor, cfg.Ctx.MonitorEvery = mon, 10
		rt, err := NewFragmentRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		rt.Stop()
		if int64(sink.rows) != rootRows[kind] {
			t.Fatalf("%s: %d rows, want %d", kind, sink.rows, rootRows[kind])
		}
		assertM1Cadence(t, mon, "F1", rootRows[kind])
	}
}

func TestOrderedRootsM1CadenceOverConsumer(t *testing.T) {
	scanCols := []relation.Column{
		{Table: "p", Name: "ORF", Type: relation.TString},
		{Table: "p", Name: "sequence", Type: relation.TString},
	}
	for _, kind := range []string{"sort", "top-n", "limit"} {
		c := newTestCluster(t, "data1", "coord")
		c.store = dataset.DemoSized(95, 10)
		f1 := &physical.FragmentSpec{
			ID:        "F1",
			Root:      &physical.OpSpec{Kind: physical.KScan, Table: "protein_sequences", OutCols: scanCols},
			Instances: []simnet.NodeID{"data1"}, InitialWeights: []float64{1},
			Output: &physical.ExchangeSpec{ID: "E1", ConsumerFragment: "F2",
				Policy: physical.PolicyWeighted, EstTuples: 95},
		}
		leaf := &physical.OpSpec{Kind: physical.KConsume, Exchange: "E1", NumProducers: 1, OutCols: scanCols}
		f2 := &physical.FragmentSpec{
			ID: "F2", Root: orderedRoot(kind, leaf),
			Instances: []simnet.NodeID{"coord"}, InitialWeights: []float64{1},
		}
		c.deploy(&physical.Plan{Fragments: []*physical.FragmentSpec{f1, f2}, Coordinator: "coord"})
		out := c.collect()
		c.stopAll()
		if int64(len(out)) != rootRows[kind] {
			t.Fatalf("%s: %d rows, want %d", kind, len(out), rootRows[kind])
		}
		assertM1Cadence(t, c.monitor, "F2", rootRows[kind])
	}
}

// TestLimitOverScanChargesOnlyNRows proves LIMIT pulls no row past N: with a
// flat per-row scan cost, the fragment charges exactly N scans, monitored
// (batches clamped to the M1 window) or not.
func TestLimitOverScanChargesOnlyNRows(t *testing.T) {
	cols := []relation.Column{{Table: "protein_sequences", Name: "ORF", Type: relation.TString}}
	for _, monitored := range []bool{false, true} {
		leaf := &physical.OpSpec{Kind: physical.KScan, Table: "protein_sequences", OutCols: cols}
		_, cfg := runtimeFixture(t, orderedRoot("limit", leaf), &nullSink{})
		cfg.Ctx.Store = dataset.DemoSized(95, 10)
		cfg.Ctx.Costs = Costs{ScanMs: 0.5}
		if monitored {
			cfg.Ctx.Monitor, cfg.Ctx.MonitorEvery = &countingMonitor{}, 10
		}
		rt, err := NewFragmentRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		rt.Stop()
		if got, want := cfg.Ctx.Meter.ChargedMs(), 53*0.5; got != want {
			t.Fatalf("monitored=%v: LIMIT 53 charged %v ms, want exactly %v", monitored, got, want)
		}
	}
}
