package engine

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/logical"
	"repro/internal/relation"
	"repro/internal/scalar"
	"repro/internal/ws"
)

// refLimits are the batch capacities every reference case drains at: one
// tuple, an odd size that straddles every internal boundary, and the
// default.
var refLimits = []int{1, 7, 0}

// refCase is one operator tree with an independent plain-Go oracle: the rows
// it must produce (computed by direct loops over the table tuples) and the
// modelled cost it must charge on an unperturbed node (the sum of the
// per-tuple base costs).
type refCase struct {
	mk      func() Iterator
	want    []relation.Tuple
	ordered bool // compare in order; otherwise as multisets
	wantMs  float64
}

// check drains the case at every reference batch limit and compares rows.
func (c refCase) check(t *testing.T) {
	t.Helper()
	for _, limit := range refLimits {
		got := drainBatch(t, c.mk(), testCtx(), limit)
		if c.ordered {
			sameTuplesLabeled(t, fmt.Sprintf("batch limit %d", limit), c.want, got)
		} else {
			sameMultiset(t, got, c.want)
		}
	}
}

// checkCost drains the case at every reference batch limit and compares the
// charged modelled cost with the oracle's.
func (c refCase) checkCost(t *testing.T, name string) {
	t.Helper()
	for _, limit := range refLimits {
		ctx := testCtx()
		drainBatch(t, c.mk(), ctx, limit)
		// The same per-tuple charges, bundled per batch: only float-rounding
		// noise may differ.
		if got := ctx.Meter.ChargedMs(); math.Abs(got-c.wantMs) > 1e-9*math.Max(1, c.wantMs) {
			t.Fatalf("%s at batch limit %d: charged %v ms, want %v ms", name, limit, got, c.wantMs)
		}
	}
}

// demoTuples returns the tuples of one testCtx table.
func demoTuples(t *testing.T, name string) []relation.Tuple {
	t.Helper()
	tbl, err := testCtx().Store.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Tuples
}

// scanCostMs is the oracle's scan charge for ts.
func scanCostMs(c Costs, ts []relation.Tuple) float64 {
	ms := 0.0
	for _, tp := range ts {
		ms += c.ScanMs + c.ScanByteMs*float64(tp.ByteSize())
	}
	return ms
}

// stableSorted returns a copy of ts stable-sorted by the key columns ords,
// each descending where desc says so.
func stableSorted(ts []relation.Tuple, ords []int, desc []bool) []relation.Tuple {
	out := append([]relation.Tuple(nil), ts...)
	sort.SliceStable(out, func(i, j int) bool {
		for k, ord := range ords {
			cmp := out[i][ord].Compare(out[j][ord])
			if desc[k] {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return out
}

// refCases builds every reference case over the testCtx demo tables.
func refCases(t *testing.T) map[string]refCase {
	t.Helper()
	costs := DefaultCosts()
	seqs := demoTuples(t, "protein_sequences")
	ints := demoTuples(t, "protein_interactions")
	seqScan := func() Iterator { return &TableScan{Table: "protein_sequences"} }
	intScan := func() Iterator { return &TableScan{Table: "protein_interactions"} }
	cases := make(map[string]refCase)

	// scan → select (ORF != YAL00007C) → project (ORF).
	ne := func() scalar.Predicate {
		pred, err := scalar.Compare(
			scalar.Col(0, relation.TString, "ORF"), scalar.Ne,
			scalar.Const(relation.String("YAL00007C")))
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	var proj []relation.Tuple
	for _, tp := range seqs {
		if tp[0].AsString() != "YAL00007C" {
			proj = append(proj, relation.Tuple{tp[0]})
		}
	}
	cases["scan-select-project"] = refCase{
		mk: func() Iterator {
			return &Project{Child: &Select{Child: seqScan(), Pred: ne()}, Ords: []int{0}}
		},
		want: proj, ordered: true,
		wantMs: scanCostMs(costs, seqs) + costs.FilterMs*float64(len(seqs)) + costs.ProjectMs*float64(len(proj)),
	}

	// A single-match filter: Select must loop over many input batches
	// before one tuple survives.
	eq := func() scalar.Predicate {
		pred, err := scalar.Compare(
			scalar.Col(0, relation.TString, "ORF"), scalar.Eq,
			scalar.Const(relation.String(seqs[len(seqs)-1][0].AsString())))
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	cases["select-sparse"] = refCase{
		mk:   func() Iterator { return &Select{Child: seqScan(), Pred: eq()} },
		want: seqs[len(seqs)-1:], ordered: true,
		wantMs: scanCostMs(costs, seqs) + costs.FilterMs*float64(len(seqs)),
	}

	// Equi-join on ORF: every (sequence, interaction) pair with equal keys,
	// build columns first.
	var joined []relation.Tuple
	for _, s := range seqs {
		for _, i := range ints {
			if s[0].Equal(i[0]) {
				joined = append(joined, s.Concat(i))
			}
		}
	}
	cases["join"] = refCase{
		mk: func() Iterator {
			return &HashJoin{Build: seqScan(), Probe: intScan(), BuildKeys: []int{0}, ProbeKeys: []int{0}}
		},
		want: joined,
		wantMs: scanCostMs(costs, seqs) + scanCostMs(costs, ints) +
			costs.JoinBuildMs*float64(len(seqs)) + costs.JoinProbeMs*float64(len(ints)),
	}

	// COUNT(*) grouped by ORF1.
	counts := make(map[string]int64)
	var keys []relation.Value
	for _, tp := range ints {
		k := tp[0].AsString()
		if counts[k] == 0 {
			keys = append(keys, tp[0])
		}
		counts[k]++
	}
	var groups []relation.Tuple
	for _, k := range keys {
		groups = append(groups, relation.Tuple{k, relation.Int(counts[k.AsString()])})
	}
	cases["aggregate"] = refCase{
		mk: func() Iterator {
			return &HashAggregate{Child: intScan(), GroupOrds: []int{0},
				Kinds: []logical.AggKind{logical.AggCount}, ArgOrds: []int{-1}}
		},
		want:   groups,
		wantMs: scanCostMs(costs, ints) + costs.AggMs*float64(len(ints)) + costs.ProjectMs*float64(len(groups)),
	}

	// EntropyAnalyser(sequence) appended to every row.
	var called []relation.Tuple
	for _, tp := range seqs {
		h, err := ws.Entropy{}.Invoke([]relation.Value{tp[1]})
		if err != nil {
			t.Fatal(err)
		}
		called = append(called, append(append(relation.Tuple{}, tp...), h))
	}
	cases["operation-call"] = refCase{
		mk: func() Iterator {
			return &OperationCall{Fn: "EntropyAnalyser", ArgOrds: []int{1}, Child: seqScan()}
		},
		want: called, ordered: true,
		wantMs: scanCostMs(costs, seqs) + ws.DefaultEntropyCostMs*float64(len(seqs)),
	}

	// ORDER BY ORF DESC.
	cases["sort"] = refCase{
		mk: func() Iterator {
			return &Sort{Child: seqScan(), Ords: []int{0}, Desc: []bool{true}}
		},
		want: stableSorted(seqs, []int{0}, []bool{true}), ordered: true,
		wantMs: scanCostMs(costs, seqs) + costs.SortMs*float64(len(seqs)),
	}

	// ORDER BY ORF1 LIMIT 9: many ties, so the stable tie-break shows.
	cases["top-n"] = refCase{
		mk: func() Iterator {
			return &TopN{Child: intScan(), Ords: []int{0}, Desc: []bool{false}, N: 9}
		},
		want: stableSorted(ints, []int{0}, []bool{false})[:9], ordered: true,
		wantMs: scanCostMs(costs, ints) + costs.SortMs*float64(len(ints)),
	}

	// LIMIT 10: exactly the first ten rows are scanned and charged.
	cases["limit"] = refCase{
		mk:   func() Iterator { return &Limit{Child: seqScan(), N: 10} },
		want: seqs[:10], ordered: true,
		wantMs: scanCostMs(costs, seqs[:10]),
	}
	return cases
}

func TestBatchEquivalenceScanSelectProject(t *testing.T) {
	refCases(t)["scan-select-project"].check(t)
}

func TestBatchEquivalenceSmallBatches(t *testing.T) {
	// A sparse filter exercises Select's loop across input batches, which
	// at batch limit 1 runs once per filtered-out tuple.
	refCases(t)["select-sparse"].check(t)
}

func TestBatchEquivalenceJoin(t *testing.T) {
	c := refCases(t)["join"]
	if len(c.want) == 0 {
		t.Fatal("join oracle produced nothing")
	}
	// Batch limit 1 forces the join's pending-overflow path on every
	// multi-match probe tuple.
	c.check(t)
}

func TestBatchEquivalenceAggregate(t *testing.T) {
	refCases(t)["aggregate"].check(t)
}

func TestBatchEquivalenceOperationCall(t *testing.T) {
	refCases(t)["operation-call"].check(t)
}

func TestBatchEquivalenceSort(t *testing.T) {
	refCases(t)["sort"].check(t)
}

func TestBatchEquivalenceTopNLimit(t *testing.T) {
	cases := refCases(t)
	cases["top-n"].check(t)
	cases["limit"].check(t)
}

// TestBatchCostParity verifies batching does not change charged work: every
// operator bills exactly the sum of its per-tuple base costs, whatever the
// batch size.
func TestBatchCostParity(t *testing.T) {
	for name, c := range refCases(t) {
		c.checkCost(t, name)
	}
}

// countingSink records M1 emissions.
type countingSink struct{ m1 []M1Event }

func (s *countingSink) EmitM1(e M1Event) { s.m1 = append(s.m1, e) }
func (s *countingSink) EmitM2(M2Event)   {}

func TestBatchLimitClampsToMonitorWindow(t *testing.T) {
	ctx := testCtx()
	if got := batchLimit(ctx, 256); got != 256 {
		t.Fatalf("unmonitored batchLimit = %d, want 256", got)
	}
	ctx.Monitor = &countingSink{}
	ctx.MonitorEvery = 10
	if got := batchLimit(ctx, 256); got != 10 {
		t.Fatalf("monitored batchLimit = %d, want 10", got)
	}
	if got := batchLimit(ctx, 4); got != 4 {
		t.Fatalf("small-default batchLimit = %d, want 4", got)
	}
}
