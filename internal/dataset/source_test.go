package dataset

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// drainTable reads a stored table block by block, decoding each block's
// tuples in storage order.
func drainTable(t *testing.T, tbl *Table) []relation.Tuple {
	t.Helper()
	r, ok, err := tbl.OpenBlocks()
	if err != nil || !ok {
		t.Fatalf("OpenBlocks: ok=%v err=%v", ok, err)
	}
	defer r.Close()
	var out []relation.Tuple
	for i := 0; i < r.Blocks(); i++ {
		data, err := r.ReadBlock(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		n, rest, err := relation.TupleCount(data)
		if err != nil {
			t.Fatal(err)
		}
		for ; n > 0; n-- {
			var tp relation.Tuple
			if tp, rest, err = relation.DecodeTuple(rest); err != nil {
				t.Fatal(err)
			}
			out = append(out, tp)
		}
	}
	return out
}

func TestStoredTablesMatchInMemoryGenerators(t *testing.T) {
	backend := storage.NewMemory()
	defer backend.Close()

	memSeqs := ProteinSequences(200, 7)
	stored, err := WriteProteinSequences(backend, "tables/seqs", 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !stored.Stored() || memSeqs.Stored() {
		t.Fatal("Stored() misreports representation")
	}
	if stored.Cardinality() != memSeqs.Cardinality() {
		t.Fatalf("cardinality %d != %d", stored.Cardinality(), memSeqs.Cardinality())
	}
	got := drainTable(t, stored)
	for i := range memSeqs.Tuples {
		if !memSeqs.Tuples[i].Equal(got[i]) {
			t.Fatalf("sequence %d diverged: %v vs %v", i, memSeqs.Tuples[i].Format(), got[i].Format())
		}
	}

	memInts := ProteinInteractions(300, 200, 7)
	storedInts, err := WriteProteinInteractions(backend, "tables/ints", 300, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	gotInts := drainTable(t, storedInts)
	if len(gotInts) != 300 {
		t.Fatalf("read %d interactions", len(gotInts))
	}
	for i := range memInts.Tuples {
		if !memInts.Tuples[i].Equal(gotInts[i]) {
			t.Fatalf("interaction %d diverged", i)
		}
	}
	if storedInts.AvgTupleBytes() == 0 {
		t.Fatal("stored table lost its byte statistics")
	}
}

func TestStoredTableOnPosixBackend(t *testing.T) {
	backend, err := storage.NewPosix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	stored, err := WriteProteinSequences(backend, "seqs", 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	mem := ProteinSequences(50, 3)
	got := drainTable(t, stored)
	for i := range mem.Tuples {
		if !mem.Tuples[i].Equal(got[i]) {
			t.Fatalf("tuple %d diverged on posix", i)
		}
	}
	// A second independent reader re-reads from the start.
	again := drainTable(t, stored)
	if len(again) != 50 {
		t.Fatalf("second reader read %d tuples", len(again))
	}
}

func TestInMemoryTableHasNoBlocks(t *testing.T) {
	r, ok, err := ProteinSequences(10, 1).OpenBlocks()
	if r != nil || ok || err != nil {
		t.Fatalf("in-memory OpenBlocks = %v, %v, %v; want nil, false, nil", r, ok, err)
	}
}
