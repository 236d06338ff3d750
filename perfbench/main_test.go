package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/relation"
)

// TestDescriptionCommitted keeps workloads.json identical to -describe.
func TestDescriptionCommitted(t *testing.T) {
	var buf bytes.Buffer
	if code := printDescription(&buf, os.Stderr); code != 0 {
		t.Fatalf("describe exited %d", code)
	}
	want, err := os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("workloads.json is stale; regenerate it with: go run . -describe > workloads.json")
	}
}

// benchmarkFile is the part of BENCHMARK.json this package defines.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

// TestBenchmarkFileMatches checks that the repository's BENCHMARK.json lists
// workloads and metrics exactly as this program defines and reports them.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range f.Workloads {
		listed[w.Name] = true
		s := lookupSpec(w.Name)
		if s == nil {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		} else if s.Why != w.Why {
			t.Errorf("workload %s: why differs:\n file: %s\n code: %s", w.Name, w.Why, s.Why)
		}
	}
	for _, s := range workloads {
		if !listed[s.Name] {
			t.Errorf("workload %s is not listed in BENCHMARK.json", s.Name)
		}
	}
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d defined", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i].Name != code[i].Name || file[i].Unit != code[i].Unit || file[i].Better != code[i].Better {
				t.Errorf("%s %d: file %+v, code %s/%s/%s", kind, i, file[i], code[i].Name, code[i].Unit, code[i].Better)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

// TestReferenceFingerprint checks the multiset fingerprint the results are
// compared by: order does not matter, multiplicity and values do.
func TestReferenceFingerprint(t *testing.T) {
	s := lookupSpec("join_agg")
	small := *s
	small.Sequences, small.Interactions = 50, 80
	tb := genTables(&small, 3)
	rows := joinAggRows(tb)
	rev := make([]int, len(rows))
	for i := range rev {
		rev[i] = len(rows) - 1 - i
	}
	reordered := make([]relation.Tuple, 0, len(rows))
	for _, i := range rev {
		reordered = append(reordered, rows[i])
	}
	if fingerprintOf(rows) != fingerprintOf(reordered) {
		t.Fatal("fingerprint depends on row order")
	}
	if fingerprintOf(rows) == fingerprintOf(append(reordered, rows[0])) {
		t.Fatal("fingerprint ignores a duplicated row")
	}
	if fingerprintOf(rows) == fingerprintOf(reordered[1:]) {
		t.Fatal("fingerprint ignores a missing row")
	}
}

// TestExactCounts runs every workload's traced run twice at one seed with a
// fixed number of queries and finds which per-layer metrics repeat exactly.
// Every metric marked Exact must be among them; the log lists all that
// repeated, which is how the marks were chosen.
func TestExactCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, s := range workloads {
		t.Run(s.Name, func(t *testing.T) {
			run := func() map[string]metricValue {
				var out, errs bytes.Buffer
				o := options{workload: s.Name, seed: 1, trace: true, perClient: 3,
					workDir: t.TempDir(), traceDir: t.TempDir()}
				res, err := runWorkload(s, o, &out, &errs)
				if err != nil {
					t.Fatalf("%v\n%s", err, errs.String())
				}
				if !res.Correct {
					t.Fatalf("run failed:\n%s", errs.String())
				}
				return res.Metrics
			}
			a, b := run(), run()
			var repeated []string
			for _, m := range perLayer {
				if a[m.Name].Value == b[m.Name].Value {
					repeated = append(repeated, m.Name)
				} else if m.Exact {
					t.Errorf("%s is marked exact but read %v then %v", m.Name, a[m.Name].Value, b[m.Name].Value)
				}
			}
			t.Logf("repeated exactly: %s", strings.Join(repeated, " "))
		})
	}
}
