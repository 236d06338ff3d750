package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/relation"
)

// A fingerprint summarises a multiset of rows: the row count plus two
// order-independent sums of per-row hashes. Two row multisets with equal
// fingerprints are equal except with negligible probability; computing one
// allocates nothing, so checking every result costs little next to a query.
type fingerprint struct {
	rows    int
	sum, sq uint64
}

func (f *fingerprint) add(t relation.Tuple) {
	h := hashRow(t)
	f.rows++
	f.sum += h
	f.sq += mix(h ^ 0x9e3779b97f4a7c15)
}

func fingerprintOf(rows []relation.Tuple) fingerprint {
	var f fingerprint
	for _, t := range rows {
		f.add(t)
	}
	return f
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashRow hashes a row's values with their types, FNV-1a style.
func hashRow(t relation.Tuple) uint64 {
	h := uint64(fnvOffset)
	byteIn := func(b byte) { h = (h ^ uint64(b)) * fnvPrime }
	wordIn := func(w uint64) {
		for i := 0; i < 8; i++ {
			byteIn(byte(w >> (8 * i)))
		}
	}
	for _, v := range t {
		byteIn(byte(v.Type()))
		switch v.Type() {
		case relation.TInt:
			wordIn(uint64(v.AsInt()))
		case relation.TFloat:
			wordIn(math.Float64bits(v.AsFloat()))
		case relation.TString:
			s := v.AsString()
			wordIn(uint64(len(s)))
			for i := 0; i < len(s); i++ {
				byteIn(s[i])
			}
		}
	}
	return mix(h)
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// query is one statement a client sends, with the reference fingerprint of
// its rows, the reference rows themselves (for the report of a mismatch) and
// the number of base-table rows it reads.
type query struct {
	sql      string
	want     fingerprint
	ref      []relation.Tuple
	baseRows int64
}

// The reference evaluators below compute each statement over the generated
// tables in plain Go, independently of the engine.

// joinAggRows evaluates joinAggSQL.
func joinAggRows(t *tables) []relation.Tuple {
	counts := map[string]int64{}
	for _, i := range t.ints.Tuples {
		counts[i[0].AsString()]++
	}
	var out []relation.Tuple
	for _, p := range t.seqs.Tuples {
		orf := p[0].AsString()
		if n := counts[orf]; n > 0 {
			out = append(out, relation.Tuple{relation.String(orf), relation.Int(n)})
		}
	}
	return out
}

// pointRows returns the rows of a point lookup of key on column 0 of rows.
func pointRows(rows []relation.Tuple, key string) []relation.Tuple {
	var out []relation.Tuple
	for _, r := range rows {
		if r[0].AsString() == key {
			out = append(out, r)
		}
	}
	return out
}

// pointLiterals is how many distinct lookups serve_point cycles through.
const pointLiterals = 512

// buildQueries returns each client's statement sequence. Join workloads
// repeat one statement; serve_point alternates the two lookup shapes with
// keys drawn from the seed, each client from its own stream.
func buildQueries(s *spec, t *tables, seed int64) ([][]query, error) {
	out := make([][]query, s.Clients)
	switch s.Statements[0] {
	case joinAggSQL:
		rows := joinAggRows(t)
		q := query{sql: s.Statements[0], want: fingerprintOf(rows), ref: rows, baseRows: s.baseRowsPerQuery(0)}
		for c := range out {
			out[c] = []query{q}
		}
	case pointSeqSQL:
		for c := range out {
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			qs := make([]query, pointLiterals)
			for i := range qs {
				var src []relation.Tuple
				if i%2 == 0 {
					src = t.seqs.Tuples
				} else {
					src = t.ints.Tuples
				}
				key := src[rng.Intn(len(src))][0].AsString()
				rows := pointRows(src, key)
				qs[i] = query{
					sql:      fmt.Sprintf(s.Statements[i%2], key),
					want:     fingerprintOf(rows),
					ref:      rows,
					baseRows: s.baseRowsPerQuery(i),
				}
			}
			out[c] = qs
		}
	default:
		return nil, fmt.Errorf("no reference for statement %q", s.Statements[0])
	}
	return out, nil
}

// diffRows describes how got differs from want as multisets, for the error
// report of a mismatching result.
func diffRows(got, want []relation.Tuple) string {
	count := map[string]int{}
	for _, r := range want {
		count[r.Format()]++
	}
	for _, r := range got {
		count[r.Format()]--
	}
	var diffs []string
	for k, n := range count {
		if n != 0 {
			diffs = append(diffs, fmt.Sprintf("%s x%+d", k, -n))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 5 {
		diffs = append(diffs[:5], fmt.Sprintf("... %d more", len(diffs)-5))
	}
	return fmt.Sprintf("got %d rows, want %d; differences (got-want): %v", len(got), len(want), diffs)
}
