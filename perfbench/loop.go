package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/services"
)

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	latMs                []float64
	done                 []completion
	attempted, failed    int64
	ok                   int64
	elapsed              time.Duration
	usage                []usage
	goroutinesLeaked     int
	failures             []string
	rtBefore, rtAfter    rtSnapshot
	obsBefore, obsAfter  obsSnapshot
	inflightEnd, openEnd int64
}

// completion is one correct query: when it finished, in seconds after the
// run started, and how many base-table rows it read.
type completion struct {
	at   float64
	rows int64
}

// maxFailureNotes bounds how many failure descriptions a run keeps.
const maxFailureNotes = 8

func (r *loopResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// phase bounds one closed loop: it ends at the deadline, or — when perClient
// is positive — after each client has completed that many queries.
type phase struct {
	dur       time.Duration
	perClient int
}

// closedLoop runs every client until the phase ends: each client sends its
// next statement only after the previous one returned. Every result is
// checked against the reference; after the loop the hygiene checks run from
// outside the program.
func closedLoop(s *spec, sys system, qs [][]query, ph phase, tr *tracer) *loopResult {
	res := &loopResult{}
	baseline := settledGoroutines(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	runtime.GC()
	res.obsBefore = snapshotObs()
	res.rtBefore = readRuntime()
	start := time.Now()
	deadline := start.Add(ph.dur)
	smp := startSampler(start, sampleEvery)

	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < s.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			local := &loopResult{}
			lat := make([]float64, 0, 1024)
			var done []completion
			for i := 0; ; i++ {
				if ph.perClient > 0 {
					if i >= ph.perClient {
						break
					}
				} else if !time.Now().Before(deadline) {
					break
				}
				q := qs[c][i%len(qs[c])]
				local.attempted++
				var span *openSpan
				if tr != nil {
					span = tr.startQuery()
				}
				t0 := time.Now()
				out, err := sys.execute(ctx, q.sql)
				d := time.Since(t0)
				if tr != nil {
					tr.endExecute(span, t0, d, out)
				}
				if err != nil {
					local.fail("%s: %v", q.sql, err)
				} else if got := fingerprintOf(out.Rows); got != q.want {
					local.fail("%s: wrong rows: %s", q.sql, diffRows(out.Rows, q.ref))
				} else if s.ZeroAdaptations && out.Stats.Adaptations != 0 {
					local.fail("%s: %d adaptations in a workload pinned to none", q.sql, out.Stats.Adaptations)
				} else {
					local.ok++
					lat = append(lat, float64(d)/float64(time.Millisecond))
					done = append(done, completion{at: time.Since(start).Seconds(), rows: q.baseRows})
				}
				if tr != nil {
					if err := tr.finishQuery(span, q.sql, out); err != nil {
						local.fail("%s: traced: %v", q.sql, err)
					}
				}
			}
			mu.Lock()
			res.attempted += local.attempted
			res.failed += local.failed
			res.ok += local.ok
			res.latMs = append(res.latMs, lat...)
			res.done = append(res.done, done...)
			for _, f := range local.failures {
				if len(res.failures) < maxFailureNotes {
					res.failures = append(res.failures, f)
				}
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.usage = smp.finish()
	res.rtAfter = readRuntime()
	res.obsAfter = snapshotObs()
	sort.Slice(res.done, func(i, j int) bool { return res.done[i].at < res.done[j].at })
	hygiene(sys, res, baseline)
	return res
}

// hygiene checks, from outside the program, that a run left nothing behind:
// the in-flight memory and open-session gauges are back to zero, no query
// runs remain on any spill backend, and the goroutine count returns to its
// pre-run baseline. Each check is one attempted operation; each violation
// is a failure.
func hygiene(sys system, res *loopResult, baseline int) {
	res.inflightEnd = gauge(obs.MMemInflight)
	res.openEnd = gauge(obs.MSessionsOpen)
	res.attempted += 4
	if res.inflightEnd != 0 {
		res.fail("hygiene: %s is %d after the run", obs.MMemInflight, res.inflightEnd)
	}
	if res.openEnd != 0 {
		res.fail("hygiene: %s is %d after the run", obs.MSessionsOpen, res.openEnd)
	}
	var left []string
	for _, b := range sys.spillBackends() {
		names, err := b.List()
		if err != nil {
			res.fail("hygiene: list %s: %v", b.Name(), err)
			continue
		}
		for _, n := range names {
			if isQueryRun(n) {
				left = append(left, b.Name()+"/"+n)
			}
		}
	}
	if len(left) > 0 {
		res.fail("hygiene: %d query runs left on spill backends, e.g. %s", len(left), left[0])
	}
	after := settledGoroutines(baseline)
	res.goroutinesLeaked = after - baseline
	if after > baseline {
		res.fail("hygiene: %d goroutines after the run, %d before", after, baseline)
	}
}

// isQueryRun reports whether a run name is in a query's "q<N>." namespace.
func isQueryRun(name string) bool {
	if len(name) < 3 || name[0] != 'q' {
		return false
	}
	i := 1
	for i < len(name) && name[i] >= '0' && name[i] <= '9' {
		i++
	}
	return i > 1 && i < len(name) && name[i] == '.'
}

// settledGoroutines waits up to two seconds for the goroutine count to fall
// to target (any count when target is 0, after a short settle) and returns
// the last count seen.
func settledGoroutines(target int) int {
	n := runtime.NumGoroutine()
	for wait := time.Now().Add(2 * time.Second); time.Now().Before(wait); {
		if target > 0 && n <= target {
			return n
		}
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if target == 0 && m == n {
			return n
		}
		n = m
	}
	return n
}

// perSecond counts the ok queries completed in each whole second of a run.
func perSecond(r *loopResult) []int {
	out := make([]int, int(r.elapsed.Seconds()))
	for _, c := range r.done {
		if i := int(c.at); i < len(out) {
			out[i]++
		}
	}
	return out
}

// Rates, per-query costs and the memory peak are medians over blocks of
// consecutive queries: the run's completions, in time order, are cut into
// blocks of equal query count, and each block's rate, cost and peak RSS come
// from the time it spanned and the resource use sampled across it. A median over blocks
// keeps a short stall — a long garbage-collection cycle, a query that
// spilled far more than usual, a noisy neighbour — from moving the figure.
const (
	blocks      = 10
	sampleEvery = 10 * time.Millisecond
)

type blockCosts struct {
	qps, rowsPerS, cpuMs, allocs, allocBytes float64
	peakRSS                                  float64
}

func blockMedians(r *loopResult) blockCosts {
	n := len(r.done)
	k := max(n/blocks, 1)
	var qps, rows, cpu, allocs, bytes, rss []float64
	prev := 0.0
	for b := 0; (b+1)*k <= n; b++ {
		blk := r.done[b*k : (b+1)*k]
		end := blk[len(blk)-1].at
		dt := end - prev
		var rs int64
		for _, c := range blk {
			rs += c.rows
		}
		u0, u1 := usageAt(r.usage, prev), usageAt(r.usage, end)
		if dt > 0 {
			qps = append(qps, float64(k)/dt)
			rows = append(rows, float64(rs)/dt)
		}
		cpu = append(cpu, (u1.cpuMs-u0.cpuMs)/float64(k))
		allocs = append(allocs, (u1.allocs-u0.allocs)/float64(k))
		bytes = append(bytes, (u1.allocBytes-u0.allocBytes)/float64(k))
		var peak int64
		for _, u := range r.usage {
			if u.at >= prev && u.at <= end {
				peak = max(peak, u.rss)
			}
		}
		rss = append(rss, float64(max(peak, u1.rss)))
		prev = end
	}
	return blockCosts{median(qps), median(rows), median(cpu), median(allocs), median(bytes), median(rss)}
}

// endToEndMetrics derives the end-to-end metrics of one untraced phase.
func endToEndMetrics(s *spec, r *loopResult, setup []float64) map[string]float64 {
	lat := append([]float64(nil), r.latMs...)
	b := blockMedians(r)
	return map[string]float64{
		"latency_p50_ms":        percentile(lat, 50),
		"latency_tail_ms":       percentile(lat, s.TailPercentile),
		"queries_per_s":         b.qps,
		"rows_per_s":            b.rowsPerS,
		"cpu_ms_per_query":      b.cpuMs,
		"allocs_per_query":      b.allocs,
		"alloc_bytes_per_query": b.allocBytes,
		"peak_rss_mb":           b.peakRSS / (1 << 20),
		"setup_s":               median(setup),
	}
}

// checkedExecute runs one statement and checks it against the reference;
// set-up uses it for warm-up queries.
func checkedExecute(sys system, q query) (*services.QueryResult, error) {
	out, err := sys.execute(context.Background(), q.sql)
	if err != nil {
		return nil, err
	}
	if fingerprintOf(out.Rows) != q.want {
		return nil, fmt.Errorf("%s: wrong rows: %s", q.sql, diffRows(out.Rows, q.ref))
	}
	return out, nil
}
