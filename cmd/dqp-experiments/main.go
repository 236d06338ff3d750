// Command dqp-experiments regenerates EXPERIMENTS.md: it runs the full
// reproduction of the paper's evaluation — Table 1, Figs. 2–5, the overhead
// analysis, and the monitoring-frequency study — on the calibrated
// simulated Grid and writes the paper-vs-measured report.
//
// Usage:
//
//	dqp-experiments [-o EXPERIMENTS.md] [-only Table1,Fig2a]
//	dqp-experiments -micro BENCH_micro.json
//	dqp-experiments -serve BENCH_serving.json [-clients 16] [-duration 2s]
//	dqp-experiments -servegate BENCH_serving.json
//
// The full suite takes several minutes of real time: the simulated testbed
// actually executes every query, including the heavily perturbed static
// runs the paper measured.
//
// With -micro, the command instead runs the engine micro-benchmarks (tuple
// codec, exchange producer, serial and morsel-parallel operator chains,
// spill, stored scan, bus and monitoring overhead) and writes the results
// as JSON to the given file.
//
// With -serve, it runs the sustained-load serving benchmark — N concurrent
// clients firing repeated-shape queries for a fixed duration, once with the
// plan cache on and once off — and writes QPS, latency percentiles and cache
// hit rates as JSON. With -servegate, it reruns a short serving benchmark
// and fails if throughput or hit rate regresses against the recorded
// baseline (SKIP_BENCH_GATE=1 skips, as with -benchgate).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/microbench"
	"repro/internal/obs"
	"repro/internal/servebench"
)

func main() {
	out := flag.String("o", "EXPERIMENTS.md", "output file ('-' for stdout)")
	only := flag.String("only", "", "comma-separated experiment subset (Table1,Fig2a,Fig2b,Fig3a,Fig3b,Fig4,Fig5,Overheads,MonitoringFrequency,Recovery)")
	micro := flag.String("micro", "", "run the engine micro-benchmarks and write JSON results to this file ('-' for stdout), skipping the experiments")
	benchgate := flag.String("benchgate", "", "rerun the micro-benchmarks and exit non-zero if any ns_per_op regresses >25% against this baseline JSON (set SKIP_BENCH_GATE=1 to skip on noisy runners)")
	serve := flag.String("serve", "", "run the sustained-load serving benchmark (cache on vs off) and write JSON results to this file ('-' for stdout)")
	servegate := flag.String("servegate", "", "rerun a short serving benchmark and exit non-zero if QPS or cache hit rate regresses against this baseline JSON (SKIP_BENCH_GATE=1 skips)")
	clients := flag.Int("clients", 16, "concurrent clients for -serve / -servegate")
	duration := flag.Duration("duration", 2*time.Second, "load duration per -serve run")
	parallel := flag.Int("parallel", 0, "morsel worker-pool width per fragment driver (0/1 serial, negative = GOMAXPROCS)")
	metrics := flag.String("metrics", "", "HTTP listen address for /metrics and /timeline while the suite runs (e.g. :9090; empty disables)")
	memBudget := flag.Int64("mem-budget", 0, "per-query stateful-operator memory budget in bytes; operators spill past it (0 unbudgeted)")
	spillDir := flag.String("spill-dir", "", "directory for posix spill runs (empty spills to memory)")
	tableRows := flag.Int("table-rows", 0, "override protein_sequences cardinality for every run, scaling protein_interactions proportionally (0 keeps each experiment's own size)")
	tableBackend := flag.String("table-backend", "", "generate base tables as block-framed stored runs: 'memory', 'posix' (temp dir), or a posix directory path (empty keeps in-memory tables)")
	readahead := flag.Int("readahead", 0, "stored-scan readahead depth in blocks (0 default double buffering, negative synchronous)")
	flag.Parse()
	exp.DefaultParallelism = *parallel
	exp.DefaultMemoryBudget = *memBudget
	exp.DefaultSpillDir = *spillDir
	exp.DefaultTableRows = *tableRows
	exp.DefaultTableBackend = *tableBackend
	exp.DefaultScanReadahead = *readahead

	if *metrics != "" {
		srv, bound, err := obs.Serve(*metrics, obs.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "dqp-experiments: metrics listener: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability: http://%s/metrics and /timeline\n", bound)
	}

	if *micro != "" {
		if err := runMicro(*micro); err != nil {
			fmt.Fprintf(os.Stderr, "dqp-experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchgate != "" {
		ok, err := runBenchGate(*benchgate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dqp-experiments: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *serve != "" {
		if err := runServe(*serve, *clients, *duration); err != nil {
			fmt.Fprintf(os.Stderr, "dqp-experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *servegate != "" {
		ok, err := runServeGate(*servegate, *clients)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dqp-experiments: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	type builder struct {
		name string
		fn   func() (*exp.Experiment, error)
	}
	all := []builder{
		{"Table1", exp.Table1},
		{"Fig2a", exp.Fig2a},
		{"Fig2b", exp.Fig2b},
		{"Fig3a", exp.Fig3a},
		{"Fig3b", exp.Fig3b},
		{"Fig4", exp.Fig4},
		{"Fig5", exp.Fig5},
		{"Overheads", exp.Overheads},
		{"MonitoringFrequency", exp.MonitoringFrequency},
		{"Recovery", exp.Recovery},
		{"StoredStreaming", exp.StoredStreaming},
	}
	selected := all
	if *only != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(name))] = true
		}
		selected = nil
		for _, b := range all {
			if want[strings.ToLower(b.name)] {
				selected = append(selected, b)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "dqp-experiments: no experiment matches %q\n", *only)
			os.Exit(2)
		}
	}

	start := time.Now()
	var experiments []*exp.Experiment
	for _, b := range selected {
		fmt.Fprintf(os.Stderr, "running %-20s ... ", b.name)
		t0 := time.Now()
		e, err := b.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(t0).Round(time.Second))
		experiments = append(experiments, e)
	}
	report := exp.Report(experiments, time.Since(start))
	if *out == "-" {
		fmt.Print(report)
		return
	}
	if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dqp-experiments: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// runBenchGate reruns the micro-benchmarks and compares ns_per_op against
// the recorded baseline; regressions beyond the tolerance fail the gate.
func runBenchGate(baselinePath string) (bool, error) {
	if os.Getenv("SKIP_BENCH_GATE") != "" {
		fmt.Fprintln(os.Stderr, "bench gate: skipped (SKIP_BENCH_GATE set)")
		return true, nil
	}
	baseline, err := microbench.LoadBaseline(baselinePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(os.Stderr, "bench gate: rerunning micro-benchmarks ...")
	current := microbench.All()
	regs := microbench.Gate(baseline, current, microbench.DefaultGateTolerance)
	// A single testing.Benchmark measurement can come in 30%+ slow on a shared
	// runner; retry each flagged benchmark and keep its fastest time, so only a
	// reproducible slowdown fails the gate.
	for attempt := 0; attempt < 2 && len(regs) > 0; attempt++ {
		retried := make([]microbench.Result, 0, len(regs))
		for _, reg := range regs {
			fmt.Fprintf(os.Stderr, "bench gate: retrying %s (%.1f ns/op vs baseline %.1f)\n",
				reg.Name, reg.CurrentNs, reg.BaselineNs)
			r, ok := microbench.Run(reg.Name)
			if !ok {
				continue
			}
			if reg.CurrentNs < r.NsPerOp {
				r.NsPerOp = reg.CurrentNs
			}
			retried = append(retried, r)
		}
		regs = microbench.Gate(baseline, retried, microbench.DefaultGateTolerance)
	}
	// Scaling floors: the parallel variants must actually beat their serial
	// baselines when the runner has the cores for it. Skips (narrow runner,
	// missing measurement) are logged, never failed — a one-core runner
	// cannot demonstrate an eight-way speedup.
	fails, skipped := microbench.GateScaling(current, microbench.DefaultScalingChecks())
	for _, s := range skipped {
		fmt.Fprintf(os.Stderr, "bench gate: scaling check skipped: %s\n", s)
	}
	for attempt := 0; attempt < 2 && len(fails) > 0; attempt++ {
		byName := make(map[string]microbench.Result, len(current))
		for _, r := range current {
			byName[r.Name] = r
		}
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "bench gate: retrying %s vs %s (%.2fx speedup vs %.2fx floor)\n",
				f.Check.Parallel, f.Check.Serial, f.Speedup, f.Check.MinSpeedup)
			// Rerun the pair back to back so both sides see the same
			// instantaneous runner load — a serial measurement taken during a
			// quieter moment of the full sweep understates the speedup. Keep
			// whichever pair shows the better ratio, so only a reproducible
			// shortfall fails the gate.
			s, okS := microbench.Run(f.Check.Serial)
			p, okP := microbench.Run(f.Check.Parallel)
			if !okS || !okP || p.NsPerOp <= 0 {
				continue
			}
			if s.NsPerOp/p.NsPerOp > f.Speedup {
				byName[s.Name] = s
				byName[p.Name] = p
			}
		}
		current = current[:0]
		for _, r := range byName {
			current = append(current, r)
		}
		fails, _ = microbench.GateScaling(current, microbench.DefaultScalingChecks())
	}
	if len(regs) == 0 && len(fails) == 0 {
		fmt.Fprintf(os.Stderr, "bench gate: ok (%d benchmarks within %.0f%% of %s)\n",
			len(current), microbench.DefaultGateTolerance*100, baselinePath)
		return true, nil
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "bench gate: REGRESSION %s\n", r)
	}
	for _, f := range fails {
		fmt.Fprintf(os.Stderr, "bench gate: SCALING REGRESSION %s\n", f)
	}
	return false, nil
}

// runServe executes the sustained-load serving benchmark — the same workload
// with the plan cache on and off — and writes the paired results as JSON.
func runServe(path string, clients int, duration time.Duration) error {
	fmt.Fprintf(os.Stderr, "running serving benchmark: %d clients, %s per run (cache on, then off) ...\n",
		clients, duration)
	rep, err := servebench.Compare(servebench.Config{Clients: clients, Duration: duration})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cache on:  %8.0f qps  p50 %.2fms  p99 %.2fms  hit rate %.3f\n",
		rep.CacheOn.QPS, rep.CacheOn.P50Ms, rep.CacheOn.P99Ms, rep.CacheOn.HitRate)
	fmt.Fprintf(os.Stderr, "cache off: %8.0f qps  p50 %.2fms  p99 %.2fms\n",
		rep.CacheOff.QPS, rep.CacheOff.P50Ms, rep.CacheOff.P99Ms)
	fmt.Fprintf(os.Stderr, "speedup:   %.2fx\n", rep.Speedup)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// runServeGate reruns a short serving benchmark and compares it against the
// recorded baseline: the gate fails when cache-on throughput halves or the
// hit rate drops materially — either means the serving layer stopped serving
// from cache.
func runServeGate(baselinePath string, clients int) (bool, error) {
	if os.Getenv("SKIP_BENCH_GATE") != "" {
		fmt.Fprintln(os.Stderr, "serve gate: skipped (SKIP_BENCH_GATE set)")
		return true, nil
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return false, err
	}
	var baseline servebench.Report
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return false, fmt.Errorf("serve gate: parse %s: %w", baselinePath, err)
	}
	fmt.Fprintln(os.Stderr, "serve gate: rerunning sustained-load benchmark ...")
	cur, err := servebench.Run(servebench.Config{Clients: clients, Duration: time.Second})
	if err != nil {
		return false, err
	}
	const qpsFloorFrac, hitSlack = 0.5, 0.05
	ok := true
	if floor := baseline.CacheOn.QPS * qpsFloorFrac; cur.QPS < floor {
		fmt.Fprintf(os.Stderr, "serve gate: REGRESSION qps %.0f < floor %.0f (baseline %.0f)\n",
			cur.QPS, floor, baseline.CacheOn.QPS)
		ok = false
	}
	if floor := baseline.CacheOn.HitRate - hitSlack; cur.HitRate < floor {
		fmt.Fprintf(os.Stderr, "serve gate: REGRESSION hit rate %.3f < floor %.3f (baseline %.3f)\n",
			cur.HitRate, floor, baseline.CacheOn.HitRate)
		ok = false
	}
	if cur.Errors > 0 {
		fmt.Fprintf(os.Stderr, "serve gate: REGRESSION %d/%d queries errored\n", cur.Errors, cur.Queries)
		ok = false
	}
	if ok {
		fmt.Fprintf(os.Stderr, "serve gate: ok (%.0f qps, hit rate %.3f vs baseline %.0f qps, %.3f)\n",
			cur.QPS, cur.HitRate, baseline.CacheOn.QPS, baseline.CacheOn.HitRate)
	}
	return ok, nil
}

// runMicro executes the micro-benchmark suite and writes the results as
// indented JSON, one object per benchmark.
func runMicro(path string) error {
	fmt.Fprintln(os.Stderr, "running micro-benchmarks (this takes ~30s) ...")
	results := microbench.All()
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
