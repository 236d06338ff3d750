// Command perfbench is the repository benchmark: it drives whole queries
// through the public entry points (services.GDQS.Execute in process and
// services.RemoteCoordinator.Execute over loopback TCP) in closed loops,
// checks every result against a plain-Go reference, and prints end-to-end
// metrics — or, with -trace 1, per-layer metrics from spans the benchmark
// records around its own calls into each layer.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload join_agg --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seconds 20
//
// The last line of standard output is the JSON result; the line before it
// records the host, the seed and the source tree. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// setupRepeats is how many times a run sets the workload up; setup_s is the
// median. Only the last system is measured.
const setupRepeats = 7

// watchdog ends a run that hangs, well inside the three minutes a run may
// take.
const watchdog = 170 * time.Second

// Default locations, relative to the repository root the benchmark runs
// from; both are ignored by git.
const (
	defaultWork   = ".bench_build/work"
	defaultTraces = ".bench_build/traces"
)

// options configure one run. perClient, workDir and traceDir are set only by
// the tests; the binary always runs for seconds and uses the default
// locations.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	perClient int
	workDir   string
	traceDir  string
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{workDir: defaultWork, traceDir: defaultTraces}
	var traceFlag int
	describe := fs.Bool("describe", false, "print every workload's configuration and the metric definitions as JSON")
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: tables and literals are generated from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if *describe {
		return printDescription(stdout, stderr)
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	s := lookupSpec(o.workload)
	if s == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s or all)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	t := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", s.Name, watchdog)
		os.Exit(4)
	})
	defer t.Stop()
	res, err := runWorkload(s, o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", s.Name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 3
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostRecord is printed before the result so every result carries where and
// from what it was measured.
type hostRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	TableSeed  int64   `json:"table_seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	TreeDigest string  `json:"tree_digest"`
	// LowCores flags a run whose GOMAXPROCS is below the workload's width:
	// its numbers are not comparable with runs that had the cores.
	LowCores bool `json:"low_cores"`
	// Samples is the number of latency samples; BeyondTail how many lie
	// above the reported tail percentile.
	Samples        int       `json:"samples"`
	TailPercentile float64   `json:"tail_percentile"`
	BeyondTail     int       `json:"beyond_tail"`
	ErrorRatio     float64   `json:"error_ratio"`
	SetupS         []float64 `json:"setup_s"`
	// PerSecond counts the queries completed in each second of the run.
	PerSecond []int    `json:"per_second"`
	Failures  []string `json:"failures,omitempty"`
}

func runWorkload(s *spec, o options, stdout, stderr io.Writer) (*result, error) {
	// Pin the environment: these variables would silently change the
	// configuration of every GDQS the benchmark builds.
	for _, v := range []string{"GRIDDQP_FORCE_MEM_BUDGET", "GRIDDQP_FORCE_PARALLEL"} {
		if err := os.Unsetenv(v); err != nil {
			return nil, err
		}
	}
	work := filepath.Join(o.workDir, fmt.Sprintf("%s-%d", s.Name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	sys, tbl, qs, setup, err := setUp(s, o.seed, work)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	dur := time.Duration(o.seconds * float64(time.Second))
	var (
		metrics map[string]float64
		units   []metricDef
		loops   []*loopResult
		shown   *loopResult
	)
	if !o.trace {
		r := closedLoop(s, sys, qs, phase{dur: dur, perClient: o.perClient}, nil)
		metrics, units, loops, shown = endToEndMetrics(s, r, setup), endToEnd, []*loopResult{r}, r
	} else {
		// Untraced, traced, untraced: the traced half sits between two
		// untraced quarters, so a drift of the program over the run (its
		// heap grows with every query) cancels out of the tracing overhead.
		quarter := phase{dur: dur / 4, perClient: o.perClient}
		before := closedLoop(s, sys, qs, quarter, nil)
		tr := newTracer(s, sys, tbl)
		traced := closedLoop(s, sys, qs, phase{dur: dur / 2, perClient: o.perClient}, tr)
		after := closedLoop(s, sys, qs, quarter, nil)
		metrics, units, shown = layerMetrics(tr, traced, before, after), perLayer, traced
		loops = []*loopResult{before, traced, after}
		defer func() {
			if werr := writeTraceFile(o, s, tr); werr != nil {
				fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", werr)
			}
		}()
	}

	res := &result{Metrics: map[string]metricValue{}}
	var failures []string
	for _, l := range loops {
		res.Attempted += l.attempted
		res.Failed += l.failed
		failures = append(failures, l.failures...)
	}
	res.Correct = res.Failed == 0
	for _, m := range units {
		v, ok := metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}

	host := newHostRecord(s, o)
	host.Samples = len(shown.latMs)
	host.TailPercentile = s.TailPercentile
	tail := percentile(append([]float64(nil), shown.latMs...), s.TailPercentile)
	for _, l := range shown.latMs {
		if l > tail {
			host.BeyondTail++
		}
	}
	host.ErrorRatio = ratio(float64(res.Failed), float64(res.Attempted))
	host.SetupS = setup
	host.PerSecond = perSecond(shown)
	host.Failures = failures
	if host.LowCores {
		fmt.Fprintf(stderr, "perfbench: WARNING: GOMAXPROCS=%d is below %s's width %d; do not compare this run with runs that had the cores\n",
			host.GoMaxProcs, s.Name, s.Width)
	}
	printSummary(stderr, s, host, res)
	if err := json.NewEncoder(stdout).Encode(map[string]any{"host": host}); err != nil {
		return nil, err
	}
	return res, nil
}

// setUp builds the workload setupRepeats times — table generation
// (including writing stored tables), cluster or TCP deployment, and warm-up
// queries — and returns the last system with the set-up times in seconds.
// The reference rows come from a separate, untimed generation.
func setUp(s *spec, seed int64, work string) (system, *tables, [][]query, []float64, error) {
	ref := genTables(s, seed)
	qs, err := buildQueries(s, ref, seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var setup []float64
	for r := 0; r < setupRepeats; r++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", r))
		// Each set-up starts from a fresh metrics registry, so no set-up
		// pays for the registry entries an earlier one left behind.
		obs.SetDefault(obs.New())
		t0 := time.Now()
		t := ref
		if s.Tables == "stored" {
			t = &tables{seqs: ref.seqs, ints: ref.ints}
			err = writeStored(s, seed, t)
		} else {
			t = genTables(s, seed)
		}
		if err != nil {
			return nil, nil, nil, nil, err
		}
		sys, err := newSystem(s, t, dir)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		for i := 0; i < s.Warmup; i++ {
			if _, err := checkedExecute(sys, qs[0][i%len(qs[0])]); err != nil {
				sys.close()
				return nil, nil, nil, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
		if r == setupRepeats-1 {
			return sys, t, qs, setup, nil
		}
		sys.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	panic("unreachable")
}

func newHostRecord(s *spec, o options) hostRecord {
	h := hostRecord{
		Workload:   s.Name,
		Seed:       o.seed,
		TableSeed:  s.tableSeed(o.seed),
		Trace:      o.trace,
		Seconds:    o.seconds,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		TreeDigest: treeDigest("."),
	}
	h.LowCores = h.GoMaxProcs < s.Width
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				h.Commit = kv.Value
			}
		}
	}
	return h
}

// treeDigest hashes the Go sources and module files under root (skipping
// dot-directories), identifying the measured code when no VCS is present.
func treeDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func printSummary(w io.Writer, s *spec, h hostRecord, res *result) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v gomaxprocs=%d samples=%d p%g(beyond=%d) attempted=%d failed=%d error_ratio=%g\n",
		s.Name, h.Seed, h.Trace, h.GoMaxProcs, h.Samples, h.TailPercentile, h.BeyondTail, res.Attempted, res.Failed, h.ErrorRatio)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, f := range h.Failures {
		fmt.Fprintf(w, "  FAILURE: %s\n", f)
	}
}

func writeTraceFile(o options, s *spec, tr *tracer) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", s.Name, o.seed)))
	if err != nil {
		return err
	}
	if err := tr.writeTrace(f, map[string]any{"host": newHostRecord(s, o)}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func workloadNames() string {
	var names []string
	for _, s := range workloads {
		names = append(names, s.Name)
	}
	return strings.Join(names, ", ")
}

// description is what -describe prints (committed as workloads.json).
type description struct {
	SetupRepeats int         `json:"setup_repeats"`
	Workloads    []*spec     `json:"workloads"`
	EndToEnd     []metricDef `json:"end_to_end"`
	PerLayer     []metricDef `json:"per_layer"`
}

func printDescription(stdout, stderr io.Writer) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(description{SetupRepeats: setupRepeats, Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer}); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, one after another, so no
// workload's memory peak or goroutines leak into another's, and prints one
// line per workload with every metric and its unit.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	code := 0
	for _, s := range workloads {
		args := []string{"--workload", s.Name, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
			"--trace", map[bool]string{false: "0", true: "1"}[o.trace]}
		cmd := exec.Command(self, args...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || jerr != nil {
			fmt.Fprintf(stdout, "%-20s FAILED (%v)\n", s.Name, err)
			code = 1
			continue
		}
		var parts []string
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s=%.4g%s", n, res.Metrics[n].Value, res.Metrics[n].Unit))
		}
		fmt.Fprintf(stdout, "%-20s correct=%v error_ratio=%g %s\n", s.Name, res.Correct,
			ratio(float64(res.Failed), float64(res.Attempted)), strings.Join(parts, " "))
	}
	return code
}
