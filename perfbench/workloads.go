package main

// Workload and metric definitions. Everything a run does is fixed here and
// printed by -describe (committed as workloads.json), so a result can always
// be traced back to its exact configuration.

// The two statements of the join workloads.
const (
	// joinAggSQL counts each protein's interactions: a stateful hash join
	// feeding a hash aggregate and a sort at the collection site.
	joinAggSQL = "select p.ORF, count(*) AS n from protein_sequences p, protein_interactions i" +
		" where i.ORF1 = p.ORF group by p.ORF order by p.ORF"
	// Point-lookup shapes of serve_point; %s is a literal drawn from the seed.
	pointSeqSQL = "select p.ORF, p.sequence from protein_sequences p where p.ORF = '%s'"
	pointIntSQL = "select i.ORF1, i.ORF2 from protein_interactions i where i.ORF1 = '%s'"
)

// spec is one workload's full configuration. Every workload runs the native
// profile, which removes modelled cost from outside: tiny nonzero Costs (a
// zero Costs is silently replaced by the defaults), a 1 ns paper
// millisecond, loopback links and no modelled planning cost.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Clients closed-loop clients, each waiting for its previous query.
	Clients int `json:"clients"`
	// Width is the fragment drivers' morsel worker-pool width (1 = serial).
	Width int `json:"width"`
	// Transport is "inproc" (services.GDQS) or "tcp" (RemoteCoordinator and
	// three Evaluators over loopback TCP in this process).
	Transport string `json:"transport"`
	// Sequences and Interactions size the two generated tables.
	Sequences    int `json:"sequences"`
	Interactions int `json:"interactions"`
	// Tables is "memory" (in-memory slices) or "stored" (block-framed runs
	// written to a memory storage backend during set-up).
	Tables string `json:"tables"`
	// FixedSeed means the tables ignore --seed (a Manifest generates its
	// tables from seed 1).
	FixedSeed bool `json:"fixed_seed"`
	Adaptive  bool `json:"adaptive"`
	// Response and MonitorEvery configure adaptivity (assessment is A1).
	Response     string `json:"response,omitempty"`
	MonitorEvery int    `json:"monitor_every,omitempty"`
	PlanCache    bool   `json:"plan_cache"`
	// BudgetDivisor sets the per-query memory budget to the stored table
	// bytes divided by it, spilling to the memory storage backend (0 = no
	// budget).
	BudgetDivisor int64    `json:"budget_divisor,omitempty"`
	Statements    []string `json:"statements"`
	// Warmup queries run after each set-up, inside the timed set-up, so
	// caches, connections and lazily built state are ready before the
	// measured loop; serve_point runs its first client's literal cycle 16 times.
	Warmup int `json:"warmup"`
	// ZeroAdaptations asserts that no query adapts: real-cost numbers must
	// not contain modelled sleeps or chance rebalancing.
	ZeroAdaptations bool `json:"zero_adaptations"`
	// TailPercentile is the percentile reported as latency_tail_ms: the
	// highest of p99, p90, p75 and p50 with comfortably more than ten
	// samples beyond it at the fixed run length (see SamplesPerRun).
	TailPercentile float64 `json:"tail_percentile"`
	// SamplesPerRun is the median number of latency samples in one 20 s run
	// on a 2-core x86-64 host (go1.24, GOMAXPROCS=2) when the benchmark was
	// defined; it justifies TailPercentile.
	SamplesPerRun int `json:"samples_per_run"`
}

// baseRowsPerQuery is how many base-table rows statement i reads.
func (s *spec) baseRowsPerQuery(i int) int64 {
	switch s.Name {
	case "serve_point":
		if i%2 == 0 {
			return int64(s.Sequences)
		}
		return int64(s.Interactions)
	default:
		return int64(s.Sequences + s.Interactions)
	}
}

var workloads = []*spec{
	{
		Name:      "join_agg",
		Why:       "native join+count: operators, exchanges, recovery log and monitoring do the work; compilation is cached after the first query",
		Clients:   1,
		Width:     2,
		Transport: "inproc",
		Sequences: 20000, Interactions: 31333, Tables: "memory",
		Adaptive: true, Response: "R1", MonitorEvery: 10,
		PlanCache:       true,
		Statements:      []string{joinAggSQL},
		Warmup:          2,
		ZeroAdaptations: true,
		TailPercentile:  75,
		SamplesPerRun:   105,
	},
	{
		Name:      "serve_point",
		Why:       "native point lookups on 300/470-row tables from 2 clients: per-query fixed work dominates (normalize, cache, bind, admission, deploy)",
		Clients:   2,
		Width:     1,
		Transport: "inproc",
		Sequences: 300, Interactions: 470, Tables: "memory",
		PlanCache:      true,
		Statements:     []string{pointSeqSQL, pointIntSQL},
		Warmup:         16 * pointLiterals,
		TailPercentile: 99,
		SamplesPerRun:  373000,
	},
	{
		Name:      "stored_spill",
		Why:       "join_agg over block-stored tables with a budget of table bytes/16: morsel-parallel block reads, decode and grace-hash spill",
		Clients:   1,
		Width:     2,
		Transport: "inproc",
		Sequences: 20000, Interactions: 31333, Tables: "stored",
		PlanCache:      true,
		BudgetDivisor:  16,
		Statements:     []string{joinAggSQL},
		Warmup:         2,
		TailPercentile: 75,
		SamplesPerRun:  96,
	},
	{
		Name:      "tcp_join",
		Why:       "join_agg over loopback TCP (RemoteCoordinator + 3 Evaluators): the only path through the TCP transport and wire codec",
		Clients:   1,
		Width:     2,
		Transport: "tcp",
		Sequences: 5000, Interactions: 7833, Tables: "memory", FixedSeed: true,
		Adaptive: true, Response: "R1", MonitorEvery: 10,
		Statements:      []string{joinAggSQL},
		Warmup:          10,
		ZeroAdaptations: true,
		TailPercentile:  90,
		SamplesPerRun:   338,
	},
}

func lookupSpec(name string) *spec {
	for _, s := range workloads {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// metricDef describes one reported metric. Moves names the end-to-end
// metrics (as "workload:metric") a change in this layer metric should move;
// Still names workloads where it should not move. Exact marks counts that
// repeat exactly across runs at one seed (see TestExactCounts).
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Moves  []string `json:"moves,omitempty"`
	Still  []string `json:"no_move_on,omitempty"`
	Exact  bool     `json:"exact,omitempty"`
}

var endToEnd = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "alloc_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

var (
	serveHot  = []string{"serve_point:queries_per_s", "serve_point:latency_p50_ms"}
	joinCost  = []string{"join_agg:rows_per_s", "join_agg:cpu_ms_per_query", "join_agg:allocs_per_query"}
	spillCost = []string{"stored_spill:rows_per_s", "stored_spill:peak_rss_mb"}
	wireCost  = []string{"tcp_join:latency_p50_ms", "stored_spill:latency_p50_ms"}
	monitor   = []string{"join_agg:cpu_ms_per_query", "tcp_join:latency_p50_ms"}
	allCPU    = []string{"*:cpu_ms_per_query", "*:allocs_per_query"}
)

var perLayer = []metricDef{
	{Name: "sqlparse.normalize_us", Unit: "us", Better: "lower", Moves: serveHot, Still: []string{"join_agg"}},
	{Name: "physical.bind_us", Unit: "us", Better: "lower", Moves: serveHot, Still: []string{"join_agg"}},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher", Moves: serveHot, Still: []string{"join_agg"}},
	{Name: "logical.plan_us", Unit: "us", Better: "lower", Moves: []string{"*:setup_s", "serve_point:latency_tail_ms"}},
	{Name: "physical.schedule_us", Unit: "us", Better: "lower", Moves: []string{"*:setup_s", "serve_point:latency_tail_ms"}},
	{Name: "services.execute_ms", Unit: "ms", Better: "lower", Moves: []string{"serve_point:latency_p50_ms", "serve_point:latency_tail_ms"}},
	{Name: "services.execute_self_ms", Unit: "ms", Better: "lower", Moves: []string{"serve_point:latency_p50_ms", "serve_point:latency_tail_ms"}},
	{Name: "services.admission_wait_ms", Unit: "ms", Better: "lower", Moves: []string{"serve_point:latency_p50_ms", "serve_point:latency_tail_ms"}},
	{Name: "services.admission_queued", Unit: "1/query", Better: "lower", Moves: []string{"serve_point:latency_p50_ms", "serve_point:latency_tail_ms"}},
	{Name: "engine.tuples_produced", Unit: "1/query", Better: "lower", Moves: joinCost, Still: []string{"serve_point"}, Exact: true},
	{Name: "engine.batch_size_mean", Unit: "tuples", Better: "higher", Moves: joinCost, Still: []string{"serve_point"}},
	{Name: "engine.exchange_tuples_routed", Unit: "1/query", Better: "lower", Moves: joinCost, Still: []string{"serve_point"}, Exact: true},
	{Name: "engine.exchange_buffers_sent", Unit: "1/query", Better: "lower", Moves: joinCost, Still: []string{"serve_point"}, Exact: true},
	{Name: "engine.exchange_tuples_per_buffer", Unit: "tuples", Better: "higher", Moves: joinCost, Still: []string{"serve_point"}, Exact: true},
	{Name: "engine.exchange_tuples_consumed", Unit: "1/query", Better: "lower", Moves: joinCost, Still: []string{"serve_point"}, Exact: true},
	{Name: "engine.scan_blocks_read", Unit: "1/query", Better: "lower", Moves: spillCost, Still: []string{"join_agg"}, Exact: true},
	{Name: "engine.spill_bytes", Unit: "B/query", Better: "lower", Moves: spillCost, Still: []string{"join_agg"}},
	{Name: "engine.spill_partitions", Unit: "1/query", Better: "lower", Moves: spillCost, Still: []string{"join_agg"}},
	{Name: "engine.spill_restarts", Unit: "1/query", Better: "lower", Moves: spillCost, Still: []string{"join_agg"}},
	{Name: "engine.spill_bytes_per_table_byte", Unit: "ratio", Better: "lower", Moves: spillCost, Still: []string{"join_agg"}},
	{Name: "storage.read_mb_s", Unit: "MB/s", Better: "higher", Moves: spillCost, Still: []string{"join_agg"}},
	{Name: "storage.mem_overrelease", Unit: "count", Better: "lower", Moves: spillCost, Still: []string{"join_agg"}},
	{Name: "storage.mem_inflight_end_bytes", Unit: "B", Better: "lower", Moves: spillCost, Still: []string{"join_agg"}},
	{Name: "relation.encode_ns_per_tuple", Unit: "ns", Better: "lower", Moves: wireCost},
	{Name: "relation.decode_ns_per_tuple", Unit: "ns", Better: "lower", Moves: wireCost},
	{Name: "transport.messages_per_query", Unit: "1/query", Better: "lower", Moves: wireCost},
	{Name: "core.med_raw_events", Unit: "1/query", Better: "lower", Moves: []string{"join_agg:cpu_ms_per_query"}},
	{Name: "bus.published", Unit: "1/query", Better: "lower", Moves: []string{"join_agg:cpu_ms_per_query"}},
	{Name: "bus.delivered_ratio", Unit: "ratio", Better: "higher", Moves: monitor},
	{Name: "bus.dropped", Unit: "count", Better: "lower", Moves: monitor},
	{Name: "core.med_notifications", Unit: "1/query", Better: "lower", Moves: monitor},
	{Name: "core.slow_node_share", Unit: "ratio", Better: "lower", Moves: []string{"join_agg:latency_p50_ms"}},
	{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower", Moves: allCPU},
	{Name: "runtime.gc_cycles_per_query", Unit: "1/query", Better: "lower", Moves: allCPU},
	{Name: "runtime.sched_latency_p99_us", Unit: "us", Better: "lower", Moves: allCPU},
	{Name: "runtime.goroutines_leaked", Unit: "count", Better: "lower", Moves: allCPU},
	{Name: "trace.query_self_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.execute_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.throughput_overhead_pct", Unit: "%", Better: "lower"},
}
