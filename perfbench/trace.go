package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/relation"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/sqlparse"
)

// Spans are recorded by the benchmark around its own calls into each
// layer's public functions; the program itself is not instrumented. All
// spans of one query share its trace id.
type span struct {
	Trace  int64              `json:"trace"`
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// openSpan is a span being timed; children add their duration to childNs
// so the parent's self time is its duration minus theirs.
type openSpan struct {
	span
	t0      time.Time
	parent  *openSpan
	childNs int64
	// obs0 and rt0 are the counters when a query's root span opened.
	obs0 obsSnapshot
	rt0  rtSnapshot
}

// Span names.
const (
	spQuery     = "query"
	spExecute   = "services.Execute"
	spCompile   = "compile.replay"
	spNormalize = "sqlparse.NormalizeSQL"
	spPlan      = "logical.PlanParams"
	spSchedule  = "physical.Schedule+Validate"
	spBind      = "physical.Clone+BindParams"
	spCodec     = "relation.codec"
	spEncode    = "relation.AppendTuples"
	spDecode    = "relation.DecodeTuplesShared"
	spRead      = "storage.ReadBlock"
)

// maxKeptSpans bounds the spans kept for the trace file; aggregates cover
// every span.
const maxKeptSpans = 50000

// codecSample is how many generated tuples each codec pass encodes and
// decodes, in buffers of codecBuffer tuples.
const (
	codecSample = 2048
	codecBuffer = 64
)

// tracer records spans and the per-layer aggregates of a traced phase.
type tracer struct {
	spec   *spec
	sys    system
	tables *tables
	origin time.Time
	nextID atomic.Int64
	nextQ  atomic.Int64
	sample []relation.Tuple

	mu      sync.Mutex
	spans   []span
	dropped int64
	durs    map[string][]float64 // ns per span name
	selfs   map[string][]float64 // self ns per span name
	execDur []float64            // ns
	// execSelf is Execute minus the compile steps it performs internally.
	execSelf                    []float64
	encNs, encTuples            int64
	decNs, decTuples            int64
	readNs, readBytes           int64
	slowConsumed, totalConsumed int64
	// Per-query sums of the engine's labelled counters over the summed
	// queries, and each series' last value: a RemoteCoordinator does not tag
	// its plans, so its series accumulate across queries and a query whose
	// series had no earlier reading in this phase cannot be attributed.
	produced, routed, buffers, consumed int64
	summed                              int64
	last                                map[string]int64
}

func newTracer(s *spec, sys system, t *tables) *tracer {
	tr := &tracer{spec: s, sys: sys, tables: t, origin: time.Now(),
		durs: map[string][]float64{}, selfs: map[string][]float64{}, last: map[string]int64{}}
	for _, src := range [][]relation.Tuple{t.seqs.Tuples, t.ints.Tuples} {
		n := min(len(src), codecSample/2)
		tr.sample = append(tr.sample, src[:n]...)
	}
	return tr
}

func (tr *tracer) open(trace int64, parent *openSpan, name string) *openSpan {
	sp := &openSpan{span: span{Trace: trace, ID: tr.nextID.Add(1), Name: name}, parent: parent, t0: time.Now()}
	if parent != nil {
		sp.Parent = parent.ID
	}
	sp.Start = int64(sp.t0.Sub(tr.origin))
	return sp
}

// close ends a span that lasted d and records it.
func (tr *tracer) close(sp *openSpan, d time.Duration) {
	sp.End = sp.Start + int64(d)
	sp.Self = int64(d) - sp.childNs
	if sp.parent != nil {
		sp.parent.childNs += int64(d)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.durs[sp.Name] = append(tr.durs[sp.Name], float64(d))
	tr.selfs[sp.Name] = append(tr.selfs[sp.Name], float64(sp.Self))
	if len(tr.spans) < maxKeptSpans {
		tr.spans = append(tr.spans, sp.span)
	} else {
		tr.dropped++
	}
}

func (tr *tracer) timed(sp *openSpan, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.close(sp, d)
	return d
}

// startQuery opens a query's root span.
func (tr *tracer) startQuery() *openSpan {
	sp := tr.open(tr.nextQ.Add(1), nil, spQuery)
	sp.obs0, sp.rt0 = snapshotObs(), readRuntime()
	return sp
}

// endExecute records the Execute span of a query that started at t0.
func (tr *tracer) endExecute(root *openSpan, t0 time.Time, d time.Duration, out *services.QueryResult) {
	sp := tr.open(root.Trace, root, spExecute)
	sp.t0 = t0
	sp.Start = int64(t0.Sub(tr.origin))
	tr.close(sp, d)
	// Per-query deltas of the program's counters and the Go runtime. With
	// more than one client they cover whatever ran during the query.
	obs1, rt1 := snapshotObs(), readRuntime()
	root.Attrs = map[string]float64{"execute_ns": float64(d)}
	for name, v := range obs1 {
		if dv := v - root.obs0[name]; dv != 0 {
			root.Attrs[name] = dv
		}
	}
	for _, name := range []string{rmAllocObjects, rmAllocBytes, rmGCCycles} {
		root.Attrs[name] = rt1.value(name) - root.rt0.value(name)
	}
	if out == nil {
		return
	}
	st := out.Stats
	root.Attrs["rows"] = float64(st.Rows)
	root.Attrs["raw_events"] = float64(st.RawEvents)
	root.Attrs["med_notifications"] = float64(st.MEDNotifications)
	if st.Plan == nil {
		return
	}
	// The program labels its engine counters with the plan's fragment and
	// exchange ids. The GDQS tags those per query, so these are this query's
	// own counts even when clients overlap.
	var produced, routed, buffers, consumed int64
	known := true
	add := func(sum *int64, name string) {
		d, ok := tr.series(name)
		*sum += d
		known = known && ok
	}
	for _, f := range st.Plan.Fragments {
		add(&produced, obs.Label(obs.MEngineTuplesProduced, "fragment", f.ID))
		if f.Output != nil {
			add(&routed, obs.Label(obs.MExchangeTuplesRouted, "exchange", f.Output.ID))
			add(&buffers, obs.Label(obs.MExchangeBuffersSent, "exchange", f.Output.ID))
			add(&consumed, obs.Label(obs.MExchangeTuplesConsumed, "exchange", f.Output.ID))
		}
		if !f.Partitioned {
			continue
		}
		for i, node := range f.Instances {
			n := st.ConsumedByInstance[f.InstanceID(i)]
			tr.mu.Lock()
			tr.totalConsumed += n
			if node == simnet.NodeID("ws1") {
				tr.slowConsumed += n
			}
			tr.mu.Unlock()
		}
	}
	if !known {
		return
	}
	tr.mu.Lock()
	tr.produced += produced
	tr.routed += routed
	tr.buffers += buffers
	tr.consumed += consumed
	tr.summed++
	tr.mu.Unlock()
	root.Attrs["tuples_produced"] = float64(produced)
	root.Attrs["tuples_routed"] = float64(routed)
	root.Attrs["buffers_sent"] = float64(buffers)
	root.Attrs["tuples_consumed"] = float64(consumed)
}

// series returns how much a labelled counter grew since it was last read.
// ok is false when a series not in a query's tagged namespace is read for
// the first time: its growth since the program started is not this query's.
func (tr *tracer) series(name string) (d int64, ok bool) {
	v := obs.Default().Registry().Counter(name).Value()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	prev, seen := tr.last[name]
	tr.last[name] = v
	return v - prev, seen || isQueryRun(name[strings.IndexByte(name, '"')+1:])
}

// finishQuery replays the query's compile pipeline, runs a codec pass and
// (for stored tables) a storage read, then closes the root span. An error in
// any of them is a failure of the layer it called.
func (tr *tracer) finishQuery(root *openSpan, sql string, out *services.QueryResult) error {
	defer func() { tr.close(root, time.Since(root.t0)) }()
	cs, err := tr.replayCompile(root, sql)
	if err != nil {
		return fmt.Errorf("compile replay: %w", err)
	}
	if err := tr.codecPass(root); err != nil {
		return fmt.Errorf("codec pass: %w", err)
	}
	if err := tr.storageRead(root); err != nil {
		return fmt.Errorf("storage read: %w", err)
	}
	if exec, ok := root.Attrs["execute_ns"]; ok {
		// Inside Execute the GDQS always normalizes and binds, and plans
		// only on a cache miss; the RemoteCoordinator parses and plans
		// every query and never binds.
		inside := cs[spNormalize] + cs[spBind]
		if tr.spec.Transport == "tcp" {
			inside = cs[spNormalize] + cs[spPlan] + cs[spSchedule]
		} else if !tr.spec.PlanCache {
			inside += cs[spPlan] + cs[spSchedule]
		}
		tr.mu.Lock()
		tr.execDur = append(tr.execDur, exec)
		tr.execSelf = append(tr.execSelf, exec-inside)
		tr.mu.Unlock()
	}
	return nil
}

// replayCompile runs the statement through the same public compile steps
// the GDQS uses — normalize, plan, schedule and validate, clone and bind —
// timing each, and returns their durations in ns by span name.
func (tr *tracer) replayCompile(root *openSpan, sql string) (map[string]float64, error) {
	out := map[string]float64{}
	parent := tr.open(root.Trace, root, spCompile)
	defer func() { tr.close(parent, time.Since(parent.t0)) }()
	var (
		tmpl  *sqlparse.SelectStmt
		slots []sqlparse.Slot
		lplan logical.Node
		hints map[int]sqlparse.ParamType
		pplan *physical.Plan
		err   error
	)
	step := func(name string, fn func()) bool {
		d := tr.timed(tr.open(root.Trace, parent, name), fn)
		out[name] = float64(d)
		return err == nil
	}
	if !step(spNormalize, func() { _, tmpl, slots, err = sqlparse.NormalizeSQL(sql) }) {
		return out, err
	}
	if !step(spPlan, func() { lplan, hints, err = logical.PlanParams(tmpl, tr.sys.catalog()) }) {
		return out, err
	}
	if !step(spSchedule, func() {
		pplan, err = physical.Schedule(lplan, tr.sys.registry(), physical.Options{Coordinator: "coord"})
		if err == nil {
			err = pplan.Validate()
		}
	}) {
		return out, err
	}
	step(spBind, func() {
		for i := range slots {
			if h, ok := hints[i]; ok && slots[i].Hint == sqlparse.PAny {
				slots[i].Hint = h
			}
		}
		var args []sqlparse.Expr
		if args, err = sqlparse.BindSlots(slots, nil); err == nil {
			err = pplan.Clone().BindParams(args)
		}
	})
	return out, err
}

// codecPass encodes the generated tuple sample in exchange-sized buffers and
// decodes it back through the block-scan decoder.
func (tr *tracer) codecPass(root *openSpan) error {
	parent := tr.open(root.Trace, root, spCodec)
	var bufs [][]byte
	enc := tr.timed(tr.open(root.Trace, parent, spEncode), func() {
		for i := 0; i < len(tr.sample); i += codecBuffer {
			j := min(i+codecBuffer, len(tr.sample))
			bufs = append(bufs, relation.AppendTuples(nil, tr.sample[i:j]))
		}
	})
	var decoded int64
	var err error
	dec := tr.timed(tr.open(root.Trace, parent, spDecode), func() {
		var arena relation.Arena
		batch := relation.NewBatch(codecBuffer)
		for _, b := range bufs {
			var left uint64
			var rest []byte
			if left, rest, err = relation.TupleCount(b); err != nil {
				return
			}
			base := string(b)
			for left > 0 {
				batch.Rewind()
				if rest, left, _, err = relation.DecodeTuplesShared(&arena, base, rest, left, batch, nil); err != nil {
					return
				}
				decoded += int64(batch.Len())
			}
		}
	})
	tr.close(parent, time.Since(parent.t0))
	tr.mu.Lock()
	tr.encNs += int64(enc)
	tr.encTuples += int64(len(tr.sample))
	tr.decNs += int64(dec)
	tr.decTuples += decoded
	tr.mu.Unlock()
	if err == nil && decoded != int64(len(tr.sample)) {
		err = fmt.Errorf("decoded %d tuples, encoded %d", decoded, len(tr.sample))
	}
	return err
}

// storageRead reads every block of the workload's stored tables through the
// storage backend.
func (tr *tracer) storageRead(root *openSpan) error {
	if tr.tables.stored == nil {
		return nil
	}
	var n int64
	var err error
	d := tr.timed(tr.open(root.Trace, root, spRead), func() {
		var buf []byte
		for _, name := range tr.tables.stored.Names() {
			var tbl *dataset.Table
			if tbl, err = tr.tables.stored.Table(name); err != nil {
				return
			}
			r, ok, oerr := tbl.OpenBlocks()
			if oerr != nil || !ok {
				err = fmt.Errorf("open blocks of %s: ok=%v: %v", name, ok, oerr)
				return
			}
			for i := 0; i < r.Blocks() && err == nil; i++ {
				var b []byte
				if b, err = r.ReadBlock(i, buf); err == nil {
					buf = b[:0]
					n += int64(len(b))
				}
			}
			// Only read: a failed Close loses nothing.
			_ = r.Close()
			if err != nil {
				return
			}
		}
	})
	tr.mu.Lock()
	tr.readNs += int64(d)
	tr.readBytes += n
	tr.mu.Unlock()
	return err
}

// layerMetrics derives every per-layer metric from a traced phase. The
// tracing overhead compares it with the untraced phases run just before and
// just after it on the same system.
func layerMetrics(tr *tracer, traced, before, after *loopResult) map[string]float64 {
	a, b := traced.obsBefore, traced.obsAfter
	n := float64(max(traced.ok, 1))
	per := func(name string) float64 { return b.delta(a, name) / n }
	med := func(name string, unit float64) float64 { return median(tr.durs[name]) / unit }
	hits := b.delta(a, obs.MPlanCacheHits)
	misses := b.delta(a, obs.MPlanCacheMisses)
	published := b.delta(a, obs.MBusPublished)
	r0, r1 := traced.rtBefore, traced.rtAfter
	m := map[string]float64{
		"sqlparse.normalize_us":             med(spNormalize, 1e3),
		"physical.bind_us":                  med(spBind, 1e3),
		"plancache.hit_ratio":               ratio(hits, hits+misses),
		"logical.plan_us":                   med(spPlan, 1e3),
		"physical.schedule_us":              med(spSchedule, 1e3),
		"services.execute_ms":               median(tr.execDur) / 1e6,
		"services.execute_self_ms":          median(tr.execSelf) / 1e6,
		"services.admission_wait_ms":        b.meanDelta(a, obs.MAdmissionQueueMs),
		"services.admission_queued":         per(obs.MAdmissionQueued),
		"engine.tuples_produced":            ratio(float64(tr.produced), float64(tr.summed)),
		"engine.batch_size_mean":            b.meanDelta(a, obs.MEngineBatchSize),
		"engine.exchange_tuples_routed":     ratio(float64(tr.routed), float64(tr.summed)),
		"engine.exchange_buffers_sent":      ratio(float64(tr.buffers), float64(tr.summed)),
		"engine.exchange_tuples_per_buffer": ratio(float64(tr.routed), float64(tr.buffers)),
		"engine.exchange_tuples_consumed":   ratio(float64(tr.consumed), float64(tr.summed)),
		"engine.scan_blocks_read":           per(obs.MScanBlocksRead),
		"engine.spill_bytes":                per(obs.MSpillBytes),
		"engine.spill_partitions":           per(obs.MSpillPartitions),
		"engine.spill_restarts":             per(obs.MSpillRestarts),
		"engine.spill_bytes_per_table_byte": ratio(per(obs.MSpillBytes), float64(tr.tables.tableBytes)),
		"storage.read_mb_s":                 ratio(float64(tr.readBytes)/(1<<20), float64(tr.readNs)/1e9),
		"storage.mem_overrelease":           b.delta(a, obs.MMemOverrelease),
		"storage.mem_inflight_end_bytes":    float64(traced.inflightEnd),
		"relation.encode_ns_per_tuple":      ratio(float64(tr.encNs), float64(tr.encTuples)),
		"relation.decode_ns_per_tuple":      ratio(float64(tr.decNs), float64(tr.decTuples)),
		"transport.messages_per_query":      b.transportDelta(a) / n,
		"core.med_raw_events":               per(obs.MMEDRawEvents),
		"bus.published":                     per(obs.MBusPublished),
		"bus.delivered_ratio":               ratio(b.delta(a, obs.MBusDelivered), published),
		"bus.dropped":                       b.delta(a, obs.MBusDropped),
		"core.med_notifications":            per(obs.MMEDNotifications),
		"core.slow_node_share":              ratio(float64(tr.slowConsumed), float64(tr.totalConsumed)),
		"runtime.gc_cpu_fraction":           ratio(r1.value(rmGCCPU)-r0.value(rmGCCPU), r1.value(rmTotalCPU)-r0.value(rmTotalCPU)),
		"runtime.gc_cycles_per_query":       (r1.value(rmGCCycles) - r0.value(rmGCCycles)) / n,
		"runtime.sched_latency_p99_us":      histQuantile(r0.hist(rmSchedLat), r1.hist(rmSchedLat), 0.99) * 1e6,
		"runtime.goroutines_leaked":         float64(traced.goroutinesLeaked),
		"trace.query_self_ms":               median(tr.selfs[spQuery]) / 1e6,
		"trace.execute_overhead_pct": 100 * (ratio(percentile(traced.latMs, 50),
			(percentile(before.latMs, 50)+percentile(after.latMs, 50))/2) - 1),
		"trace.throughput_overhead_pct": 100 * (1 - ratio(float64(traced.ok)/traced.elapsed.Seconds(),
			float64(before.ok+after.ok)/(before.elapsed+after.elapsed).Seconds())),
	}
	return m
}

// writeTrace writes the kept spans as JSON lines, then one summary line with
// each span name's count, median duration and median self time.
func (tr *tracer) writeTrace(w io.Writer, header any) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			return err
		}
	}
	type agg struct {
		Count    int     `json:"count"`
		MedianUs float64 `json:"median_us"`
		SelfUs   float64 `json:"median_self_us"`
	}
	sum := map[string]agg{}
	for name, d := range tr.durs {
		sum[name] = agg{Count: len(d), MedianUs: median(d) / 1e3, SelfUs: median(tr.selfs[name]) / 1e3}
	}
	return enc.Encode(map[string]any{"summary": sum, "dropped_spans": tr.dropped})
}
