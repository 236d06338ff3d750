package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/ws"
)

// queryTimeout bounds one query; no workload comes near it.
const queryTimeout = 2 * time.Minute

// nativeScale is the native profile's real duration of a paper millisecond.
const nativeScale = time.Nanosecond

// nativeCost is every native-profile cost parameter in paper ms. It must be
// nonzero (NewCluster and Manifest replace an all-zero Costs with the
// defaults) and small enough that the Meters never accumulate a sleep.
const nativeCost = 1e-9

func nativeCosts() engine.Costs {
	c := nativeCost
	return engine.Costs{ScanMs: c, ScanByteMs: c, FilterMs: c, ProjectMs: c,
		JoinBuildMs: c, JoinProbeMs: c, AggMs: c, SortMs: c, StartupMs: c,
		AdaptStartupMs: c, LogAppendMs: c}
}

// checkNativeCosts is the self-check of the pinned native profile: every
// field nonzero, so the engine keeps it, and tiny, so nothing sleeps.
func checkNativeCosts(c engine.Costs) error {
	for i, v := range []float64{c.ScanMs, c.ScanByteMs, c.FilterMs, c.ProjectMs,
		c.JoinBuildMs, c.JoinProbeMs, c.AggMs, c.SortMs, c.StartupMs,
		c.AdaptStartupMs, c.LogAppendMs} {
		if v <= 0 || v > 1e-6 {
			return fmt.Errorf("native cost field %d is %g, want in (0, 1e-6]", i, v)
		}
	}
	return nil
}

// system is the program under test as the benchmark sees it: a way to run a
// statement end to end, plus what the hygiene checks and the traced run read
// from outside.
type system interface {
	execute(ctx context.Context, sql string) (*services.QueryResult, error)
	// spillBackends are the backends whose q*. runs must be gone after a run.
	spillBackends() []storage.Backend
	// catalog and registry describe the deployment to the compile replay.
	catalog() *catalog.Catalog
	registry() *registry.Registry
	close()
}

// tables are one workload's generated inputs.
type tables struct {
	seqs, ints *dataset.Table
	// stored are the block-framed copies the program reads (stored_spill).
	stored     *dataset.Store
	tableBytes int64
}

func (t *tables) store() *dataset.Store {
	if t.stored != nil {
		return t.stored
	}
	s := dataset.NewStore()
	s.Add(t.seqs)
	s.Add(t.ints)
	return s
}

// tableSeed is the seed the tables are generated from.
func (s *spec) tableSeed(seed int64) int64 {
	if s.FixedSeed {
		return 1
	}
	return seed
}

// genTables generates the workload's tables in memory.
func genTables(s *spec, seed int64) *tables {
	ts := s.tableSeed(seed)
	t := &tables{
		seqs: dataset.ProteinSequences(s.Sequences, ts),
		ints: dataset.ProteinInteractions(s.Interactions, s.Sequences, ts),
	}
	t.tableBytes = t.seqs.TotalBytes() + t.ints.TotalBytes()
	return t
}

// writeStored writes the workload's tables as block-framed runs on a memory
// storage backend and makes them the tables the program reads.
func writeStored(s *spec, seed int64, t *tables) error {
	ts := s.tableSeed(seed)
	backend := storage.NewMemory()
	seqs, err := dataset.WriteProteinSequences(backend, "base/protein_sequences", s.Sequences, ts)
	if err != nil {
		return err
	}
	ints, err := dataset.WriteProteinInteractions(backend, "base/protein_interactions", s.Interactions, s.Sequences, ts)
	if err != nil {
		return err
	}
	t.stored = dataset.NewStore()
	t.stored.Add(seqs)
	t.stored.Add(ints)
	t.tableBytes = seqs.TotalBytes() + ints.TotalBytes()
	return nil
}

// inproc is a simulated Grid in this process driven through services.GDQS.
type inproc struct {
	cluster *services.Cluster
	gdqs    *services.GDQS
}

func (p *inproc) execute(ctx context.Context, sql string) (*services.QueryResult, error) {
	return p.gdqs.Execute(ctx, sql)
}
func (p *inproc) spillBackends() []storage.Backend {
	return []storage.Backend{p.gdqs.SpillBackend()}
}
func (p *inproc) catalog() *catalog.Catalog    { return p.cluster.Catalog() }
func (p *inproc) registry() *registry.Registry { return p.cluster.Registry() }
func (p *inproc) close() {
	_ = p.gdqs.SpillBackend().Close()
	p.cluster.Close()
}

// buildCluster assembles the in-process Grid with the native profile: data1
// holding the tables, compute nodes ws0 and ws1, free links.
func buildCluster(t *tables) (*services.Cluster, error) {
	cfg := services.ClusterConfig{Scale: nativeScale, Costs: nativeCosts(),
		Buckets: engine.DefaultBuckets, BufferTuples: engine.DefaultBufferTuples,
		CheckpointEvery: engine.DefaultCheckpointEvery}
	if err := checkNativeCosts(cfg.Costs); err != nil {
		return nil, err
	}
	cluster := services.NewCluster(cfg)
	cluster.Network().SetDefaultLink(simnet.Loopback)
	if err := cluster.AddDataNode("data1", t.store()); err != nil {
		cluster.Close()
		return nil, err
	}
	for _, n := range []simnet.NodeID{"ws0", "ws1"} {
		reg := ws.NewRegistry(ws.Entropy{CostMs: nativeCost}, ws.SequenceLength{})
		if err := cluster.AddComputeNode(n, 1.0, reg); err != nil {
			cluster.Close()
			return nil, err
		}
	}
	if err := checkNativeCluster(cluster); err != nil {
		cluster.Close()
		return nil, err
	}
	return cluster, nil
}

// checkNativeCluster verifies from outside that the built cluster really has
// the native clock and free links.
func checkNativeCluster(c *services.Cluster) error {
	if got := c.Clock().Scale(); got != nativeScale {
		return fmt.Errorf("native profile: clock scale %v, want %v", got, nativeScale)
	}
	for _, from := range []simnet.NodeID{"data1", "ws0", "ws1", "coord"} {
		for _, to := range []simnet.NodeID{"data1", "ws0", "ws1", "coord"} {
			if cost := c.Network().Link(from, to).CostMs(1 << 20); cost != 0 {
				return fmt.Errorf("native profile: link %s->%s costs %g ms per MiB", from, to, cost)
			}
		}
	}
	return nil
}

func gdqsConfig(s *spec, t *tables) services.GDQSConfig {
	cfg := services.GDQSConfig{
		Adaptive:     s.Adaptive,
		MonitorEvery: s.MonitorEvery,
		MED:          core.DefaultMEDConfig(),
		Diagnoser:    core.DiagnoserConfig{ThresA: 0.20, Assessment: core.A1},
		Responder:    core.ResponderConfig{Response: response(s), MaxProgress: 0.9},
		Parallelism:  s.Width,
		QueryTimeout: queryTimeout,
		PlanMs:       0,
	}
	if !s.PlanCache {
		cfg.PlanCacheSize = -1
	}
	if s.BudgetDivisor > 0 {
		cfg.MemoryBudgetBytes = t.tableBytes / s.BudgetDivisor
	}
	return cfg
}

func response(s *spec) core.Response {
	if s.Response == "R1" {
		return core.R1
	}
	return core.R2
}

func newInproc(s *spec, t *tables) (*inproc, error) {
	cluster, err := buildCluster(t)
	if err != nil {
		return nil, err
	}
	g, err := services.NewGDQS(cluster, "coord", gdqsConfig(s, t))
	if err != nil {
		cluster.Close()
		return nil, err
	}
	return &inproc{cluster: cluster, gdqs: g}, nil
}

// tcpSystem is a RemoteCoordinator and three Evaluators, each on its own
// loopback TCP transport, in this process.
type tcpSystem struct {
	coord      *services.RemoteCoordinator
	evals      []*services.Evaluator
	transports []*transport.TCP
	spillDir   string
	// shadow carries the same catalog and registry the Manifest derives;
	// the compile replay plans against it.
	shadow *services.Cluster
}

var tcpNodes = []simnet.NodeID{"coord", "data1", "ws0", "ws1"}

func manifestFor(s *spec, spillDir string) services.Manifest {
	return services.Manifest{
		Scale:       nativeScale,
		Costs:       nativeCosts(),
		Coordinator: "coord",
		DataNodes:   []services.DataNodeSpec{{Node: "data1", Sequences: s.Sequences, Interactions: s.Interactions}},
		Compute: []services.ComputeNodeSpec{
			{Node: "ws0", Speed: 1, EntropyCostMs: nativeCost},
			{Node: "ws1", Speed: 1, EntropyCostMs: nativeCost},
		},
		Adaptive:     s.Adaptive,
		MonitorEvery: s.MonitorEvery,
		Assessment:   core.A1,
		Response:     response(s),
		Parallelism:  s.Width,
		SpillDir:     spillDir,
	}
}

func newTCP(s *spec, t *tables, dir string) (sys *tcpSystem, err error) {
	m := manifestFor(s, filepath.Join(dir, "spill"))
	if err := checkNativeCosts(m.Costs); err != nil {
		return nil, err
	}
	sys = &tcpSystem{spillDir: m.SpillDir}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	byNode := map[simnet.NodeID]*transport.TCP{}
	for _, n := range tcpNodes {
		tr, err := transport.NewTCP(n, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		sys.transports = append(sys.transports, tr)
		byNode[n] = tr
	}
	for _, a := range tcpNodes {
		for _, b := range tcpNodes {
			if a != b {
				byNode[a].AddPeer(b, byNode[b].Addr())
			}
		}
	}
	for _, n := range tcpNodes[1:] {
		ev, err := services.NewEvaluator(m, n, byNode[n])
		if err != nil {
			return nil, err
		}
		sys.evals = append(sys.evals, ev)
	}
	if sys.coord, err = services.NewRemoteCoordinator(m, byNode["coord"]); err != nil {
		return nil, err
	}
	if sys.shadow, err = buildCluster(t); err != nil {
		return nil, err
	}
	return sys, nil
}

func (p *tcpSystem) execute(ctx context.Context, sql string) (*services.QueryResult, error) {
	return p.coord.Execute(ctx, sql, queryTimeout)
}

func (p *tcpSystem) spillBackends() []storage.Backend {
	var out []storage.Backend
	for _, n := range tcpNodes {
		dir := filepath.Join(p.spillDir, string(n))
		if _, err := os.Stat(dir); err != nil {
			continue
		}
		if b, err := storage.NewPosix(dir); err == nil {
			out = append(out, b)
		}
	}
	return out
}

func (p *tcpSystem) catalog() *catalog.Catalog    { return p.shadow.Catalog() }
func (p *tcpSystem) registry() *registry.Registry { return p.shadow.Registry() }

func (p *tcpSystem) close() {
	if p.coord != nil {
		p.coord.Close()
	}
	for _, e := range p.evals {
		e.Close()
	}
	for _, tr := range p.transports {
		_ = tr.Close()
	}
	if p.shadow != nil {
		p.shadow.Close()
	}
}

func newSystem(s *spec, t *tables, dir string) (system, error) {
	if s.Transport == "tcp" {
		return newTCP(s, t, dir)
	}
	return newInproc(s, t)
}

// gauge reads an obs gauge of the process-wide registry.
func gauge(name string) int64 { return obs.Default().Gauge(name).Value() }
