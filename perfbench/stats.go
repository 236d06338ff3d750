package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// percentile returns the nearest-rank p-th percentile of samples (sorted in
// place).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	i := int(math.Ceil(p/100*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	return samples[i]
}

func median(samples []float64) float64 {
	return percentile(append([]float64(nil), samples...), 50)
}

// obsSnapshot reads the program's obs counters and histograms that the
// per-layer metrics use. It reads fixed names only: the engine's per-query
// labelled families (one counter per tagged fragment or exchange) are summed
// per query from the query's own plan instead, because rendering the whole
// registry grows with every query served.
type obsSnapshot map[string]float64

// obsCounters are the unlabelled counters (and labelled series) read.
var obsCounters = []string{
	obs.MPlanCacheHits, obs.MPlanCacheMisses, obs.MAdmissionQueued,
	obs.MScanBlocksRead, obs.MSpillBytes,
	obs.MSpillPartitions, obs.MSpillRestarts, obs.MMemOverrelease,
	obs.Label(obs.MTransportMessages, "kind", "inproc"),
	obs.Label(obs.MTransportMessages, "kind", "local"),
	obs.Label(obs.MTransportMessages, "kind", "remote"),
	obs.MMEDRawEvents, obs.MMEDNotifications,
	obs.MBusPublished, obs.MBusDelivered, obs.MBusDropped,
}

// obsHistograms are read as name_sum and name_count.
var obsHistograms = []string{obs.MAdmissionQueueMs, obs.MEngineBatchSize}

func snapshotObs() obsSnapshot {
	reg := obs.Default().Registry()
	s := obsSnapshot{}
	for _, n := range obsCounters {
		s[n] = float64(reg.Counter(n).Value())
	}
	for _, n := range obsHistograms {
		// The bounds only matter if the program has not registered the
		// histogram yet, and then it reads empty either way.
		h := reg.Histogram(n, obs.DefBucketsSize)
		s[n+"_sum"] = h.Sum()
		s[n+"_count"] = float64(h.Count())
	}
	return s
}

// delta is the growth of a counter between two snapshots.
func (s obsSnapshot) delta(prev obsSnapshot, name string) float64 { return s[name] - prev[name] }

// transportDelta sums the transport message counters of every kind.
func (s obsSnapshot) transportDelta(prev obsSnapshot) float64 {
	var n float64
	for _, k := range []string{"inproc", "local", "remote"} {
		n += s.delta(prev, obs.Label(obs.MTransportMessages, "kind", k))
	}
	return n
}

// meanDelta is a histogram's mean observation between two snapshots.
func (s obsSnapshot) meanDelta(prev obsSnapshot, name string) float64 {
	return ratio(s.delta(prev, name+"_sum"), s.delta(prev, name+"_count"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Go runtime metrics the benchmark reads.
const (
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmGCCycles     = "/gc/cycles/total:gc-cycles"
	rmGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU     = "/cpu/classes/total:cpu-seconds"
	rmSchedLat     = "/sched/latencies:seconds"
)

// rtSnapshot is one read of the runtime metrics above.
type rtSnapshot struct {
	samples []metrics.Sample
}

func readRuntime() rtSnapshot {
	names := []string{rmAllocObjects, rmAllocBytes, rmGCCycles, rmGCCPU, rmTotalCPU, rmSchedLat}
	s := rtSnapshot{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		s.samples[i].Name = n
	}
	metrics.Read(s.samples)
	return s
}

func (s rtSnapshot) value(name string) float64 {
	for _, m := range s.samples {
		if m.Name != name {
			continue
		}
		switch m.Value.Kind() {
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		case metrics.KindFloat64:
			return m.Value.Float64()
		}
	}
	return 0
}

func (s rtSnapshot) hist(name string) *metrics.Float64Histogram {
	for _, m := range s.samples {
		if m.Name == name && m.Value.Kind() == metrics.KindFloat64Histogram {
			return m.Value.Float64Histogram()
		}
	}
	return nil
}

// histQuantile returns the q-quantile of the observations added to a
// runtime histogram between prev and cur, as the upper bound of the bucket
// holding it.
func histQuantile(prev, cur *metrics.Float64Histogram, q float64) float64 {
	if prev == nil || cur == nil || len(prev.Counts) != len(cur.Counts) {
		return 0
	}
	var total uint64
	for i := range cur.Counts {
		total += cur.Counts[i] - prev.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range cur.Counts {
		cum += cur.Counts[i] - prev.Counts[i]
		if cum >= target {
			hi := cur.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = cur.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// usage is one reading of the process's resource use.
type usage struct {
	at                 float64 // seconds since the measured run started
	cpuMs              float64 // user+sys CPU of the process
	allocs, allocBytes float64 // cumulative heap allocations
	rss                int64
}

// sampler reads the process's resource use at a fixed interval while a run
// is measured, so costs can be attributed to blocks of queries.
type sampler struct {
	start   time.Time
	stop    chan struct{}
	wg      sync.WaitGroup
	rm      []metrics.Sample
	samples []usage // owned by the sampling goroutine until finish returns
}

func startSampler(start time.Time, every time.Duration) *sampler {
	s := &sampler{start: start, stop: make(chan struct{}),
		rm: []metrics.Sample{{Name: rmAllocObjects}, {Name: rmAllocBytes}}}
	s.samples = append(s.samples, s.read())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.samples = append(s.samples, s.read())
			}
		}
	}()
	return s
}

func (s *sampler) read() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(s.rm)
	return usage{
		at:         time.Since(s.start).Seconds(),
		cpuMs:      float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6,
		allocs:     float64(s.rm[0].Value.Uint64()),
		allocBytes: float64(s.rm[1].Value.Uint64()),
		rss:        residentBytes(),
	}
}

// finish stops the sampler, takes a last reading and returns them all.
func (s *sampler) finish() []usage {
	close(s.stop)
	s.wg.Wait()
	return append(s.samples, s.read())
}

// usageAt returns the last reading taken at or before t.
func usageAt(samples []usage, t float64) usage {
	i := sort.Search(len(samples), func(i int) bool { return samples[i].at > t })
	if i == 0 {
		return samples[0]
	}
	return samples[i-1]
}

// residentBytes reads the process's resident set size from
// /proc/self/statm; it is 0 on systems without procfs.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
