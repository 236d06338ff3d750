package microbench

import (
	"strings"
	"testing"
)

func TestGateFlagsRegression(t *testing.T) {
	baseline := []Result{{Name: "X", NsPerOp: 100}, {Name: "Y", NsPerOp: 100}}
	current := []Result{{Name: "X", NsPerOp: 120}, {Name: "Y", NsPerOp: 200}, {Name: "New", NsPerOp: 5}}
	regs := Gate(baseline, current, 0.25)
	if len(regs) != 1 || regs[0].Name != "Y" {
		t.Fatalf("gate flagged %v, want only Y", regs)
	}
}

func TestGateScalingChecksAndSkips(t *testing.T) {
	current := []Result{
		{Name: "PartitionedJoin1", NsPerOp: 800, GOMAXPROCS: 8, NumCPU: 8},
		{Name: "PartitionedJoin2", NsPerOp: 500, GOMAXPROCS: 8, NumCPU: 8}, // 1.6x >= 1.3x
		{Name: "PartitionedJoin4", NsPerOp: 500, GOMAXPROCS: 8, NumCPU: 8}, // 1.6x < 2.0x
		{Name: "PartitionedJoin8", NsPerOp: 400, GOMAXPROCS: 1, NumCPU: 1}, // one core: skip
	}
	checks := []ScalingCheck{
		{Serial: "PartitionedJoin1", Parallel: "PartitionedJoin2", Width: 2, MinSpeedup: 1.3},
		{Serial: "PartitionedJoin1", Parallel: "PartitionedJoin4", Width: 4, MinSpeedup: 2.0},
		{Serial: "PartitionedJoin1", Parallel: "PartitionedJoin8", Width: 8, MinSpeedup: 4.0},
		{Serial: "PartitionedJoin1", Parallel: "Absent", Width: 2, MinSpeedup: 1.3},
	}
	fails, skipped := GateScaling(current, checks)
	if len(fails) != 1 || fails[0].Check.Parallel != "PartitionedJoin4" {
		t.Fatalf("scaling gate failed %v, want only PartitionedJoin4", fails)
	}
	if got := fails[0].Speedup; got < 1.59 || got > 1.61 {
		t.Fatalf("speedup %v, want 1.6", got)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped %v, want the one-core check and the missing check", skipped)
	}
	var sawCores, sawMissing bool
	for _, s := range skipped {
		if strings.Contains(s, "PartitionedJoin8") && strings.Contains(s, "core") {
			sawCores = true
		}
		if strings.Contains(s, "Absent") && strings.Contains(s, "missing") {
			sawMissing = true
		}
	}
	if !sawCores || !sawMissing {
		t.Fatalf("skip reasons not logged: %v", skipped)
	}
}

func TestRunSpecRecordsCores(t *testing.T) {
	r, ok := Run("TupleEncode")
	if !ok {
		t.Fatal("TupleEncode not found")
	}
	if r.GOMAXPROCS <= 0 || r.NumCPU <= 0 {
		t.Fatalf("core counts not recorded: gomaxprocs=%d num_cpu=%d", r.GOMAXPROCS, r.NumCPU)
	}
}

// TestScalingChecksNameRunBenchmarks keeps every scaling floor live: a check
// naming a benchmark that is not in the run list would be skipped as a
// "missing measurement" forever instead of gating anything.
func TestScalingChecksNameRunBenchmarks(t *testing.T) {
	run := make(map[string]bool)
	for _, s := range specs() {
		run[s.name] = true
	}
	for _, c := range DefaultScalingChecks() {
		for _, name := range []string{c.Serial, c.Parallel} {
			if !run[name] {
				t.Errorf("scaling check %s vs %s names %q, which is not in the micro run list", c.Parallel, c.Serial, name)
			}
		}
	}
}
