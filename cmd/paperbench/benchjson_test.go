package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, dir, name string, f benchFile) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// goodBench returns a fresh emission that passes every self-relative gate and
// matches the baseline runs.
func goodBench() benchFile {
	return benchFile{
		Schema: "flowsyn-bench/v1",
		Runs: []benchRun{
			{Assay: "PCR", Engine: "heuristic", Makespan: 310, WallMS: 1.0},
			{Assay: "PCR", Engine: "exact-ilp", Makespan: 310, WallMS: 2.0,
				Solver: &benchSolver{Status: "optimal"}},
		},
		CacheRuns: []benchCacheRun{{
			Assay: "PCR", ColdMS: 10, CachedMS: 0.1, CacheHit: true,
			SweepPoints: 4, SweepScheduleSolves: 1, SweepScheduleHits: 3,
		}},
		RecoveryRuns: []benchRecoveryRun{{
			Assay: "CPA", Fault: "device 1 @ t=345",
			RecoverMS: 0.4, ColdMS: 0.6,
			PreservedOps: 26, OldMakespan: 690, NewMakespan: 775,
			MakespanDelta: 85, ColdMakespan: 810,
		}},
	}
}

func TestCheckBenchRegressionRecoveryGate(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", goodBench())

	// A healthy emission passes.
	fresh := writeBench(t, dir, "fresh.json", goodBench())
	if err := checkBenchRegression(fresh, base); err != nil {
		t.Fatalf("healthy emission flagged: %v", err)
	}

	// Online recovery meaningfully slower than the cold masked restart fails
	// the self-relative gate.
	slow := goodBench()
	slow.RecoveryRuns[0].RecoverMS = 10
	slow.RecoveryRuns[0].ColdMS = 1
	fresh = writeBench(t, dir, "slow.json", slow)
	if err := checkBenchRegression(fresh, base); err == nil || !strings.Contains(err.Error(), "regression") {
		t.Errorf("slow recovery passed the gate: %v", err)
	}

	// A recovery that produced no plan fails.
	empty := goodBench()
	empty.RecoveryRuns[0].NewMakespan = 0
	fresh = writeBench(t, dir, "empty.json", empty)
	if err := checkBenchRegression(fresh, base); err == nil {
		t.Error("empty recovery plan passed the gate")
	}

	// Sub-millisecond jitter does not flake the gate.
	noisy := goodBench()
	noisy.RecoveryRuns[0].RecoverMS = 0.9
	noisy.RecoveryRuns[0].ColdMS = 0.2
	fresh = writeBench(t, dir, "noisy.json", noisy)
	if err := checkBenchRegression(fresh, base); err != nil {
		t.Errorf("sub-millisecond recovery jitter flagged: %v", err)
	}

	// The existing gates still bite: a proven-optimal makespan change fails.
	drift := goodBench()
	drift.Runs[1].Makespan = 400
	fresh = writeBench(t, dir, "drift.json", drift)
	if err := checkBenchRegression(fresh, base); err == nil {
		t.Error("proven-optimal makespan drift passed the gate")
	}

	// The recovery gate's absolute slack absorbs scheduler hiccups on
	// millisecond-scale solves: 3ms vs 1.5ms is over the 1.25x factor but
	// under factor+2ms.
	jitter := goodBench()
	jitter.RecoveryRuns[0].RecoverMS = 3
	jitter.RecoveryRuns[0].ColdMS = 1.5
	fresh = writeBench(t, dir, "jitter.json", jitter)
	if err := checkBenchRegression(fresh, base); err != nil {
		t.Errorf("millisecond-scale recovery jitter flagged despite slack: %v", err)
	}
}

// goodLoadRun passes every clause of the fleet-load gate.
func goodLoadRun() benchLoadRun {
	return benchLoadRun{
		Fleet:      []string{"http://a", "http://b"},
		Benchmark:  "PCR",
		UniqueKeys: 8, Jobs: 100, Concurrency: 8,
		ColdJobs: 8, WarmJobs: 80,
		ColdP50MS: 40, CachedP50MS: 2,
		FleetScheduleSolve: 10, ExpectedColdSolves: 10,
		SingleFlight: true,
	}
}

func TestCheckBenchRegressionLoadGate(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", goodBench())

	healthy := goodBench()
	healthy.LoadRuns = []benchLoadRun{goodLoadRun()}
	fresh := writeBench(t, dir, "healthy.json", healthy)
	if err := checkBenchRegression(fresh, base); err != nil {
		t.Fatalf("healthy load run flagged: %v", err)
	}

	// A broken single-flight (two replicas both solved a key) fails.
	dup := healthy
	dup.LoadRuns = []benchLoadRun{goodLoadRun()}
	dup.LoadRuns[0].FleetScheduleSolve = 12
	dup.LoadRuns[0].SingleFlight = false
	fresh = writeBench(t, dir, "dup.json", dup)
	if err := checkBenchRegression(fresh, base); err == nil || !strings.Contains(err.Error(), "regression") {
		t.Errorf("broken single-flight passed the gate: %v", err)
	}

	// A warm path no faster than cold fails once cold is above timer noise.
	slowWarm := healthy
	slowWarm.LoadRuns = []benchLoadRun{goodLoadRun()}
	slowWarm.LoadRuns[0].CachedP50MS = 30
	fresh = writeBench(t, dir, "slowwarm.json", slowWarm)
	if err := checkBenchRegression(fresh, base); err == nil {
		t.Error("slow warm path passed the gate")
	}

	// Sub-millisecond cold solves are exempt from the speedup clause.
	tiny := healthy
	tiny.LoadRuns = []benchLoadRun{goodLoadRun()}
	tiny.LoadRuns[0].ColdP50MS = 0.8
	tiny.LoadRuns[0].CachedP50MS = 0.7
	fresh = writeBench(t, dir, "tiny.json", tiny)
	if err := checkBenchRegression(fresh, base); err != nil {
		t.Errorf("sub-millisecond load run flagged: %v", err)
	}

	// Failed jobs fail the gate.
	failed := healthy
	failed.LoadRuns = []benchLoadRun{goodLoadRun()}
	failed.LoadRuns[0].FailedJobs = 3
	fresh = writeBench(t, dir, "failed.json", failed)
	if err := checkBenchRegression(fresh, base); err == nil {
		t.Error("failed jobs passed the gate")
	}
}

// TestCheckBenchFile covers the standalone -bench-check mode: self-relative
// gates only, no baseline, and an artifact checking nothing is an error.
func TestCheckBenchFile(t *testing.T) {
	dir := t.TempDir()

	loadOnly := benchFile{
		Schema:   "flowsyn-bench/v1",
		LoadRuns: []benchLoadRun{goodLoadRun()},
	}
	path := writeBench(t, dir, "load.json", loadOnly)
	if err := checkBenchFile(path); err != nil {
		t.Fatalf("load-only artifact flagged: %v", err)
	}

	broken := loadOnly
	broken.LoadRuns = []benchLoadRun{goodLoadRun()}
	broken.LoadRuns[0].SingleFlight = false
	path = writeBench(t, dir, "broken.json", broken)
	if err := checkBenchFile(path); err == nil {
		t.Error("broken single-flight passed -bench-check")
	}

	empty := benchFile{Schema: "flowsyn-bench/v1"}
	path = writeBench(t, dir, "empty.json", empty)
	if err := checkBenchFile(path); err == nil || !strings.Contains(err.Error(), "checked nothing") {
		t.Errorf("empty artifact did not fail the checked-nothing guard: %v", err)
	}

	if err := checkBenchFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing artifact passed -bench-check")
	}
}

// TestGapRunCountersAgainstOldBaseline keeps -bench-baseline working against
// BENCH_pr10.json, recorded before gap_runs carried solver counters: the
// missing fields read as zero and gate nothing, and a fresh emission that
// carries them still passes against it.
func TestGapRunCountersAgainstOldBaseline(t *testing.T) {
	baseline := filepath.Join("..", "..", "BENCH_pr10.json")
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.GapRuns) == 0 {
		t.Fatal("baseline carries no gap runs; the test checks nothing")
	}
	fresh := base
	fresh.GapRuns = append([]benchGapRun(nil), base.GapRuns...)
	for i := range fresh.GapRuns {
		g := &fresh.GapRuns[i]
		if g.Pivots != 0 || g.CutRounds != 0 || g.HeuristicIncumb != 0 || g.LocalBranchIncumb != 0 {
			t.Fatalf("gap run %d/%d read counters from a baseline without them: %+v", g.Ops, g.Seed, *g)
		}
		g.Pivots, g.CutRounds, g.HeuristicIncumb, g.LocalBranchIncumb = 1000, 2, 1, 1
	}
	path := writeBench(t, t.TempDir(), "fresh.json", fresh)
	if err := checkBenchRegression(path, baseline); err != nil {
		t.Fatalf("fresh emission with gap counters failed against %s: %v", baseline, err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"pivots":1000`, `"cut_rounds":2`, `"heuristic_incumbents":1`, `"local_branching_incumbents":1`} {
		if !strings.Contains(string(out), key) {
			t.Errorf("emission lacks %s", key)
		}
	}
}
