package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"flowsyn"
	"flowsyn/internal/assay"
	"flowsyn/internal/milp"
	"flowsyn/internal/sched"
)

// benchRun is one (assay, engine) measurement in the -bench-json output.
type benchRun struct {
	Assay  string `json:"assay"`
	Engine string `json:"engine"`
	Ops    int    `json:"ops"`

	WallMS  float64 `json:"wall_ms"`  // full pipeline wall-clock
	SchedMS float64 `json:"sched_ms"` // schedule stage (the paper's t_s)

	Makespan int `json:"makespan"`
	Stores   int `json:"stores"`
	Segments int `json:"segments"`
	Valves   int `json:"valves"`

	// Solver is present exactly when the exact engine ran; its numeric
	// fields deliberately avoid omitempty so a proven-optimal gap of 0 (or
	// an all-cold warm-start rate of 0) stays distinguishable from missing
	// data in the trajectory.
	Solver *benchSolver `json:"solver,omitempty"`
}

// benchSolver is the MILP diagnostics block of one exact-engine run.
type benchSolver struct {
	Status        string  `json:"status"`
	Nodes         int     `json:"nodes"`
	Iterations    int     `json:"iterations"`
	WarmStartRate float64 `json:"warm_start_rate"`
	Gap           float64 `json:"gap"`
	PresolveCols  int     `json:"presolve_cols"`
	PresolveRows  int     `json:"presolve_rows"`
	Workers       int     `json:"workers"`
	Winner        string  `json:"winner"`

	// Basis-factorization kernel and node-propagation diagnostics (PR 4).
	Kernel           string  `json:"kernel,omitempty"`
	Refactorizations int     `json:"refactorizations"`
	FTUpdates        int     `json:"ft_updates"`
	FTRejected       int     `json:"ft_rejected"`
	FillRatio        float64 `json:"fill_ratio"`
	PropTightenings  int     `json:"prop_tightenings"`
	PropPrunes       int     `json:"prop_prunes"`

	// Cut-and-branch diagnostics (PR 6): root cutting planes, pseudo-cost
	// reliability probes, node-heuristic incumbents, reduced-cost fixings,
	// and the incremental-vs-full pricing pivot split.
	CutsSeparated     int `json:"cuts_separated"`
	CutsApplied       int `json:"cuts_applied"`
	CutsAgedOut       int `json:"cuts_aged_out"`
	CutRounds         int `json:"cut_rounds"`
	PseudoCostInits   int `json:"pseudo_cost_inits"`
	HeuristicIncumb   int `json:"heuristic_incumbents"`
	RCFixings         int `json:"rc_fixings"`
	IncrementalPivots int `json:"incremental_pivots"`
	FullPricingPivots int `json:"full_pricing_pivots"`

	// Storage-side dual-gap diagnostics (PR 8): conflict-graph clique cuts,
	// local-branching incumbents and the parallel separation wall-clock.
	CliqueCuts        int     `json:"clique_cuts"`
	LocalBranchIncumb int     `json:"local_branching_incumbents"`
	SeparationWallMS  float64 `json:"separation_wall_ms"`
}

// benchStrategyRun is one cell of the storage-strategy head-to-head matrix:
// the benchmark synthesized from scratch under one storage strategy (the
// Fig. 10 comparison done by synthesis, not by re-timing the distributed
// schedule). Every cell runs with verification forced on; Verified echoes the
// checker's confirmation so the artifact is self-certifying.
type benchStrategyRun struct {
	Assay    string `json:"assay"`
	Strategy string `json:"strategy"`
	Engine   string `json:"engine"`

	Makespan int `json:"makespan"`
	// StorageTime is the total channel-storage time Σu_c the schedule pays
	// (the paper's storage term of objective (6)).
	StorageTime int `json:"storage_time"`
	Stores      int `json:"stores"`
	// UnitStores counts the stores routed through the dedicated unit;
	// QueueDelay is the port-contention wait those stores accumulated.
	UnitStores int `json:"unit_stores"`
	QueueDelay int `json:"queue_delay"`

	Segments   int `json:"segments"`
	Valves     int `json:"valves"`
	UnitCells  int `json:"unit_cells"`
	UnitValves int `json:"unit_valves"`

	WallMS   float64 `json:"wall_ms"`
	Verified bool    `json:"verified"`
}

// benchGapRun is one instance of the seeded random-DAG gap suite: a synthetic
// assay DAG scheduled by the exact engine under the default benchmark time
// limit. The suite tracks how often the cut-and-branch engine closes the
// optimality gap outright; the baseline gate refuses regressions from proven
// optimal back to a positive gap.
type benchGapRun struct {
	Ops    int     `json:"ops"`
	Seed   int64   `json:"seed"`
	Status string  `json:"status"`
	Gap    float64 `json:"gap"`
	Nodes  int     `json:"nodes"`
	WallMS float64 `json:"wall_ms"`
	Winner string  `json:"winner"`
	// Optimal reports a full optimality proof (gap 0) inside the limit.
	Optimal bool `json:"optimal"`
	// Solver work counters: simplex pivots, root cut rounds, and the
	// improving incumbents found by the node heuristics and by local
	// branching. Baselines recorded before these fields existed read them
	// as zero; no gate compares them.
	Pivots            int `json:"pivots"`
	CutRounds         int `json:"cut_rounds"`
	HeuristicIncumb   int `json:"heuristic_incumbents"`
	LocalBranchIncumb int `json:"local_branching_incumbents"`
}

// benchCacheRun measures the session Solver's caches on one assay: a cold
// solve, an identical cached resolve, and a grid sweep sharing the schedule
// cache. The baseline gate fails loudly when the cache stops paying for
// itself (see checkCacheRuns).
type benchCacheRun struct {
	Assay string `json:"assay"`
	// ColdMS is the first solve's wall-clock; CachedMS the identical
	// resubmission's.
	ColdMS   float64 `json:"cold_ms"`
	CachedMS float64 `json:"cached_ms"`
	// CacheHit reports the resubmission was served from the result cache.
	CacheHit bool `json:"cache_hit"`
	// SweepPoints grid sizes were explored on the same session performing
	// SweepScheduleSolves full scheduling solves (SweepScheduleHits served
	// from the schedule cache).
	SweepPoints         int   `json:"sweep_points"`
	SweepScheduleSolves int64 `json:"sweep_schedule_solves"`
	SweepScheduleHits   int64 `json:"sweep_schedule_hits"`
}

// benchRecoveryRun measures fault-tolerant online re-synthesis on one assay:
// a mid-execution device fault is injected into a finished solve and the
// suffix recovered via Solver.Recover, against the cold alternative of
// re-synthesizing the whole assay from scratch on the masked chip (one device
// fewer). The baseline gate is self-relative, like the cache gate: online
// recovery losing to the cold restart means the splice stopped paying.
type benchRecoveryRun struct {
	Assay string `json:"assay"`
	// Fault renders the injected fault, e.g. "device 1 @ t=130".
	Fault string `json:"fault"`
	// RecoverMS is the online recovery's wall-clock; ColdMS the full cold
	// re-synthesis on the masked chip.
	RecoverMS float64 `json:"recover_ms"`
	ColdMS    float64 `json:"cold_ms"`
	// PreservedOps counts executed operations the splice carried over.
	PreservedOps int `json:"preserved_ops"`
	// OldMakespan/NewMakespan/MakespanDelta report what the fault cost the
	// recovered plan; ColdMakespan is the cold restart's for comparison.
	OldMakespan   int `json:"old_makespan"`
	NewMakespan   int `json:"new_makespan"`
	MakespanDelta int `json:"makespan_delta"`
	ColdMakespan  int `json:"cold_makespan"`
}

// benchLoadRun is one fleet load-harness measurement, written into the
// artifact by cmd/flowsynload (the JSON layout is shared; paperbench only
// reads it for the regression gate). The fleet fields record the single-solve
// property: N replicas sharing one persistent store must perform exactly
// ExpectedColdSolves scheduling solves between them.
type benchLoadRun struct {
	Fleet              []string `json:"fleet"`
	Benchmark          string   `json:"benchmark"`
	UniqueKeys         int      `json:"unique_keys"`
	Jobs               int      `json:"jobs"`
	Concurrency        int      `json:"concurrency"`
	DurationMS         float64  `json:"duration_ms"`
	ThroughputJPS      float64  `json:"throughput_jps"`
	ColdJobs           int      `json:"cold_jobs"`
	WarmJobs           int      `json:"warm_jobs"`
	ResynthJobs        int      `json:"resynth_jobs"`
	RecoverJobs        int      `json:"recover_jobs"`
	FailedJobs         int      `json:"failed_jobs"`
	P50MS              float64  `json:"p50_ms"`
	P95MS              float64  `json:"p95_ms"`
	P99MS              float64  `json:"p99_ms"`
	ColdP50MS          float64  `json:"cold_p50_ms"`
	ColdP95MS          float64  `json:"cold_p95_ms"`
	ColdP99MS          float64  `json:"cold_p99_ms"`
	CachedP50MS        float64  `json:"cached_p50_ms"`
	CachedP95MS        float64  `json:"cached_p95_ms"`
	CachedP99MS        float64  `json:"cached_p99_ms"`
	FleetScheduleSolve int64    `json:"fleet_schedule_solves"`
	ExpectedColdSolves int64    `json:"expected_cold_solves"`
	SingleFlight       bool     `json:"single_flight"`
	Notes              string   `json:"notes,omitempty"`
}

// benchFile is the schema of the machine-readable benchmark artifact; the
// perf trajectory across PRs compares these files.
type benchFile struct {
	Schema       string             `json:"schema"`
	Generated    string             `json:"generated"`
	GoVersion    string             `json:"go"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	Notes        string             `json:"notes,omitempty"`
	Runs         []benchRun         `json:"runs"`
	StrategyRuns []benchStrategyRun `json:"strategy_runs,omitempty"`
	CacheRuns    []benchCacheRun    `json:"cache_runs,omitempty"`
	GapRuns      []benchGapRun      `json:"gap_runs,omitempty"`
	RecoveryRuns []benchRecoveryRun `json:"recovery_runs,omitempty"`
	LoadRuns     []benchLoadRun     `json:"load_runs,omitempty"`
}

// runBenchJSON synthesizes every requested assay once per engine, collecting
// wall-clock and solver statistics, and writes the JSON artifact. strategies,
// when non-empty, additionally emits the storage-strategy head-to-head matrix.
func runBenchJSON(ctx context.Context, path, assays, notes, strategies string) error {
	names := flowsyn.BenchmarkNames()
	if assays != "" {
		names = nil
		for _, n := range strings.Split(assays, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	out := benchFile{
		Schema:     "flowsyn-bench/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Notes:      notes,
	}
	for _, name := range names {
		for _, eng := range []struct {
			label  string
			engine flowsyn.Engine
		}{
			{"heuristic", flowsyn.HeuristicEngine},
			{"exact-ilp", flowsyn.ILPEngine},
		} {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			a, opts, err := flowsyn.Benchmark(name)
			if err != nil {
				return err
			}
			opts.Engine = eng.engine
			opts.ILPTimeLimit = 20 * time.Second
			start := time.Now()
			res, err := flowsyn.SynthesizeContext(ctx, a, opts)
			wall := time.Since(start)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, eng.label, err)
			}
			run := benchRun{
				Assay:    name,
				Engine:   eng.label,
				Ops:      a.NumOperations(),
				WallMS:   float64(wall.Microseconds()) / 1e3,
				SchedMS:  float64(res.SchedulingTime().Microseconds()) / 1e3,
				Makespan: res.Makespan(),
				Stores:   res.StoreCount(),
				Segments: res.ChannelSegments(),
				Valves:   res.Valves(),
			}
			if sv := res.SolverStats(); sv != nil {
				run.Solver = &benchSolver{
					Status:           sv.Status,
					Nodes:            sv.Nodes,
					Iterations:       sv.Iterations,
					WarmStartRate:    sv.WarmStartRate,
					Gap:              sv.Gap,
					PresolveCols:     sv.PresolveFixedCols,
					PresolveRows:     sv.PresolveRemovedRows,
					Workers:          sv.Workers,
					Winner:           sv.Winner,
					Kernel:           sv.Kernel,
					Refactorizations: sv.Refactorizations,
					FTUpdates:        sv.FTUpdates,
					FTRejected:       sv.FTUpdatesRejected,
					FillRatio:        sv.FillRatio,
					PropTightenings:  sv.PropagationTightenings,
					PropPrunes:       sv.PropagationPrunes,

					CutsSeparated:     sv.CutsSeparated,
					CutsApplied:       sv.CutsApplied,
					CutsAgedOut:       sv.CutsAgedOut,
					CutRounds:         sv.CutRounds,
					PseudoCostInits:   sv.PseudoCostInits,
					HeuristicIncumb:   sv.HeuristicIncumbents,
					RCFixings:         sv.ReducedCostFixings,
					IncrementalPivots: sv.IncrementalPivots,
					FullPricingPivots: sv.FullPricingPivots,

					CliqueCuts:        sv.CliqueCuts,
					LocalBranchIncumb: sv.LocalBranchingIncumbents,
					SeparationWallMS:  float64(sv.SeparationWall.Microseconds()) / 1e3,
				}
			}
			out.Runs = append(out.Runs, run)
		}
	}
	if strategies != "" {
		sr, err := runStrategyMatrix(ctx, names, strategies)
		if err != nil {
			return err
		}
		out.StrategyRuns = sr
	}
	for _, name := range names {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		cr, err := runCacheBench(ctx, name)
		if err != nil {
			return fmt.Errorf("%s/cache: %w", name, err)
		}
		out.CacheRuns = append(out.CacheRuns, cr)
	}
	for _, name := range names {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		rr, ok, err := runRecoveryBench(ctx, name)
		if err != nil {
			return fmt.Errorf("%s/recovery: %w", name, err)
		}
		if ok {
			out.RecoveryRuns = append(out.RecoveryRuns, rr)
		}
	}
	gapRuns, err := runGapSuite(ctx)
	if err != nil {
		return err
	}
	out.GapRuns = gapRuns
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d benchmark runs to %s\n", len(out.Runs), path)
	return nil
}

// runStrategyMatrix synthesizes each benchmark from scratch under every
// requested storage strategy — the Fig. 10 head-to-head by synthesis, not
// re-timing. Every cell runs the deterministic heuristic engine (so the
// checked-in artifact is byte-stable) with verification forced on: a cell
// whose strategy-aware invariants fail aborts the emission.
func runStrategyMatrix(ctx context.Context, names []string, strategies string) ([]benchStrategyRun, error) {
	var policies []flowsyn.StoragePolicy
	for _, s := range strings.Split(strategies, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		pol, err := flowsyn.ParseStoragePolicy(s)
		if err != nil {
			return nil, fmt.Errorf("-strategies: %w", err)
		}
		policies = append(policies, pol)
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("-strategies: no strategies given")
	}
	var runs []benchStrategyRun
	for _, name := range names {
		for _, pol := range policies {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			a, opts, err := flowsyn.Benchmark(name)
			if err != nil {
				return nil, err
			}
			opts.Engine = flowsyn.HeuristicEngine
			opts.Storage = pol
			opts.Verify = true
			start := time.Now()
			res, err := flowsyn.SynthesizeContext(ctx, a, opts)
			wall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, pol, err)
			}
			runs = append(runs, benchStrategyRun{
				Assay:       name,
				Strategy:    pol.String(),
				Engine:      "heuristic",
				Makespan:    res.Makespan(),
				StorageTime: res.StorageCapacity(),
				Stores:      res.StoreCount(),
				UnitStores:  res.UnitStoreCount(),
				QueueDelay:  res.UnitQueueDelay(),
				Segments:    res.ChannelSegments(),
				Valves:      res.Valves(),
				UnitCells:   res.UnitCells(),
				UnitValves:  res.UnitValves(),
				WallMS:      float64(wall.Microseconds()) / 1e3,
				Verified:    res.Verified(),
			})
		}
	}
	return runs, nil
}

// runCacheBench measures the session Solver's caches on one benchmark: a
// cold solve, an identical resubmission (result cache) and a 4-point grid
// sweep (schedule cache), all on one session.
func runCacheBench(ctx context.Context, name string) (benchCacheRun, error) {
	a, opts, err := flowsyn.Benchmark(name)
	if err != nil {
		return benchCacheRun{}, err
	}
	opts.ILPTimeLimit = 20 * time.Second
	s, err := flowsyn.New(flowsyn.Config{Workers: 1})
	if err != nil {
		return benchCacheRun{}, err
	}
	defer s.Close()

	solve := func() (*flowsyn.Result, time.Duration, error) {
		start := time.Now()
		t, err := s.Submit(ctx, flowsyn.Job{Name: name, Assay: a, Options: opts})
		if err != nil {
			return nil, 0, err
		}
		res, err := t.Wait(ctx)
		return res, time.Since(start), err
	}
	_, cold, err := solve()
	if err != nil {
		return benchCacheRun{}, err
	}
	cachedRes, cached, err := solve()
	if err != nil {
		return benchCacheRun{}, err
	}
	cr := benchCacheRun{
		Assay:    name,
		ColdMS:   float64(cold.Microseconds()) / 1e3,
		CachedMS: float64(cached.Microseconds()) / 1e3,
		CacheHit: cachedRes.JobStats() != nil && cachedRes.JobStats().CacheHit,
	}

	before := s.Stats()
	sweep, err := s.ExploreGrids(ctx, a, opts, flowsyn.GridRange{
		MinSize: opts.GridRows, MaxSize: opts.GridRows + 3, Concurrency: 1,
	})
	if err != nil {
		return benchCacheRun{}, err
	}
	after := s.Stats()
	for _, p := range sweep {
		if p.Err == nil {
			cr.SweepPoints++
		}
	}
	cr.SweepScheduleSolves = after.ScheduleSolves - before.ScheduleSolves
	cr.SweepScheduleHits = after.ScheduleCacheHits - before.ScheduleCacheHits
	return cr, nil
}

// runRecoveryBench injects one mid-execution device fault into a finished
// synthesis of the benchmark and times the online recovery of its suffix
// against a cold full re-synthesis on the masked chip (one device fewer, no
// caches). Benchmarks with a single device cannot absorb a device fault and
// are skipped (ok false).
func runRecoveryBench(ctx context.Context, name string) (benchRecoveryRun, bool, error) {
	a, opts, err := flowsyn.Benchmark(name)
	if err != nil {
		return benchRecoveryRun{}, false, err
	}
	if opts.Devices < 2 {
		return benchRecoveryRun{}, false, nil
	}
	opts.ILPTimeLimit = 20 * time.Second
	s, err := flowsyn.New(flowsyn.Config{Workers: 1, CacheEntries: -1})
	if err != nil {
		return benchRecoveryRun{}, false, err
	}
	defer s.Close()

	prior, err := s.Submit(ctx, flowsyn.Job{Name: name, Assay: a, Options: opts})
	if err != nil {
		return benchRecoveryRun{}, false, err
	}
	res, err := prior.Wait(ctx)
	if err != nil {
		return benchRecoveryRun{}, false, err
	}

	fault := flowsyn.Fault{Kind: flowsyn.DeviceFault, Time: res.Makespan() / 2, Device: 1}
	start := time.Now()
	rt, err := s.Recover(ctx, prior, fault)
	if err != nil {
		return exemptRecovery(ctx, name, fault, err)
	}
	rec, err := rt.Wait(ctx)
	recoverWall := time.Since(start)
	if err != nil {
		return exemptRecovery(ctx, name, fault, err)
	}
	stats := rec.Recovery()

	// The cold alternative: forget the interrupted execution and re-run the
	// whole assay from scratch on a chip without the failed device.
	masked := opts
	masked.Devices--
	start = time.Now()
	coldT, err := s.Submit(ctx, flowsyn.Job{Name: name + "-masked", Assay: a, Options: masked})
	if err != nil {
		return exemptRecovery(ctx, name, fault, err)
	}
	coldRes, err := coldT.Wait(ctx)
	coldWall := time.Since(start)
	if err != nil {
		return exemptRecovery(ctx, name, fault, err)
	}

	return benchRecoveryRun{
		Assay:         name,
		Fault:         fault.String(),
		RecoverMS:     float64(recoverWall.Microseconds()) / 1e3,
		ColdMS:        float64(coldWall.Microseconds()) / 1e3,
		PreservedOps:  stats.PreservedOps,
		OldMakespan:   stats.OldMakespan,
		NewMakespan:   stats.NewMakespan,
		MakespanDelta: stats.MakespanDelta,
		ColdMakespan:  coldRes.Makespan(),
	}, true, nil
}

// exemptRecovery logs and skips a benchmark whose fault recovery (or masked
// cold restart) is infeasible: storage-tight assays like RA70 genuinely
// cannot absorb the loss of a device mid-execution — the degraded chip has
// no storage segment left for the suffix. That is a property of the
// instance, not a solver regression, so it is exempted from recovery_runs
// rather than failing the emission. Context cancellation still aborts.
func exemptRecovery(ctx context.Context, name string, fault flowsyn.Fault, err error) (benchRecoveryRun, bool, error) {
	if ctx.Err() != nil {
		return benchRecoveryRun{}, false, ctx.Err()
	}
	fmt.Fprintf(os.Stderr,
		"bench-json: %s: recovery from %s infeasible, exempted from recovery_runs: %v\n",
		name, fault, err)
	return benchRecoveryRun{}, false, nil
}

// gapSuiteLimit is the per-instance time limit of the seeded gap suite; it
// matches the exact engine's 30-second default (ILPOptions.TimeLimit zero).
const gapSuiteLimit = 30 * time.Second

// gapGateMargin is the fraction of gapSuiteLimit a baseline run must have
// closed within for the regression gate to require a fresh proof: instances
// that barely made the limit on the recording machine would gate flakily on
// slower hardware, so only comfortable proofs are binding.
const gapGateMargin = 0.5

// runGapSuite schedules the seeded random-DAG instances (16-20 operations,
// two seeds each) with the exact engine and records whether each closed to a
// full optimality proof. The instances are deterministic, so a fresh emission
// is directly comparable with a checked-in baseline.
func runGapSuite(ctx context.Context) ([]benchGapRun, error) {
	var runs []benchGapRun
	for ops := 16; ops <= 20; ops++ {
		for seed := int64(1); seed <= 2; seed++ {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			g := assay.Random(ops, 3, seed)
			start := time.Now()
			_, info, err := sched.ILPScheduleContext(ctx, g, sched.ILPOptions{
				Devices: 4, Transport: 10, WarmStart: true, TimeLimit: gapSuiteLimit,
			})
			wall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("gap suite ops=%d seed=%d: %w", ops, seed, err)
			}
			runs = append(runs, benchGapRun{
				Ops:     ops,
				Seed:    seed,
				Status:  info.Status.String(),
				Gap:     info.Solver.Gap,
				Nodes:   info.Solver.Nodes,
				WallMS:  float64(wall.Microseconds()) / 1e3,
				Winner:  info.Winner,
				Optimal: info.Status == milp.StatusOptimal,

				Pivots:            info.Solver.SimplexIters,
				CutRounds:         info.Solver.Cuts.Rounds,
				HeuristicIncumb:   info.Solver.HeuristicIncumbents,
				LocalBranchIncumb: info.Solver.LocalBranchingIncumbents,
			})
		}
	}
	return runs, nil
}

// benchRegressLimit is the wall-clock regression factor the baseline check
// tolerates: CI machines differ from the machine that recorded the
// checked-in baseline, so only a >3× slowdown of a proven-optimal exact
// solve counts as a regression.
const benchRegressLimit = 3.0

// benchRecoverLimit is the self-relative factor online recovery may cost
// versus the cold masked re-synthesis measured in the same emission before
// the gate fails: the splice solves a strictly smaller problem, so parity is
// expected and the margin only absorbs within-run timer jitter.
const benchRecoverLimit = 1.25

// benchRecoverSlackMS is an absolute grace on top of the relative recovery
// gate: on millisecond-scale solves a single scheduler hiccup can multiply
// the measured wall several-fold without any code regression, so the gate
// only binds once the recovery is both relatively and absolutely slower.
const benchRecoverSlackMS = 2.0

// checkBenchRegression compares a fresh -bench-json emission against a
// checked-in baseline (e.g. BENCH_pr3.json). For every exact-ILP run the
// baseline proved optimal, the fresh run must reach the identical makespan
// and stay within benchRegressLimit of the baseline wall time; a heuristic
// run changing its makespan also fails, since those are fully deterministic.
func checkBenchRegression(freshPath, baselinePath string) error {
	read := func(path string) (*benchFile, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f benchFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &f, nil
	}
	fresh, err := read(freshPath)
	if err != nil {
		return err
	}
	base, err := read(baselinePath)
	if err != nil {
		return err
	}
	freshRuns := make(map[[2]string]*benchRun, len(fresh.Runs))
	for i := range fresh.Runs {
		r := &fresh.Runs[i]
		freshRuns[[2]string{r.Assay, r.Engine}] = r
	}
	var failures []string
	checked := 0
	for i := range base.Runs {
		b := &base.Runs[i]
		f, ok := freshRuns[[2]string{b.Assay, b.Engine}]
		if !ok {
			continue
		}
		switch {
		case b.Engine == "exact-ilp" && b.Solver != nil && b.Solver.Status == "optimal":
			checked++
			if f.Makespan != b.Makespan {
				failures = append(failures, fmt.Sprintf(
					"%s/%s: proven-optimal makespan changed %d -> %d",
					b.Assay, b.Engine, b.Makespan, f.Makespan))
			}
			if f.WallMS > benchRegressLimit*b.WallMS {
				failures = append(failures, fmt.Sprintf(
					"%s/%s: wall time regressed %.3fms -> %.3fms (>%gx)",
					b.Assay, b.Engine, b.WallMS, f.WallMS, benchRegressLimit))
			}
		case b.Engine == "heuristic":
			checked++
			if f.Makespan != b.Makespan {
				failures = append(failures, fmt.Sprintf(
					"%s/%s: deterministic heuristic makespan changed %d -> %d",
					b.Assay, b.Engine, b.Makespan, f.Makespan))
			}
		}
	}
	// Gap-suite gate: an instance the baseline proved optimal must stay
	// proven optimal (a regression to a positive gap means the cut-and-branch
	// engine lost proving power), and its wall time must stay within the same
	// cross-machine regression factor as the assay runs. Baselines predating
	// the gap suite carry no gap runs and skip the gate.
	gapChecked := 0
	freshGaps := make(map[[2]int64]*benchGapRun, len(fresh.GapRuns))
	for i := range fresh.GapRuns {
		r := &fresh.GapRuns[i]
		freshGaps[[2]int64{int64(r.Ops), r.Seed}] = r
	}
	for i := range base.GapRuns {
		b := &base.GapRuns[i]
		// Only instances the baseline proved with comfortable margin are
		// binding: a proof that barely made the recording machine's limit
		// would flake on slower CI hardware.
		if !b.Optimal || b.WallMS > gapGateMargin*float64(gapSuiteLimit.Milliseconds()) {
			continue
		}
		f, ok := freshGaps[[2]int64{int64(b.Ops), b.Seed}]
		if !ok {
			failures = append(failures, fmt.Sprintf(
				"gap ops=%d seed=%d: baseline-proven instance missing from fresh emission",
				b.Ops, b.Seed))
			continue
		}
		gapChecked++
		if !f.Optimal {
			failures = append(failures, fmt.Sprintf(
				"gap ops=%d seed=%d: proven optimal regressed to gap %.4f (%s)",
				b.Ops, b.Seed, f.Gap, f.Status))
		}
		if f.WallMS > benchRegressLimit*b.WallMS {
			failures = append(failures, fmt.Sprintf(
				"gap ops=%d seed=%d: wall time regressed %.3fms -> %.3fms (>%gx)",
				b.Ops, b.Seed, b.WallMS, f.WallMS, benchRegressLimit))
		}
	}

	cacheChecked, recoveryChecked, loadChecked, strategyChecked, selfFailures := selfRelativeGates(fresh)
	failures = append(failures, selfFailures...)
	// Strategy-matrix baseline gate: the matrix runs the deterministic
	// heuristic engine, so any makespan drift against a baseline that carries
	// the same (assay, strategy) cell is a real behavior change.
	freshStrats := make(map[[2]string]*benchStrategyRun, len(fresh.StrategyRuns))
	for i := range fresh.StrategyRuns {
		r := &fresh.StrategyRuns[i]
		freshStrats[[2]string{r.Assay, r.Strategy}] = r
	}
	for i := range base.StrategyRuns {
		b := &base.StrategyRuns[i]
		f, ok := freshStrats[[2]string{b.Assay, b.Strategy}]
		if !ok {
			continue
		}
		strategyChecked++
		if f.Makespan != b.Makespan {
			failures = append(failures, fmt.Sprintf(
				"%s/%s: deterministic strategy makespan changed %d -> %d",
				b.Assay, b.Strategy, b.Makespan, f.Makespan))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "bench-regression: "+f)
		}
		return fmt.Errorf("%d benchmark regression(s) against %s", len(failures), baselinePath)
	}
	if cacheChecked == 0 {
		return fmt.Errorf("fresh emission carries no cache runs; the cache gate checked nothing")
	}
	if checked == 0 {
		// A gate that matched nothing is not a passing gate: renamed engines,
		// a dropped assay, or an over-narrow -bench-assays filter would
		// otherwise keep CI green while checking nothing at all.
		return fmt.Errorf("no fresh run matched any baseline run in %s; the regression gate checked nothing", baselinePath)
	}
	fmt.Printf("bench-regression: %d runs + %d cache runs + %d gap runs + %d recovery runs + %d load runs + %d strategy runs checked against %s, no regressions\n",
		checked, cacheChecked, gapChecked, recoveryChecked, loadChecked, strategyChecked, baselinePath)
	return nil
}

// selfRelativeGates runs the gates needing no baseline file: cache, recovery
// and fleet-load measurements each compare two populations inside one
// emission (cached vs cold, recovery vs cold restart, warm vs cold fleet
// percentiles), so they bind on any machine regardless of what hardware
// recorded the checked-in baseline.
func selfRelativeGates(fresh *benchFile) (cacheChecked, recoveryChecked, loadChecked, strategyChecked int, failures []string) {
	// The strategy-matrix gate restates the paper's thesis as an invariant:
	// synthesized under the same engine, distributed channel storage must
	// never lose to the dedicated storage unit on a benchmark assay (the unit
	// only adds port serialization and transport legs). Every cell must also
	// carry the verifier's confirmation — an unverified cell means the
	// emission lost its strategy-aware invariant checking.
	dist := make(map[string]*benchStrategyRun)
	ded := make(map[string]*benchStrategyRun)
	for i := range fresh.StrategyRuns {
		sr := &fresh.StrategyRuns[i]
		strategyChecked++
		if !sr.Verified {
			failures = append(failures, fmt.Sprintf(
				"%s/%s: strategy run not verified", sr.Assay, sr.Strategy))
		}
		switch sr.Strategy {
		case "distributed":
			dist[sr.Assay] = sr
		case "dedicated":
			ded[sr.Assay] = sr
		}
	}
	for assay, d := range dist {
		u, ok := ded[assay]
		if !ok {
			continue
		}
		if d.Makespan > u.Makespan {
			failures = append(failures, fmt.Sprintf(
				"%s/strategy: distributed makespan %d lost to dedicated %d (paper's Fig. 10 inverted)",
				assay, d.Makespan, u.Makespan))
		}
	}
	for i := range fresh.CacheRuns {
		cr := &fresh.CacheRuns[i]
		cacheChecked++
		if !cr.CacheHit {
			failures = append(failures, fmt.Sprintf(
				"%s/cache: identical resubmission missed the result cache", cr.Assay))
		}
		// A cached resolve re-running a meaningful fraction of the pipeline
		// is a regression; sub-millisecond colds are below timer noise.
		if cr.CachedMS > 0.5*cr.ColdMS && cr.CachedMS > 1.0 {
			failures = append(failures, fmt.Sprintf(
				"%s/cache: cached resolve %.3fms vs cold %.3fms (cache stopped paying)",
				cr.Assay, cr.CachedMS, cr.ColdMS))
		}
		if cr.SweepPoints > 1 && cr.SweepScheduleSolves >= int64(cr.SweepPoints) {
			failures = append(failures, fmt.Sprintf(
				"%s/cache: grid sweep ran %d schedule solves for %d points (schedule cache dead)",
				cr.Assay, cr.SweepScheduleSolves, cr.SweepPoints))
		}
	}
	// Online recovery re-plans only the post-fault suffix while the cold
	// restart re-plans everything, so a recovery meaningfully slower than the
	// cold restart in the same run means the splice stopped paying.
	// benchRecoverLimit leaves relative headroom and benchRecoverSlackMS
	// absolute headroom for within-run timer jitter; sub-millisecond runs are
	// below timer noise entirely.
	for i := range fresh.RecoveryRuns {
		rr := &fresh.RecoveryRuns[i]
		recoveryChecked++
		if rr.NewMakespan <= 0 {
			failures = append(failures, fmt.Sprintf(
				"%s/recovery: no recovered plan (makespan %d)", rr.Assay, rr.NewMakespan))
		}
		if rr.RecoverMS > benchRecoverLimit*rr.ColdMS+benchRecoverSlackMS && rr.RecoverMS > 1.0 {
			failures = append(failures, fmt.Sprintf(
				"%s/recovery: online recovery %.3fms vs cold re-synthesis %.3fms (>%gx+%gms, splice stopped paying)",
				rr.Assay, rr.RecoverMS, rr.ColdMS, benchRecoverLimit, benchRecoverSlackMS))
		}
	}
	// The fleet-load gate: the persistent store plus cross-replica
	// single-flight must have held (exactly one cold solve per unique key
	// fleet-wide), no job may have failed, and the warm path must be at
	// least twice as fast as the cold path at the median once cold solves
	// rise above timer noise.
	for i := range fresh.LoadRuns {
		lr := &fresh.LoadRuns[i]
		loadChecked++
		if !lr.SingleFlight {
			failures = append(failures, fmt.Sprintf(
				"%s/load: fleet of %d performed %d cold solves for %d expected (single-flight broken)",
				lr.Benchmark, len(lr.Fleet), lr.FleetScheduleSolve, lr.ExpectedColdSolves))
		}
		if lr.FailedJobs > 0 {
			failures = append(failures, fmt.Sprintf(
				"%s/load: %d of %d jobs failed", lr.Benchmark, lr.FailedJobs, lr.Jobs))
		}
		if lr.ColdP50MS > 1.0 && lr.CachedP50MS > 0.5*lr.ColdP50MS {
			failures = append(failures, fmt.Sprintf(
				"%s/load: warm p50 %.3fms vs cold p50 %.3fms (serve path stopped paying)",
				lr.Benchmark, lr.CachedP50MS, lr.ColdP50MS))
		}
	}
	return cacheChecked, recoveryChecked, loadChecked, strategyChecked, failures
}

// checkBenchFile runs only the self-relative gates on an existing artifact
// (no fresh emission, no baseline): the -bench-check mode CI uses to gate a
// flowsynload artifact produced against a live fleet.
func checkBenchFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	cacheChecked, recoveryChecked, loadChecked, strategyChecked, failures := selfRelativeGates(&f)
	if len(failures) > 0 {
		for _, msg := range failures {
			fmt.Fprintln(os.Stderr, "bench-check: "+msg)
		}
		return fmt.Errorf("%d failure(s) in %s", len(failures), path)
	}
	if cacheChecked+recoveryChecked+loadChecked+strategyChecked == 0 {
		return fmt.Errorf("%s carries no cache, recovery, load or strategy runs; the gate checked nothing", path)
	}
	fmt.Printf("bench-check: %d cache runs + %d recovery runs + %d load runs + %d strategy runs checked in %s, no failures\n",
		cacheChecked, recoveryChecked, loadChecked, strategyChecked, path)
	return nil
}
