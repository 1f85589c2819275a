// Benchmark harness reproducing the paper's evaluation artifacts.
//
// One benchmark per table/figure: running
//
//	go test -bench=. -benchmem
//
// regenerates the quantities behind Table 2 (per-assay synthesis results),
// Fig. 8 (edge/valve ratios), Fig. 9 (storage optimization on/off), Fig. 10
// (channel caching vs dedicated storage) and Fig. 11 (execution snapshots),
// reported as custom benchmark metrics. Ablation benchmarks cover the design
// choices called out in DESIGN.md. Use cmd/paperbench for the same data as
// formatted tables.
package flowsyn

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"flowsyn/internal/arch"
	"flowsyn/internal/assay"
	"flowsyn/internal/core"
	"flowsyn/internal/dedicated"
	"flowsyn/internal/sched"
)

// run synthesizes one benchmark with the heuristic engine (the engine the
// paper effectively falls back to beyond IVD size; keeps benches fast).
func run(b *testing.B, name string, mode sched.Mode) (*core.Result, assay.Benchmark) {
	b.Helper()
	bench := assay.MustGet(name)
	res, err := core.Synthesize(bench.Graph, core.Options{
		Devices:   bench.Devices,
		Transport: bench.Transport,
		GridRows:  bench.GridRows,
		GridCols:  bench.GridCols,
		Mode:      mode,
		Engine:    core.Heuristic,
		ModelIO:   bench.ModelIO,
	})
	if err != nil {
		b.Fatalf("%s: %v", name, err)
	}
	return res, bench
}

// BenchmarkTable2 regenerates every row of Table 2: execution time tE,
// architecture size (ne channel segments, nv valves) and physical dimensions
// (reported as areas).
func BenchmarkTable2(b *testing.B) {
	for _, name := range assay.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res, _ = run(b, name, sched.TimeAndStorage)
			}
			b.ReportMetric(float64(res.Schedule.Makespan), "tE_s")
			b.ReportMetric(float64(res.Architecture.NumEdges), "ne")
			b.ReportMetric(float64(res.Architecture.NumValves), "nv")
			b.ReportMetric(float64(res.Physical.AfterSynthesis.Area()), "dr_area")
			b.ReportMetric(float64(res.Physical.AfterDevices.Area()), "de_area")
			b.ReportMetric(float64(res.Physical.Compressed.Area()), "dp_area")
		})
	}
}

// BenchmarkFig8_EdgeValveRatio regenerates Fig. 8: the ratio of used channel
// segments and valves to the full connection grid, per assay (all < 1).
func BenchmarkFig8_EdgeValveRatio(b *testing.B) {
	for _, name := range assay.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res, _ = run(b, name, sched.TimeAndStorage)
			}
			b.ReportMetric(res.Architecture.EdgeRatio, "edge_ratio")
			b.ReportMetric(res.Architecture.ValveRatio, "valve_ratio")
		})
	}
}

// BenchmarkFig9_StorageOptimization regenerates Fig. 9: execution time,
// edges and valves with storage optimization on versus off, for the three
// assays the paper plots (RA30, IVD, PCR).
func BenchmarkFig9_StorageOptimization(b *testing.B) {
	for _, name := range []string{"RA30", "IVD", "PCR"} {
		for _, mode := range []sched.Mode{sched.TimeOnly, sched.TimeAndStorage} {
			name, mode := name, mode
			b.Run(fmt.Sprintf("%s/%v", name, mode), func(b *testing.B) {
				var res *core.Result
				for i := 0; i < b.N; i++ {
					res, _ = run(b, name, mode)
				}
				b.ReportMetric(float64(res.Schedule.Makespan), "tE_s")
				b.ReportMetric(float64(res.Architecture.NumEdges), "ne")
				b.ReportMetric(float64(res.Architecture.NumValves), "nv")
				b.ReportMetric(float64(res.Schedule.StoreCount()), "stores")
			})
		}
	}
}

// BenchmarkFig10_DedicatedStorage regenerates Fig. 10: execution-time and
// valve ratios of the distributed-channel-storage chip versus the same
// schedule executed with a dedicated storage unit (both ratios < 1; the
// paper reports up to ~28% execution-time reduction on RA100).
func BenchmarkFig10_DedicatedStorage(b *testing.B) {
	for _, name := range assay.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			var cmp *dedicated.Comparison
			for i := 0; i < b.N; i++ {
				res, _ := run(b, name, sched.TimeAndStorage)
				var err error
				cmp, err = dedicated.Compare(res.Schedule, res.Architecture.NumValves)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cmp.ExecRatio, "exec_ratio")
			b.ReportMetric(cmp.ValveRatio, "valve_ratio")
		})
	}
}

// BenchmarkFig11_Snapshots regenerates Fig. 11: execution snapshots of the
// synthesized RA30 chip, measuring snapshot extraction and reporting how
// many moments show live caching.
func BenchmarkFig11_Snapshots(b *testing.B) {
	res, _ := run(b, "RA30", sched.TimeAndStorage)
	s := res.Simulator()
	times := s.InterestingTimes()
	caching := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		caching = 0
		for _, t := range times {
			if s.At(t).CachedSamples > 0 {
				caching++
			}
		}
	}
	b.ReportMetric(float64(len(times)), "snapshots")
	b.ReportMetric(float64(caching), "with_caching")
}

// BenchmarkAblationBeta compares the scheduler's storage term (the β weight
// of objective (6)) off/on through total storage time Σu.
func BenchmarkAblationBeta(b *testing.B) {
	for _, mode := range []sched.Mode{sched.TimeOnly, sched.TimeAndStorage} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			bench := assay.MustGet("CPA")
			var s *sched.Schedule
			for i := 0; i < b.N; i++ {
				var err error
				s, err = sched.ListSchedule(bench.Graph, sched.ListOptions{
					Devices: bench.Devices, Transport: bench.Transport, Mode: mode,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.StorageTime()), "sum_u_s")
			b.ReportMetric(float64(s.StoreCount()), "stores")
			b.ReportMetric(float64(s.Makespan), "tE_s")
		})
	}
}

// BenchmarkAblationEdgeReuse compares reuse-preferring routing costs (the
// greedy form of objective (12)) against flat costs.
func BenchmarkAblationEdgeReuse(b *testing.B) {
	bench := assay.MustGet("RA30")
	s, err := sched.ListSchedule(bench.Graph, sched.ListOptions{
		Devices: bench.Devices, Transport: bench.Transport, Mode: sched.TimeAndStorage,
	})
	if err != nil {
		b.Fatal(err)
	}
	grid, err := arch.NewGrid(bench.GridRows, bench.GridCols)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		label        string
		reuseC, newC int
	}{
		{"reuse-preferring", 10, 30},
		{"flat-cost", 10, 10},
	} {
		cfg := cfg
		b.Run(cfg.label, func(b *testing.B) {
			var res *arch.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = arch.Synthesize(s, grid, arch.Options{ReuseCost: cfg.reuseC, NewCost: cfg.newC})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.NumEdges), "ne")
			b.ReportMetric(float64(res.NumValves), "nv")
		})
	}
}

// BenchmarkAblationExactVsHeuristic compares the exact ILP scheduler against
// the list scheduler on PCR (the scale where both run).
func BenchmarkAblationExactVsHeuristic(b *testing.B) {
	bench := assay.MustGet("PCR")
	b.Run("heuristic", func(b *testing.B) {
		var s *sched.Schedule
		for i := 0; i < b.N; i++ {
			var err error
			s, err = sched.ListSchedule(bench.Graph, sched.ListOptions{
				Devices: bench.Devices, Transport: bench.Transport, Mode: sched.TimeAndStorage,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(s.Makespan), "tE_s")
	})
	b.Run("exact-ilp", func(b *testing.B) {
		var s *sched.Schedule
		for i := 0; i < b.N; i++ {
			var err error
			s, _, err = sched.ILPSchedule(bench.Graph, sched.ILPOptions{
				Devices: bench.Devices, Transport: bench.Transport, WarmStart: true,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(s.Makespan), "tE_s")
	})
}

// BenchmarkAblationPlacement compares the communication-weighted placement
// against naive row-major placement.
func BenchmarkAblationPlacement(b *testing.B) {
	bench := assay.MustGet("RA30")
	s, err := sched.ListSchedule(bench.Graph, sched.ListOptions{
		Devices: bench.Devices, Transport: bench.Transport, Mode: sched.TimeAndStorage,
	})
	if err != nil {
		b.Fatal(err)
	}
	grid, err := arch.NewGrid(bench.GridRows, bench.GridCols)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []arch.PlacementStrategy{arch.CommWeighted, arch.RowMajor} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			var res *arch.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = arch.Synthesize(s, grid, arch.Options{Strategy: strat})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.NumEdges), "ne")
			b.ReportMetric(float64(res.NumValves), "nv")
		})
	}
}

// BenchmarkMILPSolver measures the in-repo MILP substrate on the PCR
// scheduling formulation (the substitution for the paper's Gurobi runs),
// reporting the sparse warm-started branch-and-bound diagnostics alongside
// the wall clock. The pre-sparse dense-tableau core needed 3.3–8.3 s per
// solve here; the node/pivot metrics keep the trajectory comparable.
func BenchmarkMILPSolver(b *testing.B) {
	bench := assay.MustGet("PCR")
	var info *sched.ILPInfo
	for i := 0; i < b.N; i++ {
		var err error
		if _, info, err = sched.ILPSchedule(bench.Graph, sched.ILPOptions{
			Devices: bench.Devices, Transport: bench.Transport, WarmStart: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(info.Solver.Nodes), "nodes")
	b.ReportMetric(float64(info.Solver.SimplexIters), "pivots")
	b.ReportMetric(info.Solver.WarmStartRate(), "warm_rate")
	b.ReportMetric(float64(info.Solver.Presolve.FixedCols), "presolve_cols")
	b.ReportMetric(float64(info.Solver.Cuts.Clique), "clique_cuts")
	b.ReportMetric(float64(info.Solver.SeparationWall.Microseconds())/1e3, "sep_ms")
}

// BenchmarkBatchRunner measures the concurrent batch runner over all Table 2
// assays (heuristic engine) with one worker versus GOMAXPROCS workers — the
// wall-clock gap is the batch-level speedup on multi-core.
func BenchmarkBatchRunner(b *testing.B) {
	var jobs []Job
	for _, name := range assay.Names() {
		a, opts, err := Benchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		opts.Engine = HeuristicEngine
		jobs = append(jobs, Job{Name: name, Assay: a, Options: opts})
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := SynthesizeBatch(context.Background(), jobs, BatchOptions{Concurrency: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatalf("%s: %v", r.Job.Name, r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkEndToEnd measures the complete pipeline per assay (the paper's
// t_s + t_r + t_p columns in one number).
func BenchmarkEndToEnd(b *testing.B) {
	for _, name := range assay.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b, name, sched.TimeAndStorage)
			}
		})
	}
}
