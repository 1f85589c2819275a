package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"flowsyn"
	"flowsyn/internal/arch"
	"flowsyn/internal/milp"
	"flowsyn/internal/phys"
	"flowsyn/internal/sched"
	"flowsyn/internal/storage"
	"flowsyn/internal/verify"
)

// Layer span names of the traced replay, in pipeline order.
const (
	layerJob    = "job"
	layerSched  = "sched"
	layerBind   = "bind"
	layerArch   = "arch"
	layerPhys   = "phys"
	layerVerify = "verify"
)

// warmupAssay names the paper assay whose jobs make up the untimed warm-up
// pass of each compile workload; it is in every seed's job list, so set-up
// time does not depend on the seed.
var warmupAssay = map[Class]string{Exact: "PCR", Large: "CPA"}

// runCompile runs the exact or list-large workload: one closed-loop client
// calls flowsyn.SynthesizeContext on each job in turn, in whole passes over
// the seeded job list until cfg.Seconds have passed. With cfg.Trace each
// job is also replayed through the layers directly.
func runCompile(c Class, cfg runConfig) (*metricSet, int, int, error) {
	ctx := context.Background()
	var jobs []*job
	setupS := make([]float64, 0, setups)
	for range setups {
		t0 := time.Now()
		js, err := compileJobs(c, cfg.Seed)
		if err != nil {
			return nil, 0, 0, err
		}
		for _, j := range js {
			if j.Spec.Label != warmupAssay[c] {
				continue
			}
			if _, err := flowsyn.SynthesizeContext(ctx, j.Assay, j.Opts); err != nil {
				return nil, 0, 0, fmt.Errorf("warm-up %s: %w", j.Spec.Label, err)
			}
			if cfg.Trace {
				if _, err := replay(ctx, j, -1, nil); err != nil {
					return nil, 0, 0, fmt.Errorf("warm-up replay %s: %w", j.Spec.Label, err)
				}
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		jobs = js
	}
	if len(jobs) == 0 {
		return nil, 0, 0, fmt.Errorf("empty job list")
	}

	var (
		tr                    = newTracer()
		acc                   layerAcc
		ref                   = make([]*chip, len(jobs))
		apiMS, tracedMS       []float64
		queueMS               []float64
		attempted, failed, ok int
		ms0, ms1              runtime.MemStats
	)
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for pass := 0; ; pass++ {
		for i, j := range jobs {
			id := pass*len(jobs) + i
			attempted++
			t0 := time.Now()
			res, err := flowsyn.SynthesizeContext(ctx, j.Assay, j.Opts)
			d := msSince(t0)
			if err == nil {
				err = checkResult(res, j.Bound)
			}
			if err == nil {
				got := chipOf(res)
				if ref[i] == nil {
					ref[i] = &got
				} else if got != *ref[i] {
					err = fmt.Errorf("pass %d gave %v, pass 0 gave %v", pass, got, *ref[i])
				}
			}
			if err == nil && cfg.Trace {
				if js := res.JobStats(); js != nil {
					queueMS = append(queueMS, float64(js.QueueWait.Nanoseconds())/1e6)
				}
				t1 := time.Now()
				var out replayOut
				out, err = replay(ctx, j, id, tr)
				tracedMS = append(tracedMS, msSince(t1))
				acc.add(out)
				if err == nil && out.Chip != *ref[i] {
					err = fmt.Errorf("replay gave %v, the API gave %v", out.Chip, *ref[i])
				}
			}
			if err != nil {
				failed++
				apiMS = append(apiMS, math.Inf(1))
				fmt.Fprintf(os.Stderr, "flowbench: %s %s: %v\n", j.Spec.Label, configName(j.Cfg), err)
				continue
			}
			ok++
			apiMS = append(apiMS, d)
		}
		if time.Since(start).Seconds() >= cfg.Seconds {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	m := newMetricSet()
	if cfg.Trace {
		if err := tr.write(cfg.SpansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed)); err != nil {
			return nil, 0, 0, err
		}
		acc.report(m, tr.ms)
		m.add("service.queue_ms.p50", "ms", median(queueMS), len(queueMS))
		m.add("service.result_hit_frac", "frac", 0, 0)
		m.add("service.schedule_hit_frac", "frac", 0, 0)
		m.add("service.coalesced", "count", 0, 0)
		m.add("service.schedule_solves", "count", float64(ok), 0)
		m.add("service.cold_ms.p50", "ms", median(apiMS), len(apiMS))
		m.add("service.warm_ms.p50", "ms", 0, 0)
		addZeroServeLayers(m)
		m.add("trace.overhead_frac", "frac", median(tracedMS)/median(apiMS)-1, len(tracedMS))
		return m, attempted, failed, nil
	}
	var ratios, valves []float64
	for i, r := range ref {
		if r == nil {
			continue
		}
		ratios = append(ratios, float64(r.Makespan)/float64(jobs[i].Bound))
		valves = append(valves, float64(max(r.Valves, 1)))
	}
	m.add("job_ms.p50", "ms", median(apiMS), len(apiMS))
	m.add("job_ms.p90", "ms", percentile(apiMS, 0.9), len(apiMS))
	m.add("jobs_per_s", "1/s", float64(ok)/elapsed, ok)
	m.add("makespan_ratio", "ratio", geomean(ratios), len(ratios))
	m.add("valves", "count", geomean(valves), len(valves))
	m.add("setup_s", "s", median(setupS), len(setupS))
	m.add("alloc_mb_per_job", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(attempted)/(1<<20), attempted)
	m.add("peak_rss_mb", "MB", peakRSSMB(), 0)
	return m, attempted, failed, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// replayOut is what the traced replay of one job produced.
type replayOut struct {
	Chip                                     chip
	Transports, Stored, UnitStored, UnitWait int
	ILP                                      *sched.ILPInfo
	ArchCalls, ArchErrors                    int
}

// replay runs one job through the layers' entry points in the order and with
// the options the pipeline uses, recording one span per layer call under the
// job's span when tr is non-nil.
func replay(ctx context.Context, j *job, id int, tr *tracer) (replayOut, error) {
	var out replayOut
	jobStart := time.Now()
	last := jobStart
	mark := func(layer string) {
		now := time.Now()
		if tr != nil {
			tr.add(id, layer, layerJob, last, now)
		}
		last = now
	}
	defer func() {
		if tr != nil {
			tr.add(id, layerJob, "", jobStart, time.Now())
		}
	}()

	g := j.Spec.Graph
	policy := storage.Config{Policy: storageOf(j.Opts.Storage)}
	mode, beta := sched.TimeAndStorage, 0.0
	if j.Opts.Objective == flowsyn.MinimizeTimeOnly {
		mode, beta = sched.TimeOnly, -1
	}
	var (
		s   *sched.Schedule
		err error
	)
	if g.NumOps() <= sched.MaxExactOps {
		s, out.ILP, err = sched.PortfolioSchedule(ctx, g, sched.ILPOptions{
			Devices:   j.Opts.Devices,
			Transport: j.Opts.Transport,
			Beta:      beta,
			WarmStart: true,
			Storage:   storage.New(policy),
		})
	} else {
		s, err = sched.ListScheduleContext(ctx, g, sched.ListOptions{
			Devices:   j.Opts.Devices,
			Transport: j.Opts.Transport,
			Mode:      mode,
			Storage:   storage.New(policy),
		})
	}
	mark(layerSched)
	if err != nil {
		return out, fmt.Errorf("sched: %w", err)
	}
	out.UnitWait = s.UnitQueueDelay

	err = s.Validate()
	if err == nil {
		tasks := s.Tasks()
		out.Transports = len(tasks)
		for _, t := range tasks {
			if t.Kind == sched.Stored {
				out.Stored++
				if t.Unit {
					out.UnitStored++
				}
			}
		}
	}
	mark(layerBind)
	if err != nil {
		return out, fmt.Errorf("bind: %w", err)
	}

	out.ArchCalls++
	grid, err := arch.NewGrid(j.Opts.GridRows, j.Opts.GridCols)
	var a *arch.Result
	if err == nil {
		a, err = arch.SynthesizeContext(ctx, s, grid, arch.Options{ModelIO: j.Opts.ModelIO})
	}
	mark(layerArch)
	if err != nil {
		out.ArchErrors++
		return out, fmt.Errorf("arch: %w", err)
	}
	out.Chip = chip{Makespan: s.Makespan, Segments: a.NumEdges, Valves: a.NumValves}

	_, err = phys.Compute(a, phys.Options{})
	mark(layerPhys)
	if err != nil {
		return out, fmt.Errorf("phys: %w", err)
	}

	rep, err := verify.CheckAllStrategy(s, a, storage.New(policy))
	if err == nil && (rep.Transports != out.Transports || rep.Stored != out.Stored) {
		err = fmt.Errorf("bind counted %d transports, %d stored; verify recomputed %d, %d",
			out.Transports, out.Stored, rep.Transports, rep.Stored)
	}
	mark(layerVerify)
	if err != nil {
		return out, fmt.Errorf("verify: %w", err)
	}
	return out, nil
}

// storageOf maps the public storage policy onto the storage layer's.
func storageOf(p flowsyn.StoragePolicy) storage.Policy {
	switch p {
	case flowsyn.DedicatedStorage:
		return storage.Dedicated
	case flowsyn.HybridStorage:
		return storage.Hybrid
	}
	return storage.Distributed
}

// layerAcc sums the traced replay's counters over jobs.
type layerAcc struct {
	jobs                                     int
	transports, stored, unitStored, unitWait int
	segments, valves                         int
	archCalls, archErrors                    int
	ilp, proved, ilpWins                     int
	nodes, pivots, cutRounds, cutsApplied    int
	sep                                      time.Duration
}

func (a *layerAcc) add(o replayOut) {
	a.jobs++
	a.transports += o.Transports
	a.stored += o.Stored
	a.unitStored += o.UnitStored
	a.unitWait += o.UnitWait
	a.segments += o.Chip.Segments
	a.valves += o.Chip.Valves
	a.archCalls += o.ArchCalls
	a.archErrors += o.ArchErrors
	if info := o.ILP; info != nil {
		a.ilp++
		if info.Status == milp.StatusOptimal {
			a.proved++
		}
		if info.Winner == "ilp" {
			a.ilpWins++
		}
		a.nodes += info.Solver.Nodes
		a.pivots += info.Solver.SimplexIters
		a.cutRounds += info.Solver.Cuts.Rounds
		a.cutsApplied += info.Solver.Cuts.Applied
		a.sep += info.Solver.SeparationWall
	}
}

// report adds the pipeline-layer metrics: times (from layerMS, a layer's
// total milliseconds) and counts per traced job, fractions over their stated
// bases.
func (a *layerAcc) report(m *metricSet, layerMS func(layer string) float64) {
	per := func(x float64) float64 { return x / float64(max(a.jobs, 1)) }
	n := a.jobs
	m.add("sched.ms", "ms", per(layerMS(layerSched)), n)
	m.add("milp.nodes", "count", per(float64(a.nodes)), n)
	m.add("milp.pivots", "count", per(float64(a.pivots)), n)
	m.add("milp.cut_rounds", "count", per(float64(a.cutRounds)), n)
	m.add("milp.cuts_applied", "count", per(float64(a.cutsApplied)), n)
	m.add("milp.sep_ms", "ms", per(float64(a.sep.Nanoseconds())/1e6), n)
	m.add("milp.proved_frac", "frac", frac(a.proved, a.ilp), a.ilp)
	m.add("milp.ilp_win_frac", "frac", frac(a.ilpWins, a.ilp), a.ilp)
	m.add("bind.ms", "ms", per(layerMS(layerBind)), n)
	m.add("bind.transports", "count", per(float64(a.transports)), n)
	m.add("bind.stored", "count", per(float64(a.stored)), n)
	m.add("bind.unit_stored", "count", per(float64(a.unitStored)), n)
	m.add("arch.ms", "ms", per(layerMS(layerArch)), n)
	m.add("arch.fail_frac", "frac", frac(a.archErrors, a.archCalls), a.archCalls)
	m.add("arch.segments", "count", per(float64(a.segments)), n)
	m.add("arch.valves", "count", per(float64(a.valves)), n)
	m.add("phys.ms", "ms", per(layerMS(layerPhys)), n)
	m.add("verify.ms", "ms", per(layerMS(layerVerify)), n)
	m.add("storage.unit_queue_delay_s", "s", per(float64(a.unitWait)), n)
}
