// Package core wires the paper's complete synthesis flow together:
// storage-aware scheduling and binding (internal/sched), architectural
// synthesis with distributed channel storage (internal/arch), iterative
// physical design (internal/phys), plus the execution simulator
// (internal/sim) and the dedicated-storage baseline (internal/dedicated)
// used by the evaluation.
//
// It is the engine behind the public flowsyn API, the cmd/ tools, and the
// benchmark harness that regenerates the paper's Table 2 and Figs. 8–11.
package core

import (
	"context"
	"fmt"
	"time"

	"flowsyn/internal/arch"
	"flowsyn/internal/dedicated"
	"flowsyn/internal/phys"
	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
	"flowsyn/internal/sim"
	"flowsyn/internal/storage"
	"flowsyn/internal/verify"
)

// Engine selects the scheduling engine.
type Engine int

const (
	// Auto uses the exact ILP for small assays (≤ sched.MaxExactOps
	// operations) and the storage-aware list scheduler otherwise, matching
	// the paper's best-effort behaviour under its solver time limit.
	Auto Engine = iota
	// Heuristic always uses the list scheduler.
	Heuristic
	// ExactILP always attempts the ILP (subject to its internal size cap).
	ExactILP
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case Heuristic:
		return "heuristic"
	case ExactILP:
		return "exact-ilp"
	default:
		return "auto"
	}
}

// Options configures a full synthesis run.
type Options struct {
	// Devices is the maximum device count (paper input). Must be >= 1.
	Devices int
	// Transport is u_c in seconds; defaults to 10.
	Transport int
	// GridRows/GridCols set the connection grid G; default 4×4.
	GridRows, GridCols int
	// Mode selects the scheduling objective (storage-aware by default).
	Mode sched.Mode
	// Storage selects the storage strategy both scheduling engines plan
	// under: distributed channel storage (the zero value — the paper's
	// method), a dedicated storage unit, or a hybrid bounded channel cache in
	// front of the unit. The strategy also drives architecture (unit
	// placement and port routing) and the verify stage's strategy invariants.
	Storage storage.Config
	// Engine selects the scheduling engine.
	Engine Engine
	// ILPTimeLimit caps the exact scheduler (zero: 30 s).
	ILPTimeLimit time.Duration
	// ModelIO routes reagent loading and product unloading through chip
	// boundary ports during architectural synthesis.
	ModelIO bool
	// Verify appends the verify stage to the pipeline: after physical design,
	// the result is re-checked from first principles by the independent
	// invariant checker (internal/verify), including the simulator
	// cross-check. A violation fails the synthesis with a *verify.Error.
	Verify bool
	// Warm, if non-nil, is a prior schedule of this (possibly edited) assay.
	// The exact engines feed it to the MILP as an additional warm-start
	// candidate after re-timing (sched.Retime); the heuristic engine races
	// the re-timed schedule against the list scheduler and keeps the better
	// result. This is the incremental re-synthesis hook; RecoverContext sets
	// it to the interrupted schedule.
	Warm *sched.Schedule
	// Progress, if non-nil, receives pipeline progress events: stage
	// enter/exit and every improving incumbent of an exact solve. It is
	// called synchronously from the pipeline and from MILP solver workers,
	// so implementations must be fast and non-blocking.
	Progress func(ProgressEvent)
}

// Progress event kinds.
const (
	// EventStageStart marks a pipeline stage beginning.
	EventStageStart = "stage-start"
	// EventStageEnd marks a pipeline stage finishing, with its duration.
	EventStageEnd = "stage-end"
	// EventIncumbent reports an improving incumbent of the exact schedule
	// solve: its model makespan, objective and node count.
	EventIncumbent = "incumbent"
	// EventSolver summarizes a finished exact solve: final makespan,
	// objective, node count and MIP gap.
	EventSolver = "solver"
)

// ProgressEvent is one observation of a running synthesis pipeline.
type ProgressEvent struct {
	// Kind is one of the Event* constants.
	Kind string
	// Stage names the pipeline stage the event belongs to.
	Stage string
	// Duration is the stage wall-clock time (EventStageEnd only).
	Duration time.Duration
	// Makespan, Objective and Nodes describe the incumbent
	// (EventIncumbent) or the finished solve (EventSolver).
	Makespan  int
	Objective float64
	Nodes     int
	// Gap is the relative MIP gap at termination (EventSolver only): 0 for
	// a proven optimum, -1 when no dual bound survived.
	Gap float64
}

// ServiceMetrics carries the per-job service-mode diagnostics of a result
// produced through a solver session (internal/service): how long the job
// queued, whether it was served from the content-addressed caches, and how
// much of a prior schedule an incremental re-synthesis reused. Nil on
// results synthesized outside a session.
type ServiceMetrics struct {
	// QueueWait is the time between job submission and a worker picking the
	// job up; Runtime is the job's wall-clock time inside its worker
	// (near zero on a cache hit).
	QueueWait, Runtime time.Duration
	// CacheHit reports that the complete result came from the full-result
	// cache (no stage ran).
	CacheHit bool
	// ScheduleCacheHit reports that the schedule stage was served from the
	// schedule cache (only bind/arch/phys ran).
	ScheduleCacheHit bool
	// Coalesced reports that the job waited on an identical in-flight
	// solve instead of starting its own (counted as a cache hit).
	Coalesced bool
	// StoreHit reports that the schedule was loaded from the fleet's
	// persistent store (another replica's — or a previous life's — solve).
	StoreHit bool
	// LeaseWait is the time spent waiting on another replica's cross-fleet
	// single-flight lease before this job could be served.
	LeaseWait time.Duration
	// Events counts the progress events emitted for the job; Dropped counts
	// events discarded because the subscriber fell behind.
	Events, Dropped int
	// ReusedOps and EditedOps summarize an incremental re-synthesis: how
	// many operations of the edited assay kept a prior binding, and how
	// many were added, removed or changed. Both zero outside Resynthesize.
	ReusedOps, EditedOps int
}

func (o *Options) defaults() error {
	if o.Devices < 1 {
		return fmt.Errorf("core: need at least one device, got %d", o.Devices)
	}
	if o.Transport == 0 {
		o.Transport = 10
	}
	if o.Transport < 1 {
		return fmt.Errorf("core: transport time must be >= 1, got %d", o.Transport)
	}
	if o.GridRows == 0 {
		o.GridRows = 4
	}
	if o.GridCols == 0 {
		o.GridCols = 4
	}
	if o.GridRows < 2 || o.GridCols < 2 {
		// Reject degenerate grids up front, before the expensive schedule
		// stage runs (the arch stage would reject them anyway).
		return fmt.Errorf("core: connection grid must be at least 2x2, got %dx%d", o.GridRows, o.GridCols)
	}
	if err := o.Storage.Validate(); err != nil {
		return err
	}
	return nil
}

// Normalized returns the options with the documented defaults applied — the
// form the pipeline actually runs, and the form the service layer hashes into
// its cache keys (so an explicit Transport of 10 and the default 10 key
// identically). It errors exactly when SynthesizeContext would reject the
// options up front.
func (o Options) Normalized() (Options, error) {
	if err := o.defaults(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// Result is the complete output of the synthesis flow for one assay.
type Result struct {
	// Schedule is the scheduling-and-binding result (Section 3.1).
	Schedule *sched.Schedule
	// SchedInfo carries ILP diagnostics when the exact engine ran (nil for
	// the heuristic engine).
	SchedInfo *sched.ILPInfo
	// Binding summarizes the transportation workload derived by the Bind
	// stage.
	Binding Binding
	// Architecture is the synthesized connection graph (Section 3.2).
	Architecture *arch.Result
	// Physical is the compacted layout (Section 3.3).
	Physical *phys.Design
	// Stages records per-stage wall-clock time in pipeline order.
	Stages []StageTiming
	// SchedulingTime is the wall-clock scheduling time (t_s in Table 2),
	// equal to the StageSchedule entry of Stages.
	SchedulingTime time.Duration
	// Storage records the storage strategy the result was synthesized under
	// (the zero value is distributed channel storage).
	Storage storage.Config
	// Verified reports that the verify stage ran and found no violation.
	Verified bool
	// Service carries per-job queue/cache/progress metrics when the result
	// was produced through a solver session; nil otherwise.
	Service *ServiceMetrics
	// Recovery summarizes the fault and splice when the result came from an
	// online re-synthesis (Recover); nil for ordinary syntheses.
	Recovery *Recovery
}

// StageDuration returns the recorded wall-clock of the named stage (zero when
// the stage did not run).
func (r *Result) StageDuration(name string) time.Duration {
	for _, s := range r.Stages {
		if s.Name == name {
			return s.Duration
		}
	}
	return 0
}

// Synthesize runs the full flow on one assay.
func Synthesize(g *seqgraph.Graph, opts Options) (*Result, error) {
	return SynthesizeContext(context.Background(), g, opts)
}

// Simulator returns an execution simulator for the synthesized chip.
func (r *Result) Simulator() *sim.Simulator {
	return sim.New(r.Architecture, r.Schedule)
}

// Verify re-checks the result from first principles with the independent
// invariant checker (internal/verify): scheduling constraints, route cover
// and exclusivity, storage-strategy invariants (port exclusivity, cache
// capacity, eviction legality under the recorded strategy), metric
// recomputation, and the simulator cross-check. It returns a *verify.Error
// describing every violation, or nil; on success the result is marked
// Verified.
func (r *Result) Verify() error {
	return r.crossCheck(verify.CheckAllStrategy(r.Schedule, r.Architecture, storage.New(r.Storage)))
}

// crossCheck completes a checker run over the result: on top of the
// checker's verdict, the Bind stage's summary must agree with the checker's
// recomputed transportation workload. It marks the result Verified when both
// hold.
func (r *Result) crossCheck(rep *verify.Report, err error) error {
	r.Verified = false
	if err != nil {
		return err
	}
	var extra []verify.Violation
	if r.Binding.Transports != rep.Transports {
		extra = append(extra, verify.Violation{
			Invariant: verify.InvMetrics,
			Detail: fmt.Sprintf("bind stage reported %d transports, checker recomputed %d",
				r.Binding.Transports, rep.Transports),
		})
	}
	if r.Binding.Stored != rep.Stored {
		extra = append(extra, verify.Violation{
			Invariant: verify.InvMetrics,
			Detail: fmt.Sprintf("bind stage reported %d stored tasks, checker recomputed %d",
				r.Binding.Stored, rep.Stored),
		})
	}
	if len(extra) > 0 {
		return &verify.Error{Violations: extra}
	}
	r.Verified = true
	return nil
}

// CompareDedicated runs the Fig. 10 baseline: the same schedule executed
// with a dedicated storage unit instead of distributed channel storage.
func (r *Result) CompareDedicated() (*dedicated.Comparison, error) {
	return dedicated.Compare(r.Schedule, r.Architecture.NumValves)
}

// Summary renders the headline numbers in Table 2's column order, followed
// by the MILP solver diagnostics when the exact engine ran.
func (r *Result) Summary() string {
	s := fmt.Sprintf(
		"tE=%d s | grid %s | ne=%d nv=%d (edge ratio %.2f, valve ratio %.2f) | dr=%s de=%s dp=%s",
		r.Schedule.Makespan,
		r.Architecture.Grid,
		r.Architecture.NumEdges,
		r.Architecture.NumValves,
		r.Architecture.EdgeRatio,
		r.Architecture.ValveRatio,
		r.Physical.AfterSynthesis,
		r.Physical.AfterDevices,
		r.Physical.Compressed,
	)
	// The wall-clock fragments (separation time, queue wait) and the cache
	// provenance are deliberately excluded here: Summary is the deterministic
	// paper-table line, byte identical for one result however it was
	// produced or served.
	if sv := r.solverSummary(false); sv != "" {
		s += " | " + sv
	}
	return s
}

// SolverSummary renders the exact engine's solver diagnostics in one line,
// followed by the per-job service metrics (queue wait, cache provenance)
// when the result came through a solver session. It returns "" when the
// heuristic engine scheduled (no ILP ran) outside a session.
func (r *Result) SolverSummary() string { return r.solverSummary(true) }

func (r *Result) solverSummary(withService bool) string {
	info := r.SchedInfo
	if info == nil {
		if withService && r.Service != nil {
			return r.Service.summary()
		}
		return ""
	}
	s := fmt.Sprintf("ilp %s: %d nodes, %d pivots, warm %.0f%%",
		info.Status, info.Solver.Nodes, info.Solver.SimplexIters,
		100*info.Solver.WarmStartRate())
	if g := info.Solver.Gap; g >= 0 {
		s += fmt.Sprintf(", gap %.2f%%", 100*g)
	}
	if p := info.Solver.Presolve; p.FixedCols > 0 || p.RemovedRows > 0 {
		s += fmt.Sprintf(", presolve -%dc/-%dr", p.FixedCols, p.RemovedRows)
	}
	if f := info.Solver.Factor; f.Kernel != "" {
		s += fmt.Sprintf(", kernel %s (%d refactor, %d updates", f.Kernel, f.Refactorizations, f.Updates)
		if f.UpdatesRejected > 0 {
			s += fmt.Sprintf(", %d rejected", f.UpdatesRejected)
		}
		if f.FillRatio > 0 {
			s += fmt.Sprintf(", fill %.2f", f.FillRatio)
		}
		s += ")"
	}
	if info.Solver.PropagationTightenings > 0 || info.Solver.PropagationPrunes > 0 {
		s += fmt.Sprintf(", prop %dt/%dp",
			info.Solver.PropagationTightenings, info.Solver.PropagationPrunes)
	}
	if c := info.Solver.Cuts; c.Gomory+c.Cover+c.Clique > 0 {
		s += fmt.Sprintf(", cuts %dg/%dc/%dq (%d kept", c.Gomory, c.Cover, c.Clique, c.Applied)
		if c.AgedOut > 0 {
			s += fmt.Sprintf(", %d aged", c.AgedOut)
		}
		s += ")"
	}
	// Separation wall time is wall-clock, so only SolverSummary carries it.
	if w := info.Solver.SeparationWall; withService && w > 0 {
		s += fmt.Sprintf(", sep %s", w.Round(time.Microsecond))
	}
	if info.Solver.PseudoCostInits > 0 {
		s += fmt.Sprintf(", pc-init %d", info.Solver.PseudoCostInits)
	}
	if info.Solver.ReducedCostFixings > 0 {
		s += fmt.Sprintf(", rc-fix %d", info.Solver.ReducedCostFixings)
	}
	if info.Solver.HeuristicIncumbents > 0 {
		s += fmt.Sprintf(", heur %d", info.Solver.HeuristicIncumbents)
	}
	if info.Solver.LocalBranchingIncumbents > 0 {
		s += fmt.Sprintf(", local-branch %d", info.Solver.LocalBranchingIncumbents)
	}
	if tot := info.Solver.IncrementalPivots + info.Solver.FullPricingPivots; tot > 0 {
		s += fmt.Sprintf(", incr-price %.0f%%",
			100*float64(info.Solver.IncrementalPivots)/float64(tot))
	}
	if info.Winner != "" {
		s += ", winner " + info.Winner
	}
	if m := r.Service; withService && m != nil {
		s += ", " + m.summary()
	}
	return s
}

// summary renders the service-mode metrics in one fragment of the solver
// line, e.g. "svc queue 1.2ms cache schedule-hit".
func (m *ServiceMetrics) summary() string {
	cache := "miss"
	switch {
	case m.CacheHit && m.Coalesced:
		cache = "hit (coalesced)"
	case m.CacheHit:
		cache = "hit"
	case m.ScheduleCacheHit:
		cache = "schedule-hit"
	case m.StoreHit:
		cache = "store-hit"
	}
	s := fmt.Sprintf("svc queue %s cache %s", m.QueueWait.Round(time.Microsecond), cache)
	if m.LeaseWait > 0 {
		s += fmt.Sprintf(" lease-wait %s", m.LeaseWait.Round(time.Microsecond))
	}
	if m.ReusedOps > 0 || m.EditedOps > 0 {
		s += fmt.Sprintf(" resynth %d reused/%d edited", m.ReusedOps, m.EditedOps)
	}
	return s
}
