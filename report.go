package flowsyn

import (
	"errors"
	"fmt"
	"time"

	"flowsyn/internal/core"
	"flowsyn/internal/sim"
	"flowsyn/internal/verify"
)

// Result is a synthesized biochip: the schedule, the chip architecture with
// distributed channel storage, and the compacted physical layout.
type Result struct {
	inner *core.Result
}

// Makespan returns the assay execution time t^E in seconds.
func (r *Result) Makespan() int { return r.inner.Schedule.Makespan }

// StoreCount returns how many intermediate fluids are cached in channel
// segments during execution.
func (r *Result) StoreCount() int { return r.inner.Schedule.StoreCount() }

// StorageCapacity returns the peak number of simultaneously cached fluids.
func (r *Result) StorageCapacity() int { return r.inner.Schedule.StorageCapacity() }

// StoragePolicy returns the storage strategy the result was synthesized
// under.
func (r *Result) StoragePolicy() StoragePolicy {
	return StoragePolicy(r.inner.Storage.Policy)
}

// UnitStoreCount returns how many stored fluids were routed through the
// dedicated storage unit (0 under the distributed strategy).
func (r *Result) UnitStoreCount() int { return r.inner.Binding.Unit }

// UnitQueueDelay returns the total seconds stored fluids waited for the
// dedicated unit's serialized port beyond the earliest instants they could
// have moved (0 under the distributed strategy).
func (r *Result) UnitQueueDelay() int { return r.inner.Schedule.UnitQueueDelay }

// UnitCells returns the cell count of the dedicated storage unit — the peak
// number of fluids resident in it at once (0 when no unit is placed).
func (r *Result) UnitCells() int { return r.inner.Architecture.UnitCells }

// UnitValves returns the mux-tree valve cost of the dedicated storage unit,
// reported separately from Valves (0 when no unit is placed).
func (r *Result) UnitValves() int { return r.inner.Architecture.UnitValves }

// ChannelSegments returns n_e: the number of channel segments in the chip.
func (r *Result) ChannelSegments() int { return r.inner.Architecture.NumEdges }

// Valves returns n_v: the number of switch valves in the chip (device-
// internal valves excluded, as in the paper).
func (r *Result) Valves() int { return r.inner.Architecture.NumValves }

// EdgeRatio returns the used-to-available channel-segment ratio (Fig. 8).
func (r *Result) EdgeRatio() float64 { return r.inner.Architecture.EdgeRatio }

// ValveRatio returns the used-to-available valve ratio (Fig. 8).
func (r *Result) ValveRatio() float64 { return r.inner.Architecture.ValveRatio }

// ChipDimensions returns the layout sizes after architectural synthesis
// (d_r), after device insertion (d_e) and after iterative compression (d_p),
// each formatted like "15x10".
func (r *Result) ChipDimensions() (afterSynthesis, afterDevices, compressed string) {
	p := r.inner.Physical
	return p.AfterSynthesis.String(), p.AfterDevices.String(), p.Compressed.String()
}

// Summary renders the headline numbers in the paper's Table 2 column order,
// plus the MILP solver diagnostics when the exact engine ran.
func (r *Result) Summary() string { return r.inner.Summary() }

// SolverStats reports the exact scheduling engine's MILP solver diagnostics:
// how the sparse warm-started branch-and-bound search went, sized against
// the formulation it solved. It is nil-safe to format with %+v.
type SolverStats struct {
	// Status is the solver verdict ("optimal", "time-limit", ...).
	Status string
	// Objective is the solved α·tE + β·Σu objective value.
	Objective float64
	// Nodes and Iterations count branch-and-bound nodes and simplex pivots.
	Nodes, Iterations int
	// WarmStartRate is the fraction of node relaxations served by a
	// dual-simplex warm start from the parent basis, in [0, 1].
	WarmStartRate float64
	// Gap is the relative MIP gap at termination: 0 for a proven optimum,
	// -1 when no dual bound survived.
	Gap float64
	// PresolveFixedCols, PresolveRemovedRows and PresolveTightenedBounds
	// report the root presolve reductions.
	PresolveFixedCols, PresolveRemovedRows, PresolveTightenedBounds int
	// Kernel names the basis-factorization kernel the simplex ran on:
	// "dense" (explicit inverse with eta updates) below the row-count
	// crossover, "sparse-lu" (Markowitz LU with Forrest–Tomlin updates)
	// above it.
	Kernel string
	// Refactorizations, FTUpdates and FTUpdatesRejected count from-scratch
	// basis factorizations, accepted basis-change updates, and updates the
	// kernel refused for stability (each forcing a refactorization).
	Refactorizations, FTUpdates, FTUpdatesRejected int
	// FillRatio is the peak LU fill-in — (L+U nonzeros)/(basis nonzeros) —
	// the sparse kernel observed; 0 under the dense kernel.
	FillRatio float64
	// PropagationTightenings and PropagationPrunes report node-level bound
	// propagation: integer-bound tightenings derived after branching, and
	// nodes pruned infeasible before their relaxation was solved.
	PropagationTightenings, PropagationPrunes int
	// CutsSeparated counts root cutting planes separated (Gomory
	// mixed-integer, knapsack covers, and conflict-graph cliques),
	// CutsApplied the cut rows the branch-and-bound instance finally
	// carried, and CutsAgedOut the cuts retired by activity-based aging
	// before the tree search.
	CutsSeparated, CutsApplied, CutsAgedOut int
	// CliqueCuts counts the conflict-graph clique cuts within CutsSeparated.
	CliqueCuts int
	// CutRounds is the number of separate-apply-resolve rounds at the root.
	CutRounds int
	// SeparationWall is the wall-clock time spent separating cuts at the
	// root (all families, summed over rounds).
	SeparationWall time.Duration
	// PseudoCostInits counts reliability-initialization probes (truncated
	// strong branches) seeding the pseudo-cost branching tables.
	PseudoCostInits int
	// HeuristicIncumbents counts improving incumbents found by the node
	// heuristics (RINS and feasibility diving).
	HeuristicIncumbents int
	// LocalBranchingIncumbents counts improving incumbents found by the
	// local-branching sub-MIP around the shared incumbent.
	LocalBranchingIncumbents int
	// IncrementalPivots and FullPricingPivots split simplex pivots by
	// whether the iteration priced incrementally maintained reduced costs
	// (O(nnz) per pivot) or paid a from-scratch refresh.
	IncrementalPivots, FullPricingPivots int
	// ReducedCostFixings counts variable bounds tightened by reduced-cost
	// fixing against the incumbent cutoff at branch-and-bound nodes.
	ReducedCostFixings int
	// Workers is the branch-and-bound worker pool size.
	Workers int
	// Runtime is the wall-clock solve time (the paper's t_s column).
	Runtime time.Duration
	// ModelVars and ModelConstraints size the formulation before presolve.
	ModelVars, ModelConstraints int
	// Winner names the engine whose schedule was kept: "ilp" or "list".
	Winner string
}

// SolverStats returns the exact engine's solver diagnostics, or nil when the
// heuristic list scheduler produced the result (no ILP ran).
func (r *Result) SolverStats() *SolverStats {
	info := r.inner.SchedInfo
	if info == nil {
		return nil
	}
	return &SolverStats{
		Status:                   info.Status.String(),
		Objective:                info.Objective,
		Nodes:                    info.Solver.Nodes,
		Iterations:               info.Solver.SimplexIters,
		WarmStartRate:            info.Solver.WarmStartRate(),
		Gap:                      info.Solver.Gap,
		PresolveFixedCols:        info.Solver.Presolve.FixedCols,
		PresolveRemovedRows:      info.Solver.Presolve.RemovedRows,
		PresolveTightenedBounds:  info.Solver.Presolve.TightenedBounds,
		Kernel:                   info.Solver.Factor.Kernel,
		Refactorizations:         info.Solver.Factor.Refactorizations,
		FTUpdates:                info.Solver.Factor.Updates,
		FTUpdatesRejected:        info.Solver.Factor.UpdatesRejected,
		FillRatio:                info.Solver.Factor.FillRatio,
		PropagationTightenings:   info.Solver.PropagationTightenings,
		PropagationPrunes:        info.Solver.PropagationPrunes,
		CutsSeparated:            info.Solver.Cuts.Gomory + info.Solver.Cuts.Cover + info.Solver.Cuts.Clique,
		CutsApplied:              info.Solver.Cuts.Applied,
		CutsAgedOut:              info.Solver.Cuts.AgedOut,
		CliqueCuts:               info.Solver.Cuts.Clique,
		CutRounds:                info.Solver.Cuts.Rounds,
		SeparationWall:           info.Solver.SeparationWall,
		PseudoCostInits:          info.Solver.PseudoCostInits,
		HeuristicIncumbents:      info.Solver.HeuristicIncumbents,
		LocalBranchingIncumbents: info.Solver.LocalBranchingIncumbents,
		IncrementalPivots:        info.Solver.IncrementalPivots,
		FullPricingPivots:        info.Solver.FullPricingPivots,
		ReducedCostFixings:       info.Solver.ReducedCostFixings,
		Workers:                  info.Solver.Workers,
		Runtime:                  info.Runtime,
		ModelVars:                info.ModelStats.Vars,
		ModelConstraints:         info.ModelStats.Constraints,
		Winner:                   info.Winner,
	}
}

// SolverSummary renders the solver diagnostics in one line, or "" when no
// ILP ran.
func (r *Result) SolverSummary() string { return r.inner.SolverSummary() }

// Stage names of the synthesis pipeline, in execution order.
const (
	// StageSchedule schedules and binds the assay (t_s in Table 2).
	StageSchedule = core.StageSchedule
	// StageBind validates the binding and derives the transport workload.
	StageBind = core.StageBind
	// StageArch synthesizes the connection graph (t_r in Table 2).
	StageArch = core.StageArch
	// StagePhys compacts the physical layout (t_p in Table 2).
	StagePhys = core.StagePhys
	// StageVerify re-checks the result with the independent invariant
	// checker (runs when Options.Verify is set).
	StageVerify = core.StageVerify
)

// VerifyError reports the invariants a result verification found broken.
// Synthesis with Options.Verify and Result.Verify both return it (wrapped)
// when the checker rejects a result.
type VerifyError struct {
	// Violations lists every broken invariant as "<invariant>: <detail>",
	// e.g. "precedence: edge o1->o3: parent ends 80, child starts 75, ...".
	Violations []string
}

// Error summarizes the violations.
func (e *VerifyError) Error() string {
	switch len(e.Violations) {
	case 0:
		return "flowsyn: verification failed"
	case 1:
		return "flowsyn: verification failed: " + e.Violations[0]
	default:
		return fmt.Sprintf("flowsyn: verification failed with %d violations: %s; ...",
			len(e.Violations), e.Violations[0])
	}
}

// publicVerifyError converts an internal checker error into the exported
// *VerifyError, passing every other error through unchanged.
func publicVerifyError(err error) error {
	var verr *verify.Error
	if !errors.As(err, &verr) {
		return err
	}
	out := &VerifyError{Violations: make([]string, len(verr.Violations))}
	for i, v := range verr.Violations {
		out.Violations[i] = v.Error()
	}
	return out
}

// Verify re-checks this result from first principles with the independent
// invariant checker: precedence with transport latencies, device and channel
// exclusivity, storage accounting, metric recomputation, and agreement of
// the execution simulator with the checker's per-instant accounting. It
// returns nil for a correct result and a *VerifyError otherwise.
//
// Synthesizing with Options.Verify runs the same check as a pipeline stage;
// this method re-runs it on demand.
func (r *Result) Verify() error {
	err := r.inner.Verify()
	if err == nil {
		return nil
	}
	return publicVerifyError(err)
}

// Verified reports whether this result has passed verification — either via
// the verify pipeline stage (Options.Verify) or a Verify call.
func (r *Result) Verified() bool { return r.inner.Verified }

// StageTiming reports the wall-clock duration of one synthesis pipeline
// stage ("schedule", "bind", "arch", "phys" or, with Options.Verify,
// "verify").
type StageTiming struct {
	// Name identifies the stage.
	Name string
	// Duration is the stage's wall-clock time.
	Duration time.Duration
}

// StageTimings returns per-stage wall-clock durations in pipeline order. The
// schedule, arch and phys entries correspond to the paper's t_s, t_r and t_p
// columns of Table 2.
func (r *Result) StageTimings() []StageTiming {
	out := make([]StageTiming, len(r.inner.Stages))
	for i, s := range r.inner.Stages {
		out[i] = StageTiming{Name: s.Name, Duration: s.Duration}
	}
	return out
}

// StageDuration returns the recorded wall-clock of the named stage (zero when
// the stage did not run).
func (r *Result) StageDuration(name string) time.Duration {
	return r.inner.StageDuration(name)
}

// SchedulingTime returns the wall-clock scheduling time (t_s in Table 2).
func (r *Result) SchedulingTime() time.Duration {
	return r.inner.SchedulingTime
}

// Transports returns the total number of device-to-device transportation
// tasks derived from the schedule by the Bind stage. The stored subset is
// StoreCount.
func (r *Result) Transports() int { return r.inner.Binding.Transports }

// GanttChart renders the schedule as a per-device text timeline.
func (r *Result) GanttChart() string { return r.inner.Schedule.Gantt() }

// SnapshotASCII draws the chip state at time t in the style of the paper's
// Fig. 11 (devices, switches, transporting and caching segments).
func (r *Result) SnapshotASCII(t int) string {
	return sim.RenderASCII(r.inner.Architecture, r.inner.Simulator().At(t))
}

// SnapshotSVG draws the chip state at time t as an SVG document.
func (r *Result) SnapshotSVG(t int) string {
	return sim.RenderSVG(r.inner.Architecture, r.inner.Simulator().At(t))
}

// LayoutSVG renders the compressed physical layout as an SVG document.
func (r *Result) LayoutSVG() string { return r.inner.Physical.SVG() }

// InterestingTimes lists the moments when caching activity changes — good
// snapshot candidates.
func (r *Result) InterestingTimes() []int {
	return r.inner.Simulator().InterestingTimes()
}

// ChannelUtilization returns the mean busy fraction of the built channel
// segments over the whole execution, in [0, 1].
func (r *Result) ChannelUtilization() float64 {
	return r.inner.Simulator().Utilization().MeanUtilization
}

// DedicatedComparison reports how the same schedule would perform with a
// dedicated storage unit instead of distributed channel storage — the
// paper's Fig. 10 baseline.
type DedicatedComparison struct {
	// DistributedMakespan and DedicatedMakespan compare execution times.
	DistributedMakespan, DedicatedMakespan int
	// DistributedValves and DedicatedValves compare valve budgets.
	DistributedValves, DedicatedValves int
	// ExecRatio and ValveRatio are distributed/dedicated (< 1 means the
	// distributed design wins).
	ExecRatio, ValveRatio float64
}

// CompareDedicated runs the dedicated-storage baseline on this result.
func (r *Result) CompareDedicated() (*DedicatedComparison, error) {
	c, err := r.inner.CompareDedicated()
	if err != nil {
		return nil, err
	}
	return &DedicatedComparison{
		DistributedMakespan: c.DistributedMakespan,
		DedicatedMakespan:   c.DedicatedMakespan,
		DistributedValves:   c.DistributedValves,
		DedicatedValves:     c.DedicatedValves,
		ExecRatio:           c.ExecRatio,
		ValveRatio:          c.ValveRatio,
	}, nil
}
