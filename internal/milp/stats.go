package milp

import "time"

// PresolveStats summarizes what the root presolve pass removed from a model
// before the simplex ever saw it.
type PresolveStats struct {
	// FixedCols counts variables eliminated because presolve proved them
	// fixed (bounds collapsed, singleton equalities, propagation).
	FixedCols int
	// RemovedRows counts constraints dropped as redundant, constant, or
	// absorbed into variable bounds (singleton rows).
	RemovedRows int
	// TightenedBounds counts individual variable-bound improvements derived
	// by activity-based bound propagation.
	TightenedBounds int
}

// FactorStats reports basis-factorization kernel diagnostics, aggregated
// across every simplex state a solve used (one per branch-and-bound worker).
type FactorStats struct {
	// Kernel names the basis kernel: "dense" (explicit inverse with eta
	// updates) or "sparse-lu" (Markowitz LU with Forrest–Tomlin updates).
	Kernel string
	// Refactorizations counts from-scratch basis factorizations.
	Refactorizations int
	// Updates counts successful basis-change updates (eta or
	// Forrest–Tomlin).
	Updates int
	// UpdatesRejected counts updates the kernel refused for stability; each
	// forces a refactorization.
	UpdatesRejected int
	// FillRatio is the peak (L+U nonzeros)/(basis nonzeros) the sparse
	// kernel observed; 0 for the dense kernel, whose inverse is always full.
	FillRatio float64
}

// merge folds another kernel's counters into s (counters add, fill peaks).
func (s *FactorStats) merge(o FactorStats) {
	if s.Kernel == "" {
		s.Kernel = o.Kernel
	}
	s.Refactorizations += o.Refactorizations
	s.Updates += o.Updates
	s.UpdatesRejected += o.UpdatesRejected
	if o.FillRatio > s.FillRatio {
		s.FillRatio = o.FillRatio
	}
}

// SolveStats carries the solver diagnostics of one Solve/SolveLP call. It is
// threaded through the scheduling and architecture ILP layers up to the
// pipeline result so reports and CLIs can show how the solve went.
type SolveStats struct {
	// Nodes is the number of branch-and-bound nodes explored (MILP only).
	Nodes int
	// SimplexIters counts simplex pivots across all LP solves.
	SimplexIters int
	// WarmStarts counts node relaxations solved by warm-starting the parent
	// basis with a dual-simplex cleanup (including in-place dives).
	WarmStarts int
	// ColdStarts counts node relaxations that needed a from-scratch solve:
	// the root, and any node whose warm start failed numerically.
	ColdStarts int
	// Presolve reports the root presolve reductions.
	Presolve PresolveStats
	// Workers is the number of branch-and-bound workers used.
	Workers int
	// Gap is the relative MIP gap at termination:
	// |incumbent - bound| / max(1, |incumbent|). It is 0 for a proven
	// optimum and -1 when no bound information survived (e.g. no feasible
	// point, or the search aborted before any relaxation finished).
	Gap float64
	// Factor reports the basis-factorization kernel diagnostics: which
	// kernel ran, how often it refactorized, and how many eta /
	// Forrest–Tomlin updates it absorbed (and rejected) between refreshes.
	Factor FactorStats
	// PropagationTightenings counts integer-bound tightenings derived by
	// node-level bound propagation — the presolve reductions re-run after
	// each branch instead of at the root only.
	PropagationTightenings int
	// PropagationPrunes counts nodes proven integer-infeasible by
	// propagation alone, pruned before their LP relaxation was ever solved.
	PropagationPrunes int
	// Cuts reports the root cutting-plane loop: Gomory mixed-integer,
	// cover, and conflict-clique cuts separated, rows finally
	// applied, and cuts retired by activity-based aging.
	Cuts CutStats
	// SeparationWall is the wall-clock time spent inside the root
	// separation block (all cut families, summed over rounds; when families
	// separate in parallel this is the per-round maximum, not the sum).
	SeparationWall time.Duration
	// PseudoCostInits counts reliability-initialization probes (truncated
	// strong branches) run to seed the pseudo-cost tables.
	PseudoCostInits int
	// HeuristicIncumbents counts improving incumbents installed by the node
	// heuristics (RINS and feasibility diving) rather than by the tree
	// search itself.
	HeuristicIncumbents int
	// LocalBranchingIncumbents counts improving incumbents found by the
	// local-branching sub-MIP (a Hamming-ball neighbourhood of the current
	// incumbent searched on a scratch simplex state).
	LocalBranchingIncumbents int
	// IncrementalPivots counts simplex pivots that priced incrementally
	// maintained reduced costs and basic values (O(nnz) per pivot);
	// FullPricingPivots counts the pivots that paid a from-scratch refresh
	// (loop entries, refactorizations, Bland fallbacks).
	IncrementalPivots int
	// FullPricingPivots counts pivots priced from a full recompute.
	FullPricingPivots int
	// ReducedCostFixings counts variable bounds tightened by reduced-cost
	// fixing against the incumbent cutoff at branch-and-bound nodes.
	ReducedCostFixings int
}

// WarmStartRate is the fraction of node relaxations served by a warm start,
// in [0, 1]. It returns 0 when no node LP was solved.
func (s SolveStats) WarmStartRate() float64 {
	tot := s.WarmStarts + s.ColdStarts
	if tot == 0 {
		return 0
	}
	return float64(s.WarmStarts) / float64(tot)
}
