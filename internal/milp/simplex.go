package milp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Status reports the outcome of a solve.
type Status int

const (
	// StatusUnknown means the solver has not produced a verdict.
	StatusUnknown Status = iota
	// StatusOptimal means an optimal solution was found (for MILP: proven).
	StatusOptimal
	// StatusInfeasible means the problem has no feasible point.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded in the optimization
	// direction.
	StatusUnbounded
	// StatusIterLimit means the simplex hit its iteration cap.
	StatusIterLimit
	// StatusTimeLimit means branch and bound hit its wall-clock limit; the
	// reported solution, if any, is the best incumbent (best-effort), as with
	// the paper's 30-minute Gurobi cap.
	StatusTimeLimit
	// StatusFeasible means a feasible (not necessarily optimal) solution is
	// available.
	StatusFeasible
	// StatusInterrupted means the caller's context was cancelled mid-solve;
	// the reported solution, if any, is the best incumbent found so far.
	StatusInterrupted

	// statusNumFail is the internal verdict for a numerical breakdown
	// (singular basis, vanishing pivot). Warm starts fall back to a cold
	// solve on it; a cold solve maps it to an error or an incomplete node.
	statusNumFail Status = -1
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	case StatusTimeLimit:
		return "time-limit"
	case StatusFeasible:
		return "feasible"
	case StatusInterrupted:
		return "interrupted"
	default:
		return "unknown"
	}
}

// Solution is the result of an LP or MILP solve.
type Solution struct {
	// Status is the solver verdict.
	Status Status
	// X holds one value per model variable, indexed by Var.ID. Nil unless a
	// feasible point was found.
	X []float64
	// Objective is the objective value at X in the model's original sense.
	Objective float64
	// Bound is the best proven bound on the objective (MILP only); equals
	// Objective when Status is StatusOptimal with a full proof (it can
	// trail by up to the requested SolveOptions.Gap when early gap stopping
	// pruned subtrees), and is NaN when the search stopped before any
	// subproblem bound survived.
	Bound float64
	// Nodes is the number of branch-and-bound nodes explored (MILP only);
	// mirrors Stats.Nodes.
	Nodes int
	// Iterations counts simplex pivots across all LP solves; mirrors
	// Stats.SimplexIters.
	Iterations int
	// Stats carries the full solver diagnostics (warm-start rate, presolve
	// reductions, MIP gap, worker count, factorization kernel, node
	// propagation).
	Stats SolveStats
}

// Value returns the solution value of v.
func (s *Solution) Value(v Var) float64 {
	if s == nil || s.X == nil {
		return math.NaN()
	}
	return s.X[v.id]
}

// Feasible reports whether the solution carries a usable assignment.
func (s *Solution) Feasible() bool {
	return s != nil && s.X != nil &&
		(s.Status == StatusOptimal || s.Status == StatusFeasible ||
			s.Status == StatusTimeLimit || s.Status == StatusIterLimit ||
			s.Status == StatusInterrupted)
}

// Simplex tolerances.
const (
	pivotEps   = 1e-9
	feasEps    = 1e-7
	redCostEps = 1e-9
	// refactorEvery bounds the number of basis updates (eta or
	// Forrest–Tomlin) applied before a fresh factorization, for numerical
	// hygiene and to keep the sparse kernel's eta file short.
	refactorEvery = 64
	// devexResetLimit is the reference-weight ceiling: when any devex weight
	// outgrows it, the reference framework is re-anchored at the current
	// basis (all weights back to 1), as Forrest–Goldfarb prescribe.
	devexResetLimit = 1e7
	// pertScale sizes the anti-degeneracy cost perturbation (see
	// instance.pert). Large against redCostEps so perturbed reduced costs
	// break ties decisively, small against real objective coefficients so
	// the exact cleanup after a perturbed run is a handful of pivots.
	pertScale = 1e-6
)

// Nonbasic / basic status of a column.
const (
	nbBasic int8 = iota
	nbLower      // nonbasic at its (finite) lower bound
	nbUpper      // nonbasic at its (finite) upper bound
	nbFree       // nonbasic free variable, parked at zero
)

// kernelKind selects the basis-factorization kernel of a simplexState.
type kernelKind int

const (
	// kernelAuto picks dense below sparseKernelMinRows rows, sparse LU above.
	kernelAuto kernelKind = iota
	// kernelDense forces the dense-inverse kernel.
	kernelDense
	// kernelSparseLU forces the sparse LU kernel.
	kernelSparseLU
)

// simplexState is one worker's in-place solver over an instance: working
// bounds (mutated by branch and bound), the current basis behind a pluggable
// basisFactorization kernel, and scratch vectors. It implements a
// bounded-variable primal simplex (two-phase, no artificial columns) and a
// bounded-variable dual simplex used for warm starts after bound changes,
// both priced by devex reference weights with a Bland fallback against
// cycling.
type simplexState struct {
	in     *instance
	lo, hi []float64 // working bounds, length n
	basic  []int32   // length m: column in basis row i
	pos    []int32   // length n: basis row of column, -1 when nonbasic
	stat   []int8    // length n

	fac basisFactorization

	xB     []float64 // basic variable values
	y, d   []float64 // duals / reduced costs scratch
	w      []float64 // FTRAN result
	rho    []float64 // BTRAN pivot row scratch
	rowBuf []float64
	cbBuf  []float64

	gamma []float64 // primal devex reference weights, length n
	rowW  []float64 // dual devex row weights, length m

	alphaBuf []float64   // pivot row α_rj over all columns, length n
	flipBuf  []float64   // bound-flip rhs accumulator, length m
	flipOut  []float64   // bound-flip FTRAN result, length m
	flipCand []ratioCand // BFRT breakpoint candidates
	flips    []bndFlip   // BFRT flips of the current pivot

	// pertOn layers the instance's anti-degeneracy cost perturbation onto
	// every cost lookup; the optimizing loops run perturbed, then switch it
	// off and finish to exact optimality before reporting StatusOptimal.
	pertOn bool

	// incrPivots counts pivots executed against incrementally maintained
	// basic values and reduced costs (O(nnz) per pivot); fullPivots counts
	// pivots that needed a from-scratch recompute first (loop entry, a
	// refactorization, or a perturbation switch). Merged into
	// SolveStats.IncrementalPivots / FullPricingPivots.
	incrPivots, fullPivots int

	iters int
	ctx   context.Context
}

func newState(in *instance) *simplexState {
	return newStateKernel(in, kernelAuto)
}

func newStateKernel(in *instance, kk kernelKind) *simplexState {
	s := &simplexState{}
	s.reset(in, kk)
	return s
}

// reset points s at in and returns it to the state newStateKernel(in, kk)
// builds: the bounds copied from in, every other array resized and zeroed,
// the counters and context cleared, and a kernel of the chosen kind reset to
// the identity. A recycled state therefore computes exactly as a fresh one.
func (s *simplexState) reset(in *instance, kk kernelKind) {
	m, n := in.m, in.n
	s.in = in
	s.lo = append(s.lo[:0], in.lo...)
	s.hi = append(s.hi[:0], in.hi...)
	s.basic = resize(s.basic, m)
	s.pos = resize(s.pos, n)
	s.stat = resize(s.stat, n)
	s.xB = resize(s.xB, m)
	s.y = resize(s.y, m)
	s.d = resize(s.d, n)
	s.w = resize(s.w, m)
	s.rho = resize(s.rho, m)
	s.rowBuf = resize(s.rowBuf, m)
	s.cbBuf = resize(s.cbBuf, m)
	s.gamma = resize(s.gamma, n)
	s.rowW = resize(s.rowW, m)
	s.alphaBuf = resize(s.alphaBuf, n)
	s.flipBuf = resize(s.flipBuf, m)
	s.flipOut = resize(s.flipOut, m)
	s.flipCand = s.flipCand[:0]
	s.flips = s.flips[:0]
	s.pertOn = false
	s.incrPivots, s.fullPivots, s.iters = 0, 0, 0
	s.ctx = nil
	if kk == kernelAuto {
		if m >= sparseKernelMinRows {
			kk = kernelSparseLU
		} else {
			kk = kernelDense
		}
	}
	switch f := s.fac.(type) {
	case *luFactor:
		if kk == kernelSparseLU {
			f.reset(in, s.basic, s.aborted)
			return
		}
	case *denseFactor:
		if kk == kernelDense {
			f.reset(in, s.basic, s.aborted)
			return
		}
	}
	if kk == kernelSparseLU {
		s.fac = newLUFactor(in, s.basic, s.aborted)
	} else {
		s.fac = newDenseFactor(in, s.basic, s.aborted)
	}
}

// statePool recycles simplex states across solves, so a solve resets the
// arrays and kernel storage of an earlier one instead of allocating its own.
var statePool sync.Pool

// getState returns a state for in, recycled from statePool when one is
// free. It computes exactly as newState(in) would.
func getState(in *instance) *simplexState {
	s, _ := statePool.Get().(*simplexState)
	if s == nil {
		return newState(in)
	}
	s.reset(in, kernelAuto)
	return s
}

// resetBounds restores the root bounds of the instance.
func (s *simplexState) resetBounds() {
	copy(s.lo, s.in.lo)
	copy(s.hi, s.in.hi)
}

// callLimit is the per-call pivot budget.
func (s *simplexState) callLimit() int {
	return 300*(s.in.m+s.in.n) + 1000
}

// warmLimit was the tight pivot budget of a warm-started dual repair, a
// stall guard against degenerate shuffling. The bound-flipping ratio test
// absorbs whole runs of boxed breakpoints in a single dual pivot, so warm
// repairs now get the full call budget and the cold-solve escape fires only
// on genuine numerical failure or budget exhaustion (solveRelax).
func (s *simplexState) warmLimit() int {
	return 0 // 0 = callLimit; kept as a named hook for the dive/warm paths
}

// aborted reports whether the solve context has fired. It is checked every
// pivot: a context Err read costs nanoseconds against the cost of a pivot,
// and on large models a single pivot can take milliseconds, so coarser
// checks would make cancellation sluggish.
func (s *simplexState) aborted() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// nbValue is the current value of a nonbasic column.
func (s *simplexState) nbValue(j int) float64 {
	switch s.stat[j] {
	case nbLower:
		return s.lo[j]
	case nbUpper:
		return s.hi[j]
	default:
		return 0
	}
}

// computeXB refreshes the basic variable values from the current bounds and
// nonbasic statuses: x_B = B⁻¹(b − N·x_N).
func (s *simplexState) computeXB() {
	in := s.in
	if in.m == 0 {
		return
	}
	r := s.rowBuf
	copy(r, in.b)
	for j := 0; j < in.n; j++ {
		if s.stat[j] == nbBasic {
			continue
		}
		xj := s.nbValue(j)
		if xj == 0 {
			continue
		}
		if j < in.nStruct {
			for p := in.colPtr[j]; p < in.colPtr[j+1]; p++ {
				r[in.rowIdx[p]] -= in.val[p] * xj
			}
		} else {
			r[j-in.nStruct] -= xj
		}
	}
	s.fac.ftranDense(r, s.xB)
}

// ftran computes w = B⁻¹·A_j for column j.
func (s *simplexState) ftran(j int) {
	s.fac.ftranColumn(j, s.w)
}

// computeDuals fills y = cBᵀ·B⁻¹ from per-row basic costs cb and the reduced
// cost d_j = cost(j) − y·A_j for every nonbasic column.
func (s *simplexState) computeDuals(cb []float64, cost func(int) float64) {
	in := s.in
	if in.m > 0 {
		s.fac.btranDense(cb, s.y)
	}
	for j := 0; j < in.n; j++ {
		if s.stat[j] == nbBasic {
			s.d[j] = 0
			continue
		}
		s.d[j] = cost(j) - in.colDot(s.y, j)
	}
}

func (s *simplexState) objCost(j int) float64 {
	if s.pertOn {
		return s.in.c[j] + s.in.pert[j]
	}
	return s.in.c[j]
}

func zeroCost(int) float64 { return 0 }

// devexReset re-anchors the primal reference framework at the current basis:
// every column's weight returns to 1.
func (s *simplexState) devexReset() {
	for j := range s.gamma {
		s.gamma[j] = 1
	}
}

// devexUpdatePrimal refreshes the primal devex weights after the choice of
// entering column q and leaving basis row r (s.w holds B⁻¹·A_q). Following
// Forrest–Goldfarb, every nonbasic column's weight rises to
// (α_rj/α_rq)²·γ_q when that exceeds its current weight, and the leaving
// column re-enters the nonbasic set with weight max(γ_q/α_rq², 1). Must run
// before the pivot mutates the basis. As a side effect the pivot row α_rj it
// computes is left in alphaBuf (with α_rq at index q, 0 on basic columns) so
// the caller's incremental reduced-cost update can reuse it for free.
func (s *simplexState) devexUpdatePrimal(q, r int) {
	alphaQ := s.w[r]
	if alphaQ == 0 {
		return
	}
	in := s.in
	gq := s.gamma[q]
	inv2 := 1 / (alphaQ * alphaQ)
	s.fac.btranRow(r, s.rho)
	maxW := 1.0
	for j := 0; j < in.n; j++ {
		if s.stat[j] == nbBasic || j == q {
			s.alphaBuf[j] = 0
			continue
		}
		aj := in.colDot(s.rho, j)
		s.alphaBuf[j] = aj
		if aj == 0 {
			continue
		}
		if cand := aj * aj * inv2 * gq; cand > s.gamma[j] {
			s.gamma[j] = cand
		}
		if s.gamma[j] > maxW {
			maxW = s.gamma[j]
		}
	}
	s.alphaBuf[q] = alphaQ
	gl := gq * inv2
	if gl < 1 {
		gl = 1
	}
	s.gamma[int(s.basic[r])] = gl
	s.gamma[q] = 1
	if maxW > devexResetLimit {
		s.devexReset()
	}
}

// devexUpdateDual refreshes the dual row weights after the pivot on basis
// row r with s.w = B⁻¹·A_q: the mirrored Forrest–Goldfarb update over rows.
func (s *simplexState) devexUpdateDual(r int) {
	wr := s.w[r]
	if wr == 0 {
		return
	}
	gr := s.rowW[r]
	inv2 := 1 / (wr * wr)
	maxW := 1.0
	for i := range s.rowW {
		if i == r {
			continue
		}
		wi := s.w[i]
		if wi == 0 {
			continue
		}
		if cand := wi * wi * inv2 * gr; cand > s.rowW[i] {
			s.rowW[i] = cand
		}
		if s.rowW[i] > maxW {
			maxW = s.rowW[i]
		}
	}
	gl := gr * inv2
	if gl < 1 {
		gl = 1
	}
	s.rowW[r] = gl
	if maxW > devexResetLimit {
		for i := range s.rowW {
			s.rowW[i] = 1
		}
	}
}

// pivot replaces basis row r with column q (w already FTRANed) and marks the
// leaving column nonbasic at leaveStat. A rejected kernel update (tiny eta
// pivot, unstable Forrest–Tomlin elimination) triggers one
// refactorize-recompute-retry round before giving up. Returns false on
// numerical failure.
func (s *simplexState) pivot(q, r int, leaveStat int8) bool {
	if !s.fac.update(r, s.w) {
		// Refresh the factorization of the pre-pivot basis, recompute the
		// entering column against it, and retry the update once.
		if !s.fac.refactorize() {
			return false
		}
		s.fac.ftranColumn(q, s.w)
		if !s.fac.update(r, s.w) {
			return false
		}
	}
	old := int(s.basic[r])
	s.stat[old] = leaveStat
	s.pos[old] = -1
	s.basic[r] = int32(q)
	s.pos[q] = int32(r)
	s.stat[q] = nbBasic
	s.iters++
	if s.fac.updates() >= refactorEvery {
		if !s.fac.refactorize() {
			return false
		}
	}
	return true
}

// priceEntering picks the entering column from the current reduced costs by
// devex pricing: the eligible column maximizing d_j²/γ_j against the
// reference weights. Returns the column and the movement direction (+1 away
// from the lower bound, -1 away from the upper bound), or -1 when no
// candidate improves. Under Bland's rule the lowest-index eligible column is
// returned instead, which guarantees termination on degenerate models.
func (s *simplexState) priceEntering(bland bool) (int, float64) {
	bestJ, bestScore, bestDir := -1, 0.0, 0.0
	for j := 0; j < s.in.n; j++ {
		var dir float64
		switch s.stat[j] {
		case nbLower:
			if s.d[j] < -redCostEps {
				dir = 1
			}
		case nbUpper:
			if s.d[j] > redCostEps {
				dir = -1
			}
		case nbFree:
			if s.d[j] < -redCostEps {
				dir = 1
			} else if s.d[j] > redCostEps {
				dir = -1
			}
		}
		if dir == 0 {
			continue
		}
		if bland {
			return j, dir
		}
		if sc := s.d[j] * s.d[j] / s.gamma[j]; sc > bestScore {
			bestJ, bestScore, bestDir = j, sc, dir
		}
	}
	return bestJ, bestDir
}

// primalRatio runs the bounded-variable ratio test for entering column q
// moving in direction dir (w already FTRANed). phase1 admits the composite
// phase-1 rules: an infeasible basic variable limits the step only at the
// bound it is converging to (first breakpoint). Returns the step, the leaving
// basis row (-1 for a bound flip of q itself), and the leaving column's new
// status.
func (s *simplexState) primalRatio(q int, dir float64, phase1, bland bool) (float64, int, int8) {
	t := math.Inf(1)
	leave, leaveStat := -1, int8(nbLower)
	if r := s.hi[q] - s.lo[q]; !math.IsInf(r, 1) {
		t = r // bound flip
	}
	better := func(ti float64, i int) bool {
		if ti < t-pivotEps {
			return true
		}
		if ti >= t+pivotEps || leave < 0 {
			return false
		}
		if bland {
			return s.basic[i] < s.basic[leave]
		}
		return math.Abs(s.w[i]) > math.Abs(s.w[leave])
	}
	for i := 0; i < s.in.m; i++ {
		wi := s.w[i]
		rate := -dir * wi // movement of x_B[i] per unit step of x_q
		if rate < pivotEps && rate > -pivotEps {
			continue
		}
		bcol := int(s.basic[i])
		x := s.xB[i]
		loB, hiB := s.lo[bcol], s.hi[bcol]
		var ti float64
		var st int8
		switch {
		case phase1 && x < loB-feasEps:
			// Below its lower bound: only a step that carries it up to lo
			// limits the move (first breakpoint; it becomes feasible there).
			if rate <= 0 {
				continue
			}
			ti, st = (loB-x)/rate, nbLower
		case phase1 && x > hiB+feasEps:
			if rate >= 0 {
				continue
			}
			ti, st = (x-hiB)/(-rate), nbUpper
		case rate > 0:
			if math.IsInf(hiB, 1) {
				continue
			}
			ti, st = (hiB-x)/rate, nbUpper
		default:
			if math.IsInf(loB, -1) {
				continue
			}
			ti, st = (x-loB)/(-rate), nbLower
		}
		if ti < 0 {
			ti = 0
		}
		if better(ti, i) {
			t, leave, leaveStat = ti, i, st
		}
	}
	return t, leave, leaveStat
}

// applyPrimalStep performs the chosen primal step: a bound flip of the
// entering column or a basis change with its devex weight maintenance.
// Returns false on numerical failure.
func (s *simplexState) applyPrimalStep(q, leave int, leaveStat int8, bland bool) bool {
	if leave < 0 {
		if s.stat[q] == nbLower {
			s.stat[q] = nbUpper
		} else {
			s.stat[q] = nbLower
		}
		s.iters++
		return true
	}
	if !bland {
		s.devexUpdatePrimal(q, leave)
	}
	return s.pivot(q, leave, leaveStat)
}

// phase1Costs classifies the basic variables against their bounds, filling
// the composite phase-1 cost vector (-1 below lo, +1 above hi) and returning
// the number of infeasible basics.
func (s *simplexState) phase1Costs() int {
	nInf := 0
	for i := 0; i < s.in.m; i++ {
		bcol := int(s.basic[i])
		x := s.xB[i]
		switch {
		case x < s.lo[bcol]-feasEps:
			s.cbBuf[i] = -1
			nInf++
		case x > s.hi[bcol]+feasEps:
			s.cbBuf[i] = 1
			nInf++
		default:
			s.cbBuf[i] = 0
		}
	}
	return nInf
}

// primalPhase1 drives the basis to primal feasibility by minimizing the sum
// of bound violations with a composite cost vector. Returns StatusOptimal
// once feasible, StatusInfeasible at a phase-1 optimum with violations left,
// StatusIterLimit on the pivot budget or context, statusNumFail on numerical
// breakdown.
func (s *simplexState) primalPhase1() Status {
	start := s.iters
	limit := s.callLimit()
	blandAt := 4*(s.in.m+s.in.n) + 50
	s.devexReset()
	for {
		if s.iters-start > limit || s.aborted() {
			return StatusIterLimit
		}
		s.computeXB()
		if s.phase1Costs() == 0 {
			return StatusOptimal
		}
		s.computeDuals(s.cbBuf, zeroCost)
		bland := s.iters-start > blandAt
		q, dir := s.priceEntering(bland)
		if q < 0 {
			return StatusInfeasible
		}
		s.ftran(q)
		t, leave, leaveStat := s.primalRatio(q, dir, true, bland)
		if math.IsInf(t, 1) {
			// The infeasibility sum is bounded below by zero, so an unbounded
			// improving ray is a numerical contradiction.
			return statusNumFail
		}
		if !s.applyPrimalStep(q, leave, leaveStat, bland) {
			return statusNumFail
		}
	}
}

// primalPhase2 optimizes the real objective from a primal-feasible basis.
// The loop prices the perturbed costs first; at the perturbed optimum it
// drops the perturbation and keeps iterating, so the basis it reports
// StatusOptimal from is exactly optimal for the true objective.
//
// Like dual, the loop maintains x_B and the reduced costs incrementally in
// O(nnz) per pivot — x_B along the FTRANed entering column, d along the
// pivot row that devexUpdatePrimal already computes for its weights — and
// falls back to a from-scratch refresh at loop entry, after a
// refactorization, under Bland's rule, and on the perturbation switch-off.
// Termination claims (optimality, unboundedness) are only ever made from
// freshly recomputed values.
func (s *simplexState) primalPhase2() Status {
	start := s.iters
	limit := s.callLimit()
	m := s.in.m
	blandAt := 4*(m+s.in.n) + 50
	s.devexReset()
	s.pertOn = true
	defer func() { s.pertOn = false }()
	refresh := true
	for {
		if s.iters-start > limit || s.aborted() {
			return StatusIterLimit
		}
		bland := s.iters-start > blandAt
		fresh := refresh || bland
		if fresh {
			s.computeXB()
			for i := 0; i < m; i++ {
				s.cbBuf[i] = s.objCost(int(s.basic[i]))
			}
			s.computeDuals(s.cbBuf, s.objCost)
			refresh = false
		}
		q, dir := s.priceEntering(bland)
		if q < 0 {
			if !fresh {
				// Incremental reduced costs claim optimality; certify against
				// a clean recompute before believing it.
				refresh = true
				continue
			}
			if !s.pertOn {
				return StatusOptimal
			}
			// Perturbed optimum reached: switch to the exact costs and let
			// the loop finish the (usually empty) remainder.
			s.pertOn = false
			refresh = true
			continue
		}
		s.ftran(q)
		t, leave, leaveStat := s.primalRatio(q, dir, false, bland)
		if math.IsInf(t, 1) {
			if !fresh {
				refresh = true
				continue
			}
			if s.pertOn {
				// A ray that only improves the perturbed objective is not
				// proof of unboundedness; re-examine with exact costs.
				s.pertOn = false
				refresh = true
				continue
			}
			return StatusUnbounded
		}
		if leave < 0 {
			// Bound flip of the entering column: x_B shifts along the column,
			// the reduced costs are untouched.
			for i := 0; i < m; i++ {
				s.xB[i] -= dir * t * s.w[i]
			}
			if s.stat[q] == nbLower {
				s.stat[q] = nbUpper
			} else {
				s.stat[q] = nbLower
			}
			s.iters++
			if fresh {
				s.fullPivots++
			} else {
				s.incrPivots++
			}
			continue
		}
		dq := s.d[q]
		vq := s.nbValue(q)
		bcol := int(s.basic[leave])
		incrD := !bland
		if incrD {
			s.devexUpdatePrimal(q, leave) // also fills alphaBuf with the pivot row
			incrD = s.alphaBuf[q] != 0
		}
		for i := 0; i < m; i++ {
			s.xB[i] -= dir * t * s.w[i]
		}
		if !s.pivot(q, leave, leaveStat) {
			return statusNumFail
		}
		s.xB[leave] = vq + dir*t
		if incrD {
			theta := dq / s.alphaBuf[q]
			for j := 0; j < s.in.n; j++ {
				if s.stat[j] == nbBasic || j == bcol {
					continue
				}
				s.d[j] -= theta * s.alphaBuf[j]
			}
			s.d[bcol] = -theta
			s.d[q] = 0
		} else {
			refresh = true
		}
		if fresh {
			s.fullPivots++
		} else {
			s.incrPivots++
		}
		// A refactorization inside pivot invalidates the incremental drift
		// budget; rebuild from the clean factors next round.
		if s.fac.updates() == 0 {
			refresh = true
		}
	}
}

// dual runs the bounded-variable dual simplex from the current basis, which
// must be dual feasible (reduced costs consistent with the nonbasic
// statuses). It restores primal feasibility bound violation by bound
// violation; when none remains the basis is optimal. The leaving row is
// picked by dual devex — the largest violation scaled by the row reference
// weights — which steers repeated warm starts away from the same degenerate
// rows. StatusInfeasible means the subproblem has no feasible point (the
// usual warm-start outcome for a pruned branch-and-bound child).
//
// Two perf structures distinguish it from a textbook loop. First, the
// entering choice is a bound-flipping ratio test (Maros' BFRT): boxed
// nonbasic columns whose breakpoints the dual step passes are flipped to
// their opposite bound inside a single pivot, absorbing runs of degenerate
// breakpoints that used to stall warm starts one zero-progress pivot at a
// time. Second, the basic values and reduced costs are maintained
// incrementally across pivots in O(nnz) — x_B by the pivot column, d by the
// pivot row — with a from-scratch refresh only at loop entry, after a
// refactorization, and on the perturbation switch-off.
func (s *simplexState) dual(budget int) Status {
	in := s.in
	m := in.m
	start := s.iters
	limit := budget
	if limit <= 0 {
		limit = s.callLimit()
	}
	blandAt := 4*(m+in.n) + 50
	for i := range s.rowW {
		s.rowW[i] = 1
	}
	s.pertOn = true
	defer func() { s.pertOn = false }()
	refresh := true
	for {
		if s.iters-start > limit || s.aborted() {
			return StatusIterLimit
		}
		fresh := refresh
		if refresh {
			s.computeXB()
			for i := 0; i < m; i++ {
				s.cbBuf[i] = s.objCost(int(s.basic[i]))
			}
			s.computeDuals(s.cbBuf, s.objCost)
			refresh = false
		}
		// Leaving row: the devex-scaled most violated basic variable.
		r, below := -1, false
		best := 0.0
		for i := 0; i < m; i++ {
			bcol := int(s.basic[i])
			if v := s.lo[bcol] - s.xB[i]; v > feasEps {
				if sc := v * v / s.rowW[i]; sc > best {
					r, below, best = i, true, sc
				}
			}
			if v := s.xB[i] - s.hi[bcol]; v > feasEps {
				if sc := v * v / s.rowW[i]; sc > best {
					r, below, best = i, false, sc
				}
			}
		}
		if r < 0 {
			if !fresh {
				// The incremental x_B says feasible; certify against a clean
				// recompute before leaving the dual loop.
				refresh = true
				continue
			}
			// Primal feasible. The trajectory priced perturbed costs, so the
			// vertex may be a hair off the exact optimum; the exact-cost
			// primal phase 2 certifies (and if needed finishes) it.
			s.pertOn = false
			return s.primalPhase2()
		}
		s.fac.btranRow(r, s.rho)
		bland := s.iters-start > blandAt
		// Pivot row over every column, shared by the ratio test, the reduced-
		// cost update and the flip decisions. One O(nnz) sweep.
		alpha := s.alphaBuf
		for j := 0; j < in.n; j++ {
			if s.stat[j] == nbBasic {
				alpha[j] = 0
				continue
			}
			alpha[j] = in.colDot(s.rho, j)
		}
		bcol := int(s.basic[r])
		delta := s.xB[r] - s.hi[bcol] // violation, positive magnitude below
		if below {
			delta = s.lo[bcol] - s.xB[r]
		}
		q, flips, st2 := s.dualRatioBFRT(below, delta, bland)
		if st2 != StatusOptimal {
			return st2 // infeasible (dual ray)
		}
		if len(flips) > 0 {
			s.applyBoundFlips(flips)
		}
		s.ftran(q)
		if math.Abs(s.w[r]) < 1e-9 {
			return statusNumFail
		}
		leaveStat := int8(nbUpper)
		if below {
			leaveStat = nbLower
		}
		if !bland {
			s.devexUpdateDual(r)
		}
		// Incremental basic-value update: the leaving variable travels to its
		// violated bound, everything else moves along B⁻¹·A_q.
		target := s.hi[bcol]
		if below {
			target = s.lo[bcol]
		}
		tq := (s.xB[r] - target) / s.w[r]
		vq := s.nbValue(q)
		theta := s.d[q] / alpha[q]
		for i := 0; i < m; i++ {
			s.xB[i] -= tq * s.w[i]
		}
		if !s.pivot(q, r, leaveStat) {
			return statusNumFail
		}
		s.xB[r] = vq + tq
		// Incremental reduced-cost update along the pivot row: one dual step
		// of size θ = d_q/α_rq. Flipped columns need no extra term — flips
		// leave the duals untouched.
		for j := 0; j < in.n; j++ {
			if s.stat[j] == nbBasic || j == bcol {
				continue
			}
			s.d[j] -= theta * alpha[j]
		}
		s.d[bcol] = -theta // tableau coefficient of the leaving column is 1
		s.d[q] = 0
		if fresh {
			s.fullPivots++
		} else {
			s.incrPivots++
		}
		// A periodic refactorization inside pivot resets the update counter;
		// refresh the incremental state against the clean factors.
		refresh = s.fac.updates() == 0
	}
}

// bndFlip records one bound-flipping ratio-test decision: nonbasic column
// col moves to its opposite bound, changing its value by delta.
type bndFlip struct {
	col   int32
	delta float64
}

// dualRatioBFRT runs the bound-flipping dual ratio test for a leaving row
// whose basic variable violates by delta (> 0): admissible breakpoints are
// sorted by dual ratio and consumed in order, flipping each boxed column
// whose full range still leaves violation to absorb, until one column
// becomes the entering variable. alphaBuf must hold the pivot row. Under
// Bland's rule no flips are taken and the lowest-index minimum-ratio column
// enters. Returns StatusInfeasible when the candidates run out with
// violation left (a dual ray: the subproblem has no feasible point).
func (s *simplexState) dualRatioBFRT(below bool, delta float64, bland bool) (int, []bndFlip, Status) {
	in := s.in
	alpha := s.alphaBuf
	cand := s.flipCand[:0]
	for j := 0; j < in.n; j++ {
		st := s.stat[j]
		if st == nbBasic {
			continue
		}
		a := alpha[j]
		if math.Abs(a) < feasEps {
			continue
		}
		var ok bool
		if below {
			ok = (st == nbLower && a < 0) || (st == nbUpper && a > 0) || st == nbFree
		} else {
			ok = (st == nbLower && a > 0) || (st == nbUpper && a < 0) || st == nbFree
		}
		if !ok {
			continue
		}
		dj := s.d[j]
		switch st {
		case nbLower: // dual feasibility means dj >= 0; clamp drift
			if dj < 0 {
				dj = 0
			}
		case nbUpper:
			if dj > 0 {
				dj = 0
			}
		}
		cand = append(cand, ratioCand{j: int32(j), ratio: math.Abs(dj / a), absAlpha: math.Abs(a)})
	}
	s.flipCand = cand // keep the grown backing array
	if len(cand) == 0 {
		return -1, nil, StatusInfeasible
	}
	if bland {
		// Plain Bland: minimum ratio, lowest index — guaranteed terminating,
		// no long steps.
		q := int32(-1)
		bestTheta := 0.0
		for _, c := range cand {
			th := c.ratio
			switch {
			case q < 0 || th < bestTheta-redCostEps:
				q, bestTheta = c.j, th
			case th < bestTheta+redCostEps && c.j < q:
				q, bestTheta = c.j, th
			}
		}
		return int(q), nil, StatusOptimal
	}
	sort.Sort(ratioOrder(cand))
	flips := s.flips[:0]
	remaining := delta
	for idx, c := range cand {
		j := c.j
		rng := s.hi[j] - s.lo[j]
		// Flip capacity: how much of the violation this column's full range
		// absorbs. The last candidate must enter (nothing left to flip to).
		cap_ := c.absAlpha * rng
		if idx == len(cand)-1 || math.IsInf(rng, 1) || cap_ >= remaining-feasEps {
			s.flips = flips
			return int(j), flips, StatusOptimal
		}
		dj := rng
		if s.stat[j] == nbUpper {
			dj = -rng
		}
		flips = append(flips, bndFlip{col: j, delta: dj})
		remaining -= cap_
	}
	return -1, nil, StatusInfeasible // unreachable: loop always returns
}

// ratioCand is one breakpoint of the bound-flipping ratio test: column j
// with its dual ratio and |α_rj|, each computed once per pivot.
type ratioCand struct {
	j        int32
	ratio    float64
	absAlpha float64
}

// ratioOrder sorts breakpoints by ascending ratio and, among equal ratios,
// by descending |α_rj| — the larger pivot element for stability.
type ratioOrder []ratioCand

func (o ratioOrder) Len() int      { return len(o) }
func (o ratioOrder) Swap(a, b int) { o[a], o[b] = o[b], o[a] }
func (o ratioOrder) Less(a, b int) bool {
	if o[a].ratio != o[b].ratio {
		return o[a].ratio < o[b].ratio
	}
	return o[a].absAlpha > o[b].absAlpha
}

// applyBoundFlips moves each flipped column to its opposite bound and
// repairs the basic values with a single batched FTRAN: x_B loses
// B⁻¹·(Σ A_j·Δ_j). Reduced costs are untouched — flips never change the
// duals.
func (s *simplexState) applyBoundFlips(flips []bndFlip) {
	in := s.in
	m := in.m
	rhs := s.flipBuf
	for i := range rhs[:m] {
		rhs[i] = 0
	}
	for _, f := range flips {
		j := int(f.col)
		if s.stat[j] == nbLower {
			s.stat[j] = nbUpper
		} else {
			s.stat[j] = nbLower
		}
		if j < in.nStruct {
			for p := in.colPtr[j]; p < in.colPtr[j+1]; p++ {
				rhs[in.rowIdx[p]] += in.val[p] * f.delta
			}
		} else {
			rhs[j-in.nStruct] += f.delta
		}
	}
	s.fac.ftranDense(rhs, s.flipOut)
	for i := 0; i < m; i++ {
		s.xB[i] -= s.flipOut[i]
	}
}

// installSlackBasis resets the state to the all-slack basis with structural
// columns nonbasic. When byCost is true, finite bounds are chosen by the sign
// of the objective coefficient, which makes the slack basis dual feasible
// whenever possible; the return value reports whether it succeeded for every
// column. When false (or for columns where the cost-preferred bound is
// infinite), any finite bound is used.
func (s *simplexState) installSlackBasis(byCost bool) bool {
	in := s.in
	dualOK := true
	for j := 0; j < in.nStruct; j++ {
		cj := in.c[j]
		loF, hiF := !math.IsInf(s.lo[j], -1), !math.IsInf(s.hi[j], 1)
		switch {
		case byCost && cj > redCostEps:
			if loF {
				s.stat[j] = nbLower
			} else {
				dualOK = false
				s.stat[j] = pickBound(loF, hiF)
			}
		case byCost && cj < -redCostEps:
			if hiF {
				s.stat[j] = nbUpper
			} else {
				dualOK = false
				s.stat[j] = pickBound(loF, hiF)
			}
		default:
			s.stat[j] = pickBound(loF, hiF)
		}
		s.pos[j] = -1
	}
	m := in.m
	for i := 0; i < m; i++ {
		col := in.nStruct + i
		s.basic[i] = int32(col)
		s.stat[col] = nbBasic
		s.pos[col] = int32(i)
	}
	s.fac.installIdentity()
	return dualOK
}

func pickBound(loF, hiF bool) int8 {
	switch {
	case loF:
		return nbLower
	case hiF:
		return nbUpper
	default:
		return nbFree
	}
}

// solveCold solves the LP from scratch: a dual simplex from the all-slack
// basis when that basis can be made dual feasible (the common case for the
// paper's fully-bounded formulations), otherwise a two-phase primal.
func (s *simplexState) solveCold() Status {
	if s.installSlackBasis(true) {
		st := s.dual(0)
		if st != statusNumFail {
			return st
		}
		// Numerical breakdown: retry with the primal path below.
	}
	s.installSlackBasis(false)
	if st := s.ctxStatus(s.primalPhase1()); st != StatusOptimal {
		return st
	}
	return s.ctxStatus(s.primalPhase2())
}

// ctxStatus converts a numerical-failure verdict caused by a mid-operation
// context abort (e.g. a cancelled factorization) into the iteration-limit
// verdict the abort classification expects.
func (s *simplexState) ctxStatus(st Status) Status {
	if st == statusNumFail && s.aborted() {
		return StatusIterLimit
	}
	return st
}

// solveWarm re-solves after bound changes from an inherited basis: refactor
// the basis and clean up primal feasibility with the dual simplex. The
// caller falls back to solveCold when it reports statusNumFail.
func (s *simplexState) solveWarm() Status {
	if !s.fac.refactorize() {
		return statusNumFail
	}
	return s.dual(s.warmLimit())
}

// installBasis loads a basis snapshot — the column of every basis row and
// every column's status — onto the state. The factorization is stale until
// the next refactorization, which solveWarm performs first.
func (s *simplexState) installBasis(basic []int32, stat []int8) {
	copy(s.basic, basic)
	copy(s.stat, stat)
	for j := range s.pos {
		s.pos[j] = -1
	}
	for i, col := range s.basic {
		s.pos[col] = int32(i)
	}
}

// solveRelax runs the given warm attempt and falls back to a from-scratch
// solve when it failed numerically or stopped on its pivot budget while the
// context is still live. The bool reports whether the warm start was used.
func (s *simplexState) solveRelax(warmAttempt func() Status) (Status, bool) {
	st := warmAttempt()
	if st == statusNumFail || (st == StatusIterLimit && !s.aborted()) {
		return s.solveCold(), false
	}
	return st, true
}

// extract maps the current basic solution back to model-variable space,
// including presolve-fixed variables, clamping floating-point noise into the
// working bounds. computeXB must reflect the final basis (both simplex loops
// leave it fresh on StatusOptimal).
func (s *simplexState) extract() []float64 {
	in := s.in
	x := make([]float64, len(in.varCol))
	for v, col := range in.varCol {
		if col < 0 {
			x[v] = in.fixed[v]
			continue
		}
		var xv float64
		switch s.stat[col] {
		case nbBasic:
			xv = s.xB[s.pos[col]]
		case nbLower:
			xv = s.lo[col]
		case nbUpper:
			xv = s.hi[col]
		}
		if xv < s.lo[col] {
			xv = s.lo[col]
		}
		if xv > s.hi[col] {
			xv = s.hi[col]
		}
		x[v] = xv
	}
	return x
}

// SolveLP solves the LP relaxation of m (integrality dropped) with the
// sparse bounded-variable simplex. The returned solution is indexed by
// Var.ID.
func SolveLP(m *Model) (*Solution, error) {
	return solveLPContext(context.Background(), m)
}

// solveLPContext is SolveLP bounded by a context; once ctx is done the solve
// aborts with StatusIterLimit (callers classify the abort).
func solveLPContext(ctx context.Context, m *Model) (*Solution, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	in, decided := compile(m, false)
	if decided == StatusInfeasible {
		return &Solution{Status: StatusInfeasible, Stats: SolveStats{Presolve: in.pre}}, nil
	}
	s := newState(in)
	s.ctx = ctx
	status := s.solveCold()
	sol := &Solution{
		Status:     status,
		Iterations: s.iters,
		Stats: SolveStats{
			SimplexIters: s.iters,
			Presolve:     in.pre,
			ColdStarts:   1,
			Workers:      1,
			Factor:       s.fac.snapshot(),
		},
	}
	sol.Stats.Gap = -1
	switch status {
	case statusNumFail:
		return nil, fmt.Errorf("milp: simplex numerical failure (singular basis)")
	case StatusOptimal:
		sol.X = s.extract()
		obj, _ := m.Objective()
		sol.Objective = obj.Eval(sol.X)
		sol.Bound = sol.Objective
		sol.Stats.Gap = 0
	}
	return sol, nil
}
