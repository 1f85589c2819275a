package milp

import "math"

// Node-heuristic parameters.
const (
	// heurEvery spaces heuristic dives: one worker claims a dive every this
	// many branch-and-bound nodes (plus one at the root).
	heurEvery = 48
	// heurMaxRounds caps the fix-propagate-resolve rounds of one dive.
	heurMaxRounds = 40
	// heurPivotBudget bounds the dual-simplex pivots of each dive resolve.
	heurPivotBudget = 500
	// heurRoundTol is the fractionality under which a dive round bulk-fixes
	// a column to its nearest integer.
	heurRoundTol = 0.1
	// rinsAgreeTol is the tolerance under which the node relaxation agrees
	// with the incumbent, making the column a RINS fixing candidate.
	rinsAgreeTol = 1e-3
)

// claimHeuristicSlot reserves the next heuristic trigger for this worker:
// dives run at the root and then roughly every heurEvery nodes across the
// pool, never concurrently duplicated.
func (w *bbWorker) claimHeuristicSlot() bool {
	sh := w.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.nodes < sh.heurNext {
		return false
	}
	sh.heurNext = sh.nodes + heurEvery
	return true
}

// runHeuristics tries to improve the incumbent from the current node's
// relaxation: a RINS dive (fix the integer columns where relaxation and
// incumbent agree, then dive) when an incumbent exists, and a plain
// feasibility dive. Both run on the worker's scratch simplex state; the main
// state, its bounds and its live basis are untouched. x is the node
// relaxation solution indexed by model variable.
func (w *bbWorker) runHeuristics(x []float64) {
	if w.heur == nil {
		w.heur = getState(w.in)
		w.heur.ctx = w.st.ctx
	}
	sh := w.sh
	sh.mu.Lock()
	var inc []float64
	if sh.best != nil {
		inc = append([]float64(nil), sh.best...)
	}
	sh.mu.Unlock()
	if inc != nil {
		w.dive(x, inc)
	}
	w.dive(x, nil)
	iters := w.heur.iters
	w.heur.iters = 0
	sh.mu.Lock()
	sh.lpIters += iters
	sh.mu.Unlock()
}

// dive runs one feasibility dive on the scratch state, seeded from the main
// state's node bounds and optimal basis. With rins non-nil, integer columns
// whose relaxation value agrees with the incumbent are fixed first (the RINS
// neighborhood). Each round bulk-fixes every nearly integral column plus the
// single most integral fractional one, propagates, and repairs the basis
// with a budgeted dual solve; an integral point that verifies against the
// original model becomes an incumbent candidate.
func (w *bbWorker) dive(x, rins []float64) {
	h := w.heur
	st := w.st
	in := w.in
	copy(h.lo, st.lo)
	copy(h.hi, st.hi)
	copy(h.basic, st.basic)
	copy(h.stat, st.stat)
	for j := range h.pos {
		h.pos[j] = -1
	}
	for i, col := range h.basic {
		h.pos[col] = int32(i)
	}
	if rins != nil {
		fixed := 0
		for _, v := range w.intVars {
			col := in.varCol[v.id]
			if col < 0 {
				continue
			}
			rv := math.Round(rins[v.id])
			if math.Abs(x[v.id]-rv) > rinsAgreeTol {
				continue
			}
			if rv < h.lo[col]-feasEps || rv > h.hi[col]+feasEps {
				continue
			}
			h.lo[col], h.hi[col] = rv, rv
			fixed++
		}
		if fixed == 0 {
			return // no neighborhood; the plain dive covers this node
		}
	}
	if _, ok := propagateBounds(in, h.lo, h.hi); !ok {
		return
	}
	if !h.fac.refactorize() {
		return
	}
	status := h.dual(heurPivotBudget)
	for round := 0; round < heurMaxRounds; round++ {
		if status != StatusOptimal {
			return
		}
		nFrac := 0
		pick, pickFrac := -1, 2.0
		for _, v := range w.intVars {
			col := in.varCol[v.id]
			if col < 0 {
				continue
			}
			xv := h.colValue(col)
			f := math.Abs(xv - math.Round(xv))
			if f <= w.opts.IntFeasTol {
				continue
			}
			nFrac++
			if f < pickFrac {
				pickFrac, pick = f, col
			}
		}
		if nFrac == 0 {
			xf := h.extract()
			for _, v := range w.intVars {
				xf[v.id] = math.Round(xf[v.id])
			}
			// Verify against the true model, not the relaxation: dives round
			// aggressively and tolerances could conspire.
			if ok, obj := checkFeasible(w.m, xf, w.opts.IntFeasTol); ok {
				if w.foundIncumbent(xf, w.dirSign*obj) {
					sh := w.sh
					sh.mu.Lock()
					sh.heurFound++
					sh.mu.Unlock()
				}
			}
			return
		}
		changed := false
		for _, v := range w.intVars {
			col := in.varCol[v.id]
			if col < 0 {
				continue
			}
			xv := h.colValue(col)
			f := math.Abs(xv - math.Round(xv))
			if f <= w.opts.IntFeasTol {
				continue
			}
			if f <= heurRoundTol || col == pick {
				// Integer bounds are integral here, so the rounded value
				// stays inside [lo, hi].
				rv := math.Round(xv)
				h.lo[col], h.hi[col] = rv, rv
				changed = true
			}
		}
		if !changed {
			return
		}
		if _, ok := propagateBounds(in, h.lo, h.hi); !ok {
			return
		}
		status = h.dual(heurPivotBudget)
	}
}
