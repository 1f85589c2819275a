package milp

import (
	"math"
	"sort"
)

// Local-branching parameters.
const (
	// lbRadius is the Hamming-ball radius around the incumbent: the sub-MIP
	// may flip at most this many binary columns.
	lbRadius = 10
	// lbMaxNodes caps the depth-first sub-MIP's node count.
	lbMaxNodes = 120
	// lbPivotBudget bounds the dual-simplex pivots of each sub-MIP resolve.
	lbPivotBudget = 600
	// lbMinTreeNodes is the tree size below which local branching never
	// starts. On small trees the sub-MIP costs more than it finds: on the
	// seed-1 exact benchmark list, where no tree passes 105 nodes, running
	// it at every improving incumbent took about half of all scheduling
	// time. On the 16-20-op gap suite, whose trees pass 240 nodes within
	// 30 s, gates of 0, 120 and 240 nodes ended with the same proofs and
	// similar gaps, while no local branching at all left four instances
	// with gaps 0.09-0.22 percentage points larger in each of three runs.
	lbMinTreeNodes = 120
)

// claimLocalBranchSlot reserves a local-branching run for this worker. A run
// triggers when the tree has explored at least lbMinTreeNodes nodes, the
// shared incumbent improved since the last attempt and no other worker is
// already inside one; the claim snapshots the incumbent and the cutoff under
// the lock.
func (w *bbWorker) claimLocalBranchSlot() (inc []float64, cutoff float64, ok bool) {
	sh := w.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.nodes < lbMinTreeNodes || sh.lbActive || sh.best == nil || sh.bestObj >= sh.lbLastObj-1e-9 {
		return nil, 0, false
	}
	sh.lbActive = true
	sh.lbLastObj = sh.bestObj
	return append([]float64(nil), sh.best...), sh.bestObj, true
}

// runLocalBranch searches the Hamming ball of radius lbRadius around the
// incumbent as a budgeted depth-first sub-MIP on a scratch simplex state.
// The ball constraint
//
//	sum_{inc_j = 0} x_j + sum_{inc_j = 1} (1 - x_j) <= lbRadius
//
// over the binary structural columns is NOT globally valid — it would cut
// off integer points outside the neighbourhood — so it lives only on a
// scratch instance built by extendWithCuts and is never merged into the
// global tree; every integral point the sub-MIP reaches is verified against
// the original model (the ball row is absent there, and ball-interior points
// are model-feasible iff they check out) before it becomes an incumbent. On
// any failure — infeasible ball, budget exhausted, nothing better inside —
// the worker simply falls back to the global tree.
func (w *bbWorker) runLocalBranch(inc []float64, cutoff float64) {
	sh := w.sh
	defer func() {
		sh.mu.Lock()
		sh.lbActive = false
		sh.mu.Unlock()
	}()

	in := w.in
	ball := &cutRow{}
	ones := 0
	binaries := 0
	for _, v := range w.intVars {
		col := in.varCol[v.id]
		if col < 0 || in.lo[col] != 0 || in.hi[col] != 1 {
			continue
		}
		binaries++
		if math.Round(inc[v.id]) >= 1 {
			ball.cols = append(ball.cols, int32(col))
			ball.coef = append(ball.coef, -1)
			ones++
		} else {
			ball.cols = append(ball.cols, int32(col))
			ball.coef = append(ball.coef, 1)
		}
	}
	if binaries <= 2*lbRadius {
		return // the ball is (nearly) the whole space; nothing local about it
	}
	ball.rhs = float64(lbRadius - ones)
	sort.Sort(&cutColSort{ball})
	ball.norm = math.Sqrt(float64(len(ball.cols)))

	ext := extendWithCuts(in, []*cutRow{ball})
	st := getState(ext)
	defer statePool.Put(st)
	st.ctx = w.st.ctx

	type lbNode struct{ changes []bndChange }
	stack := []lbNode{{}}
	nodes := 0
	cold := true
	for len(stack) > 0 && nodes < lbMaxNodes {
		if st.ctx != nil && st.ctx.Err() != nil {
			break
		}
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		st.resetBounds()
		ok := true
		for _, ch := range node.changes {
			c := int(ch.col)
			nlo := math.Max(st.lo[c], ch.lo)
			nhi := math.Min(st.hi[c], ch.hi)
			if nlo > nhi {
				ok = false
				break
			}
			st.lo[c], st.hi[c] = nlo, nhi
		}
		if !ok {
			continue
		}
		if _, feas := propagateBounds(ext, st.lo, st.hi); !feas {
			continue
		}
		var status Status
		if cold {
			status = st.solveCold()
			cold = false
		} else {
			status = st.dual(lbPivotBudget)
			if status == statusNumFail {
				status = st.solveCold()
			}
		}
		if status != StatusOptimal {
			continue // infeasible, budget-limited or aborted: prune
		}
		x := st.extract()
		obj := w.dirSign * w.obj.Eval(x)
		if obj >= cutoff-1e-9 {
			continue // cannot improve the incumbent from here
		}
		// Most-fractional branching; integral points verify against the true
		// model (ball row excluded) and install through the shared incumbent.
		pick, pickDist := -1, -1.0
		var pickVal float64
		for _, v := range w.intVars {
			col := in.varCol[v.id]
			if col < 0 {
				continue
			}
			xv := st.colValue(col)
			f := math.Abs(xv - math.Round(xv))
			if f <= w.opts.IntFeasTol {
				continue
			}
			if d := math.Min(f, 1-f); d > pickDist {
				pickDist, pick, pickVal = d, col, xv
			}
		}
		if pick < 0 {
			xf := append([]float64(nil), x...)
			for _, v := range w.intVars {
				xf[v.id] = math.Round(xf[v.id])
			}
			if feasOK, objVal := checkFeasible(w.m, xf, w.opts.IntFeasTol); feasOK {
				lb := w.dirSign * objVal
				if w.foundIncumbent(xf, lb) {
					sh.mu.Lock()
					sh.lbFound++
					sh.mu.Unlock()
					if lb < cutoff {
						cutoff = lb
					}
				}
			}
			continue
		}
		fl, ce := math.Floor(pickVal), math.Ceil(pickVal)
		down := append(append([]bndChange(nil), node.changes...),
			bndChange{col: int32(pick), lo: math.Inf(-1), hi: fl})
		up := append(append([]bndChange(nil), node.changes...),
			bndChange{col: int32(pick), lo: ce, hi: math.Inf(1)})
		// Push the nearer side last so the DFS dives toward the relaxation.
		if pickVal-fl < ce-pickVal {
			stack = append(stack, lbNode{up}, lbNode{down})
		} else {
			stack = append(stack, lbNode{down}, lbNode{up})
		}
	}

	sh.mu.Lock()
	sh.lpIters += st.iters
	sh.incrPivots += st.incrPivots
	sh.fullPivots += st.fullPivots
	sh.factor.merge(st.fac.snapshot())
	sh.mu.Unlock()
}
