package milp

import (
	"container/heap"
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// SolveOptions configures the branch-and-bound MILP driver.
type SolveOptions struct {
	// TimeLimit caps wall-clock time. Zero means no limit. It is implemented
	// as a context.WithTimeout derived from the caller's context; when it
	// fires the best incumbent found so far is returned with StatusTimeLimit,
	// matching the paper's best-effort 30-minute solver cap.
	TimeLimit time.Duration
	// MaxNodes caps the number of branch-and-bound nodes. Zero means no cap.
	MaxNodes int
	// Gap is the relative optimality gap at which search stops early
	// (|incumbent - bound| <= Gap * max(1,|incumbent|)). Zero requires proof
	// of optimality.
	Gap float64
	// Incumbent, if non-nil, provides a known feasible assignment (indexed by
	// Var.ID) used as the initial upper bound (lower for Maximize). A warm
	// start from the heuristic scheduler prunes most of the tree.
	Incumbent []float64
	// IntFeasTol is the integrality tolerance; defaults to 1e-6.
	IntFeasTol float64
	// OnIncumbent, if non-nil, is invoked whenever the search installs an
	// improving integral incumbent — including the initial Incumbent warm
	// start — with a copy of the assignment (indexed by Var.ID), its
	// objective value in the model's sense, and the node count at that
	// moment. It is called synchronously from solver workers while internal
	// locks are held: implementations must be fast and must not call back
	// into the solver.
	OnIncumbent func(x []float64, objective float64, nodes int)
	// Workers bounds the parallel branch-and-bound worker pool. Zero selects
	// min(GOMAXPROCS, 8); one recovers a fully sequential search.
	Workers int
	// BranchPriority, if non-nil, ranks integer variables for branching: at
	// each node only the fractional candidates of the highest priority class
	// present compete on pseudo-cost scores. Higher values branch first. Use
	// it to steer the search toward "master" decisions (e.g. assignment
	// binaries that determine auxiliary indicators through propagation);
	// integrality and optimality are unaffected — only the tree shape changes.
	BranchPriority func(v Var) int
	// Conflicts declares pairs of binary literals that cannot both be 1 in
	// any integer-feasible point (domain knowledge the row structure alone
	// does not expose, e.g. must-overlap operation pairs). They seed the
	// root conflict graph, whose maximal-clique cuts tighten the relaxation;
	// pairs over non-binary or presolve-eliminated variables are ignored.
	// Declaring a pair that CAN jointly be 1 makes the clique cuts invalid
	// and may prune the true optimum.
	Conflicts [][2]ConflictLiteral
	// ObjIntegral asserts that every integer-feasible point of the model
	// attains an integral objective value (after continuous variables settle
	// at their objective-minimal positions) — e.g. integer objective
	// coefficients over integer variables, or a totally unimodular continuous
	// block with integral data. The solver then rounds every node relaxation
	// bound up to the next integer and strengthens the incumbent cutoff to
	// bestObj-1, which both prunes harder and lets reduced-cost fixing bite:
	// tiny fractional bound gaps become whole-unit proofs. Setting it on a
	// model where the assertion fails can prune the true optimum.
	ObjIntegral bool
}

// bbNode is one open subproblem: the bound changes accumulated from the root
// and the parent's optimal basis, from which the node's relaxation is
// warm-started with a dual-simplex cleanup.
type bbNode struct {
	seq     int64
	bound   float64 // parent relaxation value, minimize sense
	depth   int
	changes []bndChange
	basic   []int32 // parent basis snapshot (nil for the root: cold solve)
	stat    []int8

	// Branching pedigree for pseudo-cost learning: the structural column the
	// parent branched on to create this node (-1 for the root), the branch
	// direction, and the fractional distance the branch moved (f down,
	// 1-f up). The node's solved bound minus bound, scaled by bdist, is one
	// per-unit degradation observation for (bcol, bup).
	bcol  int32
	bup   bool
	bdist float64
}

// nodeHeap is a best-bound priority queue (ties broken by creation order so
// single-worker searches stay deterministic).
type nodeHeap []*bbNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*bbNode)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// bbShared is the coordinator state shared by the worker pool.
type bbShared struct {
	mu   sync.Mutex
	cond *sync.Cond

	open        nodeHeap
	outstanding int
	seq         int64

	best    []float64
	bestObj float64 // minimize sense; +inf when no incumbent

	nodes, lpIters, warm, cold int

	// Worker-merged diagnostics: factorization kernel counters, the
	// node-level propagation tallies, and the incremental-vs-full pricing
	// pivot split (flushed once per worker at exit).
	factor                 FactorStats
	propTighten, propPrune int
	incrPivots, fullPivots int
	rcFixed                int

	// Pseudo-cost tables, one entry per structural column: summed per-unit
	// objective degradations and observation counts, split by branch
	// direction. Totals feed the uninitialized-column fallback average.
	pcDown, pcUp   []float64
	pcDownN, pcUpN []int32
	pcDownTot      float64
	pcUpTot        float64
	pcDownObs      int
	pcUpObs        int
	pcInits        int     // reliability-initialization probes run
	heurFound      int     // incumbents installed by node heuristics
	heurNext       int     // node count gating the next heuristic dive
	lbFound        int     // incumbents installed by local branching
	lbLastObj      float64 // bestObj at the last local-branching attempt
	lbActive       bool    // a worker currently holds the local-branching slot

	// lostLB is the smallest bound of any subtree dropped without a full
	// proof: pruned by the Gap option, or abandoned when the search stopped.
	// It caps the global dual bound alongside the open queue.
	lostLB float64

	nodeLimit     bool
	incomplete    bool
	rootUnbounded bool
	stopped       bool
}

func (sh *bbShared) wake() { sh.cond.Broadcast() }

// gapMetLocked reports whether a subtree with the given bound cannot improve
// the incumbent enough to be worth exploring. Callers hold sh.mu.
func (sh *bbShared) gapMetLocked(lb, gap float64) bool {
	if sh.best == nil {
		return false
	}
	if sh.bestObj-lb <= 1e-9 {
		return true
	}
	if gap > 0 && sh.bestObj-lb <= gap*math.Max(1, math.Abs(sh.bestObj)) {
		if lb < sh.lostLB {
			sh.lostLB = lb
		}
		return true
	}
	return false
}

// noteLostLocked records the bound of a subtree dropped without proof.
func (sh *bbShared) noteLostLocked(lb float64) {
	if lb < sh.lostLB {
		sh.lostLB = lb
	}
}

// Solve runs branch and bound on m. Continuous models are dispatched straight
// to the simplex. The returned solution is indexed by Var.ID.
func Solve(m *Model, opts SolveOptions) (*Solution, error) {
	return SolveContext(context.Background(), m, opts)
}

// SolveContext is Solve bounded by a context. Cancelling ctx mid-solve stops
// the search promptly (within a few simplex pivots, typically well under
// 100 ms) and returns the best incumbent with StatusInterrupted, or a
// solution with no assignment when none was found. opts.TimeLimit is layered
// on top of ctx as a derived context.WithTimeout.
//
// The search is a best-bound branch and bound over a compiled sparse LP:
// each popped node warm-starts from its parent's basis with a dual-simplex
// cleanup (cold primal solve only on numerical failure), then dives on one
// child in place — no refactorization, just a bound change — while the other
// child joins the shared queue. opts.Workers such workers run concurrently
// against a shared incumbent.
func SolveContext(ctx context.Context, m *Model, opts SolveOptions) (*Solution, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	intVars := m.IntegerVars()
	solveCtx, cancel := solveDeadline(ctx, opts.TimeLimit)
	defer cancel()

	if len(intVars) == 0 {
		sol, err := solveLPContext(solveCtx, m)
		// The simplex reports any context abort as StatusIterLimit;
		// distinguish caller cancellation from the derived time limit.
		if err == nil && sol.Status == StatusIterLimit && solveCtx.Err() != nil {
			sol.Status = abortStatus(ctx, solveCtx)
		}
		return sol, err
	}

	if opts.IntFeasTol == 0 {
		opts.IntFeasTol = 1e-6
	}
	_, sense := m.Objective()
	dirSign := 1.0
	if sense == Maximize {
		dirSign = -1
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 8)
	}

	sh := &bbShared{bestObj: math.Inf(1), lostLB: math.Inf(1), lbLastObj: math.Inf(1)}
	sh.cond = sync.NewCond(&sh.mu)
	if opts.Incumbent != nil {
		if ok, obj := checkFeasible(m, opts.Incumbent, opts.IntFeasTol); ok {
			sh.best = append([]float64(nil), opts.Incumbent...)
			sh.bestObj = dirSign * obj
			if opts.OnIncumbent != nil {
				opts.OnIncumbent(append([]float64(nil), sh.best...), obj, 0)
			}
		}
	}

	in, decided := compile(m, true)
	stats := SolveStats{Presolve: in.pre, Workers: workers, Gap: -1}
	if decided == StatusInfeasible {
		// Presolve proved the model empty before any search. A feasible user
		// incumbent contradicting that can only mean tolerance disagreement;
		// trust the incumbent over the proof.
		if sh.best != nil {
			return &Solution{Status: StatusFeasible, X: sh.best, Objective: dirSign * sh.bestObj,
				Bound: math.NaN(), Stats: stats}, nil
		}
		stats.Gap = 0
		return &Solution{Status: StatusInfeasible, Stats: stats}, nil
	}
	if solveCtx.Err() != nil {
		return finishAborted(abortStatus(ctx, solveCtx), sh, dirSign, stats), nil
	}

	// Root cutting planes: tighten the relaxation with Gomory mixed-integer,
	// cover, and conflict-clique cuts before any branching. The cut
	// loop also hands back the root optimum's basis, so the root node
	// warm-starts like any other. Separation stops as soon as the root bound
	// proves the incumbent by the same test that prunes a tree node: the
	// root node then prunes itself, and further cuts could only tighten a
	// bound nothing needs.
	obj, _ := m.Objective()
	rootProven := func(st *simplexState) bool {
		lb := nodeBound(obj, dirSign, opts.ObjIntegral, st.extract())
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.gapMetLocked(lb, opts.Gap)
	}
	cutRes := rootCutLoop(solveCtx, in, opts.IntFeasTol, opts.Conflicts, workers, rootProven)
	in = cutRes.in
	stats.Cuts = cutRes.stats
	stats.SeparationWall = cutRes.sepWall
	sh.lpIters += cutRes.iters
	sh.incrPivots += cutRes.incr
	sh.fullPivots += cutRes.full
	if cutRes.status == StatusOptimal {
		// The cut loop cold-solved the root relaxation; the root node then
		// re-attaches to its basis as a warm start like any other node.
		sh.cold++
	}
	root := &bbNode{bound: math.Inf(-1), bcol: -1}
	if cutRes.basic != nil {
		root.basic, root.stat = cutRes.basic, cutRes.stat
	}

	sh.pcDown = make([]float64, in.nStruct)
	sh.pcUp = make([]float64, in.nStruct)
	sh.pcDownN = make([]int32, in.nStruct)
	sh.pcUpN = make([]int32, in.nStruct)

	sh.open = nodeHeap{root}

	// A context abort must also wake workers parked on the condition
	// variable; the watcher exits when the solve finishes (cancel above).
	go func() {
		<-solveCtx.Done()
		sh.mu.Lock()
		sh.stopped = true
		sh.wake()
		sh.mu.Unlock()
	}()

	// Branching priorities are fixed for the whole solve; resolve the
	// callback once so candidate filtering is an array lookup per node.
	var prio []int
	if opts.BranchPriority != nil {
		prio = make([]int, m.NumVars())
		for _, v := range intVars {
			prio[v.id] = opts.BranchPriority(v)
		}
	}

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := &bbWorker{
				sh: sh, in: in, m: m, obj: obj, opts: opts,
				dirSign: dirSign, intVars: intVars, id: wid,
				st: getState(in), prio: prio,
			}
			w.st.ctx = solveCtx
			w.run()
		}(wid)
	}
	wg.Wait()

	sh.mu.Lock()
	defer sh.mu.Unlock()
	stats.Nodes = sh.nodes
	stats.SimplexIters = sh.lpIters
	stats.WarmStarts = sh.warm
	stats.ColdStarts = sh.cold
	stats.Factor = sh.factor
	// The cut loop's counters join the workers'; Kernel keeps naming the
	// branch-and-bound kernel, which the workers merged first.
	stats.Factor.merge(cutRes.factor)
	stats.PropagationTightenings = sh.propTighten
	stats.PropagationPrunes = sh.propPrune
	stats.PseudoCostInits = sh.pcInits
	stats.HeuristicIncumbents = sh.heurFound
	stats.LocalBranchingIncumbents = sh.lbFound
	stats.IncrementalPivots = sh.incrPivots
	stats.FullPricingPivots = sh.fullPivots
	stats.ReducedCostFixings = sh.rcFixed

	if sh.rootUnbounded {
		return &Solution{Status: StatusUnbounded, Nodes: sh.nodes, Iterations: sh.lpIters, Stats: stats}, nil
	}

	cancelled := ctx.Err() != nil
	timedOut := !cancelled && solveCtx.Err() != nil
	drained := len(sh.open) == 0 && !sh.incomplete && !sh.nodeLimit

	// Global dual bound: the weakest of everything still open or dropped
	// without proof.
	globalLB := sh.lostLB
	for _, n := range sh.open {
		if n.bound < globalLB {
			globalLB = n.bound
		}
	}

	res := &Solution{Nodes: sh.nodes, Iterations: sh.lpIters, Stats: stats}
	switch {
	case sh.best != nil && drained:
		res.Status = StatusOptimal
		res.X = sh.best
		res.Objective = dirSign * sh.bestObj
		res.Bound = res.Objective
		res.Stats.Gap = 0
		if !math.IsInf(sh.lostLB, 1) {
			// Optimal only up to the requested gap: subtrees below the
			// incumbent were pruned unproven, so the honest dual bound is
			// theirs, not the incumbent's, and the residual gap is reported.
			res.Bound = dirSign * math.Min(sh.lostLB, sh.bestObj)
			res.Stats.Gap = relGap(sh.bestObj, sh.lostLB)
		}
	case sh.best != nil:
		switch {
		case cancelled:
			res.Status = StatusInterrupted
		case timedOut:
			res.Status = StatusTimeLimit
		case sh.nodeLimit:
			res.Status = StatusIterLimit
		default:
			res.Status = StatusFeasible
		}
		res.X = sh.best
		res.Objective = dirSign * sh.bestObj
		res.Bound = math.NaN()
		if !math.IsInf(globalLB, 0) {
			res.Bound = dirSign * globalLB
			res.Stats.Gap = relGap(sh.bestObj, globalLB)
		}
	case cancelled:
		res.Status = StatusInterrupted
	case timedOut || sh.incomplete:
		res.Status = StatusTimeLimit
	case sh.nodeLimit:
		res.Status = StatusIterLimit
	default:
		res.Status = StatusInfeasible
		res.Stats.Gap = 0
	}
	return res, nil
}

// relGap is the relative optimality gap between an incumbent and a dual
// bound, both in minimize sense.
func relGap(best, lb float64) float64 {
	g := (best - lb) / math.Max(1, math.Abs(best))
	if g < 0 {
		return 0
	}
	return g
}

// finishAborted builds the best-effort result for a solve whose context was
// already done before the search started.
func finishAborted(status Status, sh *bbShared, dirSign float64, stats SolveStats) *Solution {
	res := &Solution{Status: status, Stats: stats}
	if sh.best != nil {
		res.X = sh.best
		res.Objective = dirSign * sh.bestObj
		res.Bound = math.NaN()
	}
	return res
}

// bbWorker is one branch-and-bound worker: it pops best-bound nodes from the
// shared queue, solves them warm from the parent basis, and dives.
type bbWorker struct {
	sh      *bbShared
	in      *instance
	m       *Model
	obj     Expr
	opts    SolveOptions
	dirSign float64
	intVars []Var
	id      int
	st      *simplexState
	prio    []int // resolved BranchPriority by var id; nil when unset

	// heur is a second, lazily allocated simplex state the node heuristics
	// (RINS, feasibility diving) scribble on, so the worker's main state and
	// its live basis survive a dive untouched.
	heur *simplexState

	// Local propagation and reduced-cost-fixing tallies, merged into
	// bbShared at exit.
	propTighten, propPrune int
	rcFixed                int
}

func (w *bbWorker) run() {
	sh := w.sh
	defer func() {
		sh.mu.Lock()
		sh.factor.merge(w.st.fac.snapshot())
		sh.propTighten += w.propTighten
		sh.propPrune += w.propPrune
		sh.rcFixed += w.rcFixed
		sh.incrPivots += w.st.incrPivots
		sh.fullPivots += w.st.fullPivots
		if w.heur != nil {
			sh.factor.merge(w.heur.fac.snapshot())
			sh.incrPivots += w.heur.incrPivots
			sh.fullPivots += w.heur.fullPivots
		}
		sh.mu.Unlock()
		statePool.Put(w.st)
		if w.heur != nil {
			statePool.Put(w.heur)
		}
	}()
	for {
		sh.mu.Lock()
		for {
			if sh.stopped || sh.nodeLimit || sh.rootUnbounded {
				sh.mu.Unlock()
				return
			}
			// Drop queued nodes the incumbent has since pruned.
			for len(sh.open) > 0 && sh.gapMetLocked(sh.open[0].bound, w.opts.Gap) {
				heap.Pop(&sh.open)
			}
			if len(sh.open) > 0 {
				break
			}
			if sh.outstanding == 0 {
				sh.wake()
				sh.mu.Unlock()
				return
			}
			sh.cond.Wait()
		}
		node := heap.Pop(&sh.open).(*bbNode)
		sh.outstanding++
		sh.mu.Unlock()

		w.processSubtree(node)

		sh.mu.Lock()
		sh.outstanding--
		if sh.outstanding == 0 && len(sh.open) == 0 {
			sh.wake()
		}
		sh.mu.Unlock()
	}
}

// applyChanges installs the node's bounds on the worker state. Returns false
// when a bound pair crossed (the node is trivially infeasible).
func (w *bbWorker) applyChanges(changes []bndChange) bool {
	w.st.resetBounds()
	for _, ch := range changes {
		c := int(ch.col)
		nlo := math.Max(w.st.lo[c], ch.lo)
		nhi := math.Min(w.st.hi[c], ch.hi)
		if nlo > nhi {
			return false
		}
		w.st.lo[c], w.st.hi[c] = nlo, nhi
	}
	return true
}

// nodeBound is the bound, in minimize sense, that an optimal relaxation at
// the model point x proves for its subtree. Under ObjIntegral every
// attainable objective is integral, so the fractional value rounds up for
// free.
func nodeBound(obj Expr, dirSign float64, objIntegral bool, x []float64) float64 {
	lb := dirSign * obj.Eval(x)
	if objIntegral {
		if r := math.Ceil(lb - 1e-6); r > lb {
			lb = r
		}
	}
	return lb
}

// processSubtree solves the popped node and dives down one child chain,
// pushing the sibling of every branching step onto the shared queue. Dive
// steps reuse the live basis and inverse — the child differs by one bound
// change, so the dual simplex continues in place without refactorization.
func (w *bbWorker) processSubtree(node *bbNode) {
	st := w.st
	if !w.applyChanges(node.changes) {
		return
	}
	// Node-level propagation: replay the presolve's activity-based bound
	// tightening under this node's branching decisions. The root (no
	// changes) was already propagated to a fixpoint at compile time.
	if len(node.changes) > 0 {
		n, ok := propagateBounds(w.in, st.lo, st.hi)
		w.propTighten += n
		if !ok {
			w.propPrune++
			return
		}
	}

	var status Status
	var warmed bool
	if node.basic != nil {
		st.installBasis(node.basic, node.stat)
		status, warmed = st.solveRelax(st.solveWarm)
	} else {
		status, warmed = st.solveCold(), false
	}

	depth := node.depth
	changes := node.changes
	curBound := node.bound
	bcol, bup, bdist := node.bcol, node.bup, node.bdist
	for {
		iters := st.iters
		st.iters = 0
		var x []float64
		lb := curBound
		if status == StatusOptimal {
			x = st.extract()
			lb = nodeBound(w.obj, w.dirSign, w.opts.ObjIntegral, x)
			if bcol >= 0 {
				// The branch that created this node degraded the bound by
				// lb-curBound over a fractional distance of bdist: one
				// pseudo-cost observation.
				w.recordPseudo(bcol, bup, bdist, lb-curBound)
			}
		}
		if !w.accountNode(status, warmed, iters, depth, lb) {
			return
		}
		curBound = lb

		// Optimal relaxation: check integrality, otherwise branch and dive.
		cands := w.fracCandidates(x)
		if len(cands) == 0 {
			w.foundIncumbent(x, lb)
			return
		}

		// Reduced-cost fixing against the incumbent cutoff: the current basis
		// stays optimal (only far bounds move), the whole dive chain inherits
		// the tightened box, and propagation sees the stronger activities.
		w.rcFixed += w.rcFix(lb)

		// The sibling must warm-start from this node's optimal basis, and
		// reliability probes below pivot away from it — snapshot first.
		sibBasic := append([]int32(nil), st.basic...)
		sibStat := append([]int8(nil), st.stat...)

		// Periodic primal heuristics: RINS against the incumbent plus a
		// feasibility dive, run from this node's relaxation on the scratch
		// state.
		if w.claimHeuristicSlot() {
			w.runHeuristics(x)
		}

		// Local branching: once the tree is large enough and the incumbent
		// has improved since the last attempt, one worker searches its
		// Hamming-ball neighbourhood as a budgeted sub-MIP on a scratch state
		// (claimLocalBranchSlot holds the trigger).
		if inc, cutoff, ok := w.claimLocalBranchSlot(); ok {
			w.runLocalBranch(inc, cutoff)
		}

		cands = w.filterPriority(cands)
		w.reliabilityProbes(cands, lb, depth)
		pick := w.selectBranch(cands)

		col := pick.col
		xv := pick.x
		fl, ce := math.Floor(xv), math.Ceil(xv)
		down := bndChange{col: col, lo: math.Inf(-1), hi: fl}
		up := bndChange{col: col, lo: ce, hi: math.Inf(1)}
		diveCh, pushCh := down, up
		diveUp, pushUp := false, true
		if xv-fl >= ce-xv {
			diveCh, pushCh = up, down
			diveUp, pushUp = true, false
		}
		diveDist, pushDist := xv-fl, ce-xv
		if diveUp {
			diveDist, pushDist = ce-xv, xv-fl
		}

		// The sibling gets a snapshot of this node's optimal basis to warm
		// start from; the dive child keeps the live basis and inverse.
		sib := &bbNode{
			bound:   lb,
			depth:   depth + 1,
			changes: append(append([]bndChange(nil), changes...), pushCh),
			basic:   sibBasic,
			stat:    sibStat,
			bcol:    col,
			bup:     pushUp,
			bdist:   pushDist,
		}
		sh := w.sh
		sh.mu.Lock()
		sh.seq++
		sib.seq = sh.seq
		heap.Push(&sh.open, sib)
		sh.cond.Signal()
		sh.mu.Unlock()

		changes = append(changes, diveCh)
		depth++
		bcol, bup, bdist = col, diveUp, diveDist
		c := int(diveCh.col)
		nlo := math.Max(st.lo[c], diveCh.lo)
		nhi := math.Min(st.hi[c], diveCh.hi)
		if nlo > nhi {
			return
		}
		st.lo[c], st.hi[c] = nlo, nhi
		// Propagate the dive bound change too; the dual warm start then
		// starts from every implied tightening at once.
		n, ok := propagateBounds(w.in, st.lo, st.hi)
		w.propTighten += n
		if !ok {
			w.propPrune++
			return
		}
		status, warmed = st.solveRelax(func() Status { return st.dual(st.warmLimit()) })
	}
}

// bbCand is one fractional branching candidate at a node.
type bbCand struct {
	v    Var
	col  int32
	x    float64 // relaxation value
	frac float64 // x - floor(x), in (0, 1)
}

// fracCandidates lists the integer columns fractional at x.
func (w *bbWorker) fracCandidates(x []float64) []bbCand {
	var cands []bbCand
	for _, v := range w.intVars {
		col := w.in.varCol[v.id]
		if col < 0 {
			continue
		}
		xv := x[v.id]
		f := xv - math.Floor(xv)
		if math.Min(f, 1-f) > w.opts.IntFeasTol {
			cands = append(cands, bbCand{v: v, col: int32(col), x: xv, frac: f})
		}
	}
	return cands
}

// filterPriority keeps only the highest BranchPriority class among the
// fractional candidates, so pseudo-cost scoring competes within that class.
func (w *bbWorker) filterPriority(cands []bbCand) []bbCand {
	if w.prio == nil || len(cands) < 2 {
		return cands
	}
	best := w.prio[cands[0].v.id]
	for _, c := range cands[1:] {
		if p := w.prio[c.v.id]; p > best {
			best = p
		}
	}
	kept := cands[:0]
	for _, c := range cands {
		if w.prio[c.v.id] == best {
			kept = append(kept, c)
		}
	}
	return kept
}

// recordPseudo books one pseudo-cost observation: branching col in the given
// direction over fractional distance dist degraded the relaxation bound by
// delta.
func (w *bbWorker) recordPseudo(col int32, up bool, dist, delta float64) {
	if dist < 1e-9 {
		return
	}
	if delta < 0 {
		delta = 0 // numerical noise; bounds cannot improve downward
	}
	perUnit := delta / dist
	sh := w.sh
	sh.mu.Lock()
	if up {
		sh.pcUp[col] += perUnit
		sh.pcUpN[col]++
		sh.pcUpTot += perUnit
		sh.pcUpObs++
	} else {
		sh.pcDown[col] += perUnit
		sh.pcDownN[col]++
		sh.pcDownTot += perUnit
		sh.pcDownObs++
	}
	sh.mu.Unlock()
}

// rcFix tightens the worker state's bounds by reduced-cost fixing. At a
// dual-feasible optimum with bound lb, any point of the subtree that improves
// on the incumbent cutoff can move a nonbasic column away from its bound by
// at most slack/|d_j|, where slack is the room between lb and the cutoff.
// Integer columns round that radius down, so binaries with a large reduced
// cost are fixed outright. Only the far bound of each nonbasic moves, so the
// current basis stays primal and dual feasible and no re-solve is needed;
// the dive chain and node propagation both inherit the tighter box. Returns
// the number of bounds tightened.
func (w *bbWorker) rcFix(lb float64) int {
	sh := w.sh
	sh.mu.Lock()
	best := sh.bestObj
	sh.mu.Unlock()
	if math.IsInf(best, 1) {
		return 0
	}
	cutoff := best - 1e-9
	if w.opts.ObjIntegral {
		cutoff = best - 1 + 1e-6
	}
	slack := cutoff - lb
	if slack < 0 {
		return 0
	}
	st := w.st
	fixed := 0
	for j, s := range st.stat {
		isInt := j < w.in.nStruct && w.in.intCol[j]
		switch s {
		case nbLower:
			d := st.d[j]
			if d <= redCostEps {
				continue
			}
			nhi := st.lo[j] + slack/d
			if isInt {
				nhi = st.lo[j] + math.Floor(slack/d+intRoundTol)
			}
			if nhi < st.hi[j]-1e-9 {
				st.hi[j] = nhi
				fixed++
			}
		case nbUpper:
			d := st.d[j]
			if d >= -redCostEps {
				continue
			}
			nlo := st.hi[j] - slack/(-d)
			if isInt {
				nlo = st.hi[j] - math.Floor(slack/(-d)+intRoundTol)
			}
			if nlo > st.lo[j]+1e-9 {
				st.lo[j] = nlo
				fixed++
			}
		}
	}
	return fixed
}

// Reliability-branching parameters.
const (
	// relProbeDepth limits reliability probes to nodes near the root, where
	// a bad branching choice costs the most.
	relProbeDepth = 2
	// relProbeCands caps probed candidates per node.
	relProbeCands = 4
	// relProbeBudget caps probes per solve (each candidate costs two).
	relProbeBudget = 96
	// probePivots is the dual-simplex budget of one strong-branching probe.
	probePivots = 30
)

// reliabilityProbes initializes pseudo-costs for unreliable candidates with
// truncated strong branching: bound the column as the branch would, run a
// few dual pivots, and book the observed degradation. Probes leave the
// working basis wherever they stop — dual feasibility does not depend on
// variable bounds, so the subsequent dive solve simply continues from there;
// only the bounds are restored.
func (w *bbWorker) reliabilityProbes(cands []bbCand, lb float64, depth int) {
	if depth > relProbeDepth {
		return
	}
	sh := w.sh
	var need []int
	sh.mu.Lock()
	if sh.pcInits < relProbeBudget {
		for k, c := range cands {
			if sh.pcDownN[c.col] == 0 || sh.pcUpN[c.col] == 0 {
				need = append(need, k)
			}
		}
	}
	sh.mu.Unlock()
	if len(need) == 0 {
		return
	}
	sort.Slice(need, func(a, b int) bool {
		da := math.Min(cands[need[a]].frac, 1-cands[need[a]].frac)
		db := math.Min(cands[need[b]].frac, 1-cands[need[b]].frac)
		if da != db {
			return da > db // most fractional first
		}
		return cands[need[a]].col < cands[need[b]].col
	})
	if len(need) > relProbeCands {
		need = need[:relProbeCands]
	}
	st := w.st
	for _, k := range need {
		c := cands[k]
		sh.mu.Lock()
		if sh.pcInits >= relProbeBudget || sh.stopped {
			sh.mu.Unlock()
			return
		}
		sh.pcInits += 2
		sh.mu.Unlock()
		col := int(c.col)
		savedLo, savedHi := st.lo[col], st.hi[col]
		st.hi[col] = math.Floor(c.x)
		if st.dual(probePivots) == StatusOptimal {
			px := st.extract()
			w.recordPseudo(c.col, false, c.frac, w.dirSign*w.obj.Eval(px)-lb)
		}
		st.lo[col], st.hi[col] = savedLo, savedHi
		st.lo[col] = math.Ceil(c.x)
		if st.dual(probePivots) == StatusOptimal {
			px := st.extract()
			w.recordPseudo(c.col, true, 1-c.frac, w.dirSign*w.obj.Eval(px)-lb)
		}
		st.lo[col], st.hi[col] = savedLo, savedHi
		if st.aborted() {
			return
		}
	}
}

// selectBranch scores the candidates with the pseudo-cost product rule —
// max(f_down·pc_down, eps) · max(f_up·pc_up, eps) — falling back to the
// direction's global average for unobserved columns, and returns the best.
func (w *bbWorker) selectBranch(cands []bbCand) bbCand {
	sh := w.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	avgDn, avgUp := 1.0, 1.0
	if sh.pcDownObs > 0 {
		avgDn = sh.pcDownTot / float64(sh.pcDownObs)
	}
	if sh.pcUpObs > 0 {
		avgUp = sh.pcUpTot / float64(sh.pcUpObs)
	}
	best, bestScore := cands[0], -1.0
	for _, c := range cands {
		ed, eu := avgDn, avgUp
		if n := sh.pcDownN[c.col]; n > 0 {
			ed = sh.pcDown[c.col] / float64(n)
		}
		if n := sh.pcUpN[c.col]; n > 0 {
			eu = sh.pcUp[c.col] / float64(n)
		}
		score := math.Max(c.frac*ed, 1e-6) * math.Max((1-c.frac)*eu, 1e-6)
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// accountNode books one solved relaxation with the coordinator and decides
// whether the subtree continues (true = keep going). lb is the node's bound
// in minimize sense — the fresh relaxation value when status is optimal, the
// inherited parent bound otherwise — and is recorded as lost when the
// subtree is dropped without proof.
func (w *bbWorker) accountNode(status Status, warmed bool, iters, depth int, lb float64) bool {
	sh := w.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.nodes++
	sh.lpIters += iters
	if warmed {
		sh.warm++
	} else {
		sh.cold++
	}
	// The stop decision intentionally precedes the node-cap update: the node
	// that reaches MaxNodes was already solved, so its relaxation is used in
	// full (integrality check, incumbent) — only further nodes are cut off.
	stop := sh.stopped || sh.nodeLimit || sh.rootUnbounded
	if w.opts.MaxNodes > 0 && sh.nodes >= w.opts.MaxNodes && !sh.nodeLimit {
		sh.nodeLimit = true
		sh.wake()
	}

	switch status {
	case StatusOptimal:
		if stop {
			// The subtree still had work; its bound survives only as a cap
			// on the proof, and the search can no longer claim optimality.
			sh.incomplete = true
			sh.noteLostLocked(lb)
			return false
		}
		if sh.gapMetLocked(lb, w.opts.Gap) {
			return false
		}
		return true
	case StatusInfeasible:
		return false
	case StatusUnbounded:
		// An unbounded relaxation at the root means the MILP is unbounded or
		// infeasible; deeper in the tree we conservatively drop the subtree.
		if depth == 0 {
			sh.rootUnbounded = true
			sh.wake()
		}
		return false
	default:
		// Iteration-/deadline-limited or numerically failed relaxation: the
		// bound is unreliable, so this subtree stays unexplored.
		sh.incomplete = true
		sh.noteLostLocked(lb)
		return false
	}
}

// foundIncumbent installs an integral relaxation solution as the new
// incumbent if it improves on the shared best. Returns whether it did.
func (w *bbWorker) foundIncumbent(x []float64, lb float64) bool {
	// Round the integer coordinates exactly.
	for _, v := range w.intVars {
		x[v.id] = math.Round(x[v.id])
	}
	sh := w.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if lb < sh.bestObj-1e-9 {
		sh.bestObj = lb
		sh.best = x
		if w.opts.OnIncumbent != nil {
			w.opts.OnIncumbent(append([]float64(nil), x...), w.dirSign*lb, sh.nodes)
		}
		return true
	}
	return false
}

// checkFeasible verifies x against all constraints, bounds and integrality of
// m and returns the objective value on success.
func checkFeasible(m *Model, x []float64, intTol float64) (bool, float64) {
	if len(x) != m.NumVars() {
		return false, 0
	}
	for i := 0; i < m.NumVars(); i++ {
		v := Var{id: i}
		lo, hi := m.Bounds(v)
		if x[i] < lo-feasEps || x[i] > hi+feasEps {
			return false, 0
		}
		if m.Type(v) != Continuous && math.Abs(x[i]-math.Round(x[i])) > intTol {
			return false, 0
		}
	}
	for i := 0; i < m.NumConstraints(); i++ {
		c := m.Constraint(i)
		lhs := c.Expr.Eval(x)
		switch c.Rel {
		case LE:
			if lhs > c.RHS+feasEps {
				return false, 0
			}
		case GE:
			if lhs < c.RHS-feasEps {
				return false, 0
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > feasEps {
				return false, 0
			}
		}
	}
	obj, _ := m.Objective()
	return true, obj.Eval(x)
}

// CheckFeasible reports whether x satisfies every bound, integrality
// requirement and constraint of m, and returns the objective value when it
// does. It is exported for schedule validation and tests.
func CheckFeasible(m *Model, x []float64) (bool, float64) {
	return checkFeasible(m, x, 1e-6)
}
