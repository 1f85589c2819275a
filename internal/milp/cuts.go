package milp

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"
)

// Root cutting-plane parameters.
const (
	// maxCutRounds caps the separate-apply-resolve loop at the root.
	maxCutRounds = 8
	// gmiPerRound / coverPerRound bound how many cuts of each family one
	// round may add, keeping the extended LP from bloating.
	gmiPerRound   = 24
	coverPerRound = 12
	// gmiMinFrac rejects Gomory source rows whose basic value is too close
	// to integral: the resulting cut is numerically worthless (f0 or 1-f0
	// in a denominator).
	gmiMinFrac = 0.01
	// cutMinEfficacy is the minimum violation-over-norm a cut must achieve
	// at the current relaxation vertex to enter the pool.
	cutMinEfficacy = 1e-4
	// cutMaxDynamism rejects cuts whose coefficient magnitudes span more
	// than this ratio — they destabilize the basis factorization.
	cutMaxDynamism = 1e7
	// cutAgeLimit drops a cut after this many consecutive resolve rounds
	// with positive slack (activity-based aging).
	cutAgeLimit = 2
	// cutBindEps is the slack magnitude under which a cut counts as active.
	cutBindEps = 1e-6
	// cutTailTol stops the round loop when the root bound improves by less
	// than this (relative) twice in a row.
	cutTailTol = 1e-6
)

// cutRow is one separated cut over structural columns, stored in
// less-or-equal form: coef·x <= rhs. Cuts are globally valid — they are
// satisfied by every integer-feasible point of the root relaxation, so every
// branch-and-bound node may carry them.
type cutRow struct {
	cols []int32
	coef []float64
	rhs  float64
	norm float64 // 2-norm of coef
	// idle counts consecutive resolve rounds with positive slack; the pool
	// retires the cut at cutAgeLimit.
	idle int
}

// violation returns coef·x - rhs at the structural point x (positive means
// the cut is violated).
func (c *cutRow) violation(x []float64) float64 {
	v := -c.rhs
	for k, j := range c.cols {
		v += c.coef[k] * x[j]
	}
	return v
}

// CutStats reports the root cutting-plane loop's work.
type CutStats struct {
	// Rounds is the number of separate-apply-resolve iterations whose
	// re-solve succeeded.
	Rounds int
	// Gomory and Cover count cuts separated per family (after violation and
	// numerical screening).
	Gomory int
	// Cover counts knapsack-cover cuts separated.
	Cover int
	// Clique counts conflict-graph clique cuts separated.
	Clique int
	// Applied is the number of cut rows the branch-and-bound instance
	// finally carried.
	Applied int
	// AgedOut counts cuts retired by activity-based aging: separated, slack
	// in later rounds, dropped again before the tree search.
	AgedOut int
}

// colValue returns the current value of column j in the simplex state.
func (s *simplexState) colValue(j int) float64 {
	if p := s.pos[j]; p >= 0 {
		return s.xB[p]
	}
	return s.nbValue(j)
}

// isIntegralBound reports whether v is integral within tolerance (infinite
// bounds are not).
func isIntegralBound(v float64) bool {
	if math.IsInf(v, 0) {
		return false
	}
	return math.Abs(v-math.Round(v)) <= 1e-9
}

// coverItem is one binary column of a row's knapsack view, complemented to a
// positive coefficient.
type coverItem struct {
	col  int32
	a    float64 // complemented coefficient, > 0
	z    float64 // complemented LP value in [0,1]
	comp bool
}

// cutSeparator owns the scratch buffers of one separation family. The
// buffers persist across root-cut rounds (retarget re-points the separator
// at an extended instance without reallocating: extendWithCuts preserves
// nStruct and base-row indexing, so every buffer stays correctly sized).
type cutSeparator struct {
	in    *instance
	dense []float64 // structural-column accumulator
	mark  []bool    // which dense entries are live
	live  []int32
	items []coverItem // cover-separation scratch
}

func newCutSeparator(in *instance) *cutSeparator {
	return &cutSeparator{
		in:    in,
		dense: make([]float64, in.nStruct),
		mark:  make([]bool, in.nStruct),
		live:  make([]int32, 0, in.nStruct),
	}
}

// retarget points the separator at an extended sibling of its instance.
func (cs *cutSeparator) retarget(in *instance) { cs.in = in }

func (cs *cutSeparator) add(j int32, v float64) {
	if !cs.mark[j] {
		cs.mark[j] = true
		cs.live = append(cs.live, j)
	}
	cs.dense[j] += v
}

func (cs *cutSeparator) reset() {
	for _, j := range cs.live {
		cs.dense[j] = 0
		cs.mark[j] = false
	}
	cs.live = cs.live[:0]
}

// harvest drains the accumulator into a cutRow in <=-form given the
// greater-or-equal right-hand side accumulated so far: dense·x >= rhsGE
// becomes (-dense)·x <= -rhsGE. Near-zero coefficients are dropped with a
// rhs correction that keeps the cut valid (the dropped term is bounded by
// its column range); cuts whose dropped term cannot be bounded keep the
// coefficient. Returns nil when the cut fails the numerical screens.
func (cs *cutSeparator) harvest(rhsGE float64, x []float64) *cutRow {
	in := cs.in
	sort.Slice(cs.live, func(a, b int) bool { return cs.live[a] < cs.live[b] })
	maxC := 0.0
	for _, j := range cs.live {
		if a := math.Abs(cs.dense[j]); a > maxC {
			maxC = a
		}
	}
	if maxC == 0 {
		return nil
	}
	dropTol := 1e-11 * math.Max(1, maxC)
	cut := &cutRow{rhs: -rhsGE}
	minC := math.Inf(1)
	for _, j := range cs.live {
		c := -cs.dense[j] // flip to <= form
		if math.Abs(c) <= dropTol {
			if c == 0 {
				continue
			}
			// Dropping c·x_j from a <= cut needs rhs += max(c·x_j) to stay
			// valid for every feasible x_j.
			lo, hi := in.lo[j], in.hi[j]
			worst := c * hi
			if c < 0 {
				worst = c * lo
			}
			if math.IsInf(worst, 0) || math.IsNaN(worst) {
				// Unbounded column: the term cannot be dropped safely.
				cut.cols = append(cut.cols, j)
				cut.coef = append(cut.coef, c)
				if a := math.Abs(c); a < minC {
					minC = a
				}
				continue
			}
			cut.rhs += worst
			continue
		}
		cut.cols = append(cut.cols, j)
		cut.coef = append(cut.coef, c)
		if a := math.Abs(c); a < minC {
			minC = a
		}
	}
	if len(cut.cols) == 0 {
		return nil
	}
	if maxC/minC > cutMaxDynamism {
		return nil
	}
	n2 := 0.0
	for _, c := range cut.coef {
		n2 += c * c
	}
	cut.norm = math.Sqrt(n2)
	if cut.violation(x) < cutMinEfficacy*cut.norm {
		return nil
	}
	return cut
}

// gomoryFromRow derives a Gomory mixed-integer cut from basis row r of the
// current (optimal) simplex state, or nil when the row does not yield a
// usable cut. The tableau row over the nonbasic shifted variables
// xi_j >= 0 (xi = x-l at lower bound, u-x at upper) reads
//
//	x_B(r) + sum_j abar_j·xi_j = bhat,   f0 = frac(bhat)
//
// and the GMI inequality sum_j gamma_j·xi_j >= f0 uses the fractional-part
// formula for integer xi and the sign-split formula for continuous xi.
// Slack columns are substituted back through their defining row so the cut
// lives purely on structural columns.
func (cs *cutSeparator) gomoryFromRow(st *simplexState, r int, x []float64) *cutRow {
	in := cs.in
	bcol := int(st.basic[r])
	if bcol >= in.nStruct || !in.intCol[bcol] {
		return nil
	}
	bhat := st.xB[r]
	f0 := bhat - math.Floor(bhat)
	if f0 < gmiMinFrac || f0 > 1-gmiMinFrac {
		return nil
	}
	st.fac.btranRow(r, st.rho)
	cs.reset()
	rhsGE := f0 // constants move to the right as terms substitute in
	for j := 0; j < in.n; j++ {
		if st.stat[j] == nbBasic {
			continue
		}
		alpha := in.colDot(st.rho, j)
		if math.Abs(alpha) <= 1e-11 {
			continue
		}
		atLower := st.stat[j] == nbLower
		if st.stat[j] == nbFree {
			return nil // no finite shift exists
		}
		var bound float64
		if atLower {
			bound = st.lo[j]
		} else {
			bound = st.hi[j]
		}
		if math.IsInf(bound, 0) {
			return nil
		}
		abar := alpha
		if !atLower {
			abar = -alpha
		}
		var gamma float64
		if j < in.nStruct && in.intCol[j] && isIntegralBound(bound) {
			fj := abar - math.Floor(abar)
			if fj <= f0 {
				gamma = fj / f0
			} else {
				gamma = (1 - fj) / (1 - f0)
			}
		} else {
			if abar >= 0 {
				gamma = abar / f0
			} else {
				gamma = -abar / (1 - f0)
			}
		}
		if gamma <= 1e-12 {
			continue
		}
		if j < in.nStruct {
			// gamma·(x_j - l) or gamma·(u - x_j).
			if atLower {
				cs.add(int32(j), gamma)
				rhsGE += gamma * bound
			} else {
				cs.add(int32(j), -gamma)
				rhsGE -= gamma * bound
			}
			continue
		}
		// Slack of row i: s_i = b_i - a_i·x. Substitute the shifted slack
		// back to structural columns.
		i := j - in.nStruct
		sign := gamma
		if atLower {
			sign = -gamma
		}
		for p := in.rowPtr[i]; p < in.rowPtr[i+1]; p++ {
			cs.add(in.rowCol[p], sign*in.rowVal[p])
		}
		if atLower {
			rhsGE += gamma*bound - gamma*in.b[i]
		} else {
			rhsGE += gamma*in.b[i] - gamma*bound
		}
	}
	return cs.harvest(rhsGE, x)
}

// coverFromRow separates a knapsack-cover cut from base row i, or nil. The
// row's <= view (a >= row is negated; other relations are skipped) is
// relaxed to a pure-binary knapsack: a non-binary column contributes its
// minimum feasible amount, moved to the right-hand side (rows where that
// minimum is unbounded are skipped); negative binary coefficients are
// complemented (y = 1-x) to reach sum a_j·z_j <= b', a_j > 0. A greedy
// minimal cover C (sum exceeding b') yields sum_C z_j <= |C|-1.
func (cs *cutSeparator) coverFromRow(i int, x []float64) *cutRow {
	in := cs.in
	slack := in.nStruct + i
	le := in.lo[slack] == 0 && math.IsInf(in.hi[slack], 1)
	ge := math.IsInf(in.lo[slack], -1) && in.hi[slack] == 0
	if !le && !ge {
		return nil // equalities and ranges are not knapsack views
	}
	sign := 1.0
	if ge {
		sign = -1
	}
	items := cs.items[:0]
	bprime := sign * in.b[i]
	for p := in.rowPtr[i]; p < in.rowPtr[i+1]; p++ {
		j := in.rowCol[p]
		a := sign * in.rowVal[p]
		if a == 0 {
			continue
		}
		if !in.intCol[j] || in.lo[j] != 0 || in.hi[j] != 1 {
			// Relax a non-binary column to its minimum feasible
			// contribution; the remaining binary knapsack stays valid.
			worst := a * in.lo[j]
			if alt := a * in.hi[j]; alt < worst {
				worst = alt
			}
			if math.IsInf(worst, 0) || math.IsNaN(worst) {
				cs.items = items
				return nil
			}
			bprime -= worst
			continue
		}
		z := math.Min(1, math.Max(0, x[j]))
		if a < 0 {
			bprime -= a // complement: a·x = -|a| + |a|·(1-x)
			items = append(items, coverItem{col: j, a: -a, z: 1 - z, comp: true})
		} else {
			items = append(items, coverItem{col: j, a: a, z: z, comp: false})
		}
	}
	cs.items = items
	if len(items) < 2 || bprime < 0 {
		return nil
	}
	total := 0.0
	for _, it := range items {
		total += it.a
	}
	if total <= bprime+1e-9 {
		return nil // row can never be covered
	}
	// Greedy minimal cover: cheapest (1-z)/a first, so the cover prefers
	// columns the relaxation already sets high.
	sort.Slice(items, func(a, b int) bool {
		return (1-items[a].z)/items[a].a < (1-items[b].z)/items[b].a
	})
	weight := 0.0
	size := 0
	for _, it := range items {
		weight += it.a
		size++
		if weight > bprime+1e-9 {
			break
		}
	}
	if weight <= bprime+1e-9 {
		return nil
	}
	// Shrink to a minimal cover.
	for k := size - 1; k >= 0 && size > 1; k-- {
		if weight-items[k].a > bprime+1e-9 {
			weight -= items[k].a
			items[k], items[size-1] = items[size-1], items[k]
			size--
		}
	}
	cover := items[:size]
	lhs := 0.0
	for _, it := range cover {
		lhs += it.z
	}
	if lhs <= float64(size-1)+cutMinEfficacy {
		return nil // not violated
	}
	// sum_C z <= |C|-1, un-complemented: complemented members contribute
	// (1 - x_j).
	cs.reset()
	rhs := float64(size - 1)
	for _, it := range cover {
		if it.comp {
			cs.add(it.col, -1)
			rhs--
		} else {
			cs.add(it.col, 1)
		}
	}
	sort.Slice(cs.live, func(a, b int) bool { return cs.live[a] < cs.live[b] })
	cut := &cutRow{rhs: rhs}
	n2 := 0.0
	for _, j := range cs.live {
		cut.cols = append(cut.cols, j)
		cut.coef = append(cut.coef, cs.dense[j])
		n2 += cs.dense[j] * cs.dense[j]
	}
	cut.norm = math.Sqrt(n2)
	if cut.violation(x) < cutMinEfficacy*cut.norm {
		return nil
	}
	return cut
}

// sameCut reports whether two cuts have identical support and proportional
// coefficients (duplicate up to scaling).
func sameCut(a, b *cutRow) bool {
	if len(a.cols) != len(b.cols) {
		return false
	}
	dot := 0.0
	for k := range a.cols {
		if a.cols[k] != b.cols[k] {
			return false
		}
		dot += a.coef[k] * b.coef[k]
	}
	return math.Abs(dot) >= (1-1e-9)*a.norm*b.norm
}

// extendWithCuts builds a new immutable instance carrying base plus one <=
// row per cut. Structural columns and the base rows keep their indices (the
// slack of base row i stays at column nStruct+i), so branching decisions,
// propagation and variable extraction are oblivious to the cuts.
func extendWithCuts(base *instance, cuts []*cutRow) *instance {
	if len(cuts) == 0 {
		return base
	}
	m := base.m + len(cuts)
	n := base.nStruct + m
	in := &instance{
		m: m, nStruct: base.nStruct, n: n,
		b:      make([]float64, m),
		c:      make([]float64, n),
		lo:     make([]float64, n),
		hi:     make([]float64, n),
		intCol: base.intCol, colVar: base.colVar, varCol: base.varCol,
		fixed: base.fixed, flip: base.flip, pre: base.pre,
	}
	copy(in.b, base.b)
	copy(in.c, base.c[:base.nStruct])
	copy(in.lo, base.lo[:base.n])
	copy(in.hi, base.hi[:base.n])
	// Re-slot base slack bounds: base column nStruct+i keeps its index, the
	// copy above already placed them. Cut slacks encode <=.
	for k := range cuts {
		s := base.n + k
		in.lo[s], in.hi[s] = 0, math.Inf(1)
		in.b[base.m+k] = cuts[k].rhs
	}
	// CSC assembly: base entries plus cut entries, per column.
	count := make([]int32, base.nStruct+1)
	for j := 0; j < base.nStruct; j++ {
		count[j+1] = base.colPtr[j+1] - base.colPtr[j]
	}
	for _, c := range cuts {
		for _, j := range c.cols {
			count[j+1]++
		}
	}
	for j := 0; j < base.nStruct; j++ {
		count[j+1] += count[j]
	}
	nnz := count[base.nStruct]
	in.colPtr = count
	in.rowIdx = make([]int32, nnz)
	in.val = make([]float64, nnz)
	cursor := make([]int32, base.nStruct)
	copy(cursor, in.colPtr[:base.nStruct])
	for j := 0; j < base.nStruct; j++ {
		for p := base.colPtr[j]; p < base.colPtr[j+1]; p++ {
			q := cursor[j]
			in.rowIdx[q] = base.rowIdx[p]
			in.val[q] = base.val[p]
			cursor[j] = q + 1
		}
	}
	for k, c := range cuts {
		row := int32(base.m + k)
		for t, j := range c.cols {
			q := cursor[j]
			in.rowIdx[q] = row
			in.val[q] = c.coef[t]
			cursor[j] = q + 1
		}
	}
	in.pert = make([]float64, n)
	for j := range in.pert {
		xi := 0.5 + math.Mod(float64(j+1)*0.6180339887498949, 1)
		in.pert[j] = pertScale * xi * (1 + math.Abs(in.c[j]))
	}
	in.buildRows()
	return in
}

// cutLoopResult carries the outcome of the root cutting loop back to branch
// and bound: the (possibly extended) instance, a warm-start basis for the
// root node sized to it, and the counters.
type cutLoopResult struct {
	in      *instance
	basic   []int32
	stat    []int8
	stats   CutStats
	iters   int // simplex pivots spent cutting
	incr    int // of which incrementally priced
	full    int
	factor  FactorStats   // kernel counters of every LP the loop solved
	sepWall time.Duration // wall time inside the separation block
	status  Status
}

// addSolve accumulates the pivot and kernel counters of one simplex state,
// which has just solved its only LP, into the result.
func (r *cutLoopResult) addSolve(st *simplexState) {
	r.iters += st.iters
	r.incr += st.incrPivots
	r.full += st.fullPivots
	r.factor.merge(st.fac.snapshot())
}

// keep records st, an optimal state on in, as the loop's current outcome.
func (r *cutLoopResult) keep(in *instance, st *simplexState) {
	r.in = in
	r.basic = append(r.basic[:0], st.basic...)
	r.stat = append(r.stat[:0], st.stat...)
}

// carryBasis builds the starting basis for extendWithCuts(base, next) from
// st, an optimal state on extendWithCuts(base, prev). Structural and
// base-slack columns keep their statuses (extendWithCuts keeps their
// indices), every cut in both lists carries its slack's status by cut
// identity, and the slack of every cut new in next enters the basis. Adding
// cuts that way keeps the basis dual feasible, so the dual simplex only has
// to repair the new, violated rows; dropping cuts whose slacks are basic
// leaves the basis optimal. ok is false when the result is not square —
// some dropped cut had a nonbasic slack — and the caller must solve cold.
func carryBasis(base *instance, st *simplexState, prev, next []*cutRow) (basic []int32, stat []int8, ok bool) {
	col := make(map[*cutRow]int, len(next))
	for k, c := range next {
		col[c] = base.n + k
	}
	stat = make([]int8, base.n+len(next))
	copy(stat, st.stat[:base.n])
	for k := range next {
		stat[base.n+k] = nbBasic
	}
	for k, c := range prev {
		if j, kept := col[c]; kept {
			stat[j] = st.stat[base.n+k]
		}
	}
	m := base.m + len(next)
	basic = make([]int32, 0, m)
	for j, s := range stat {
		if s == nbBasic {
			basic = append(basic, int32(j))
		}
	}
	return basic, stat, len(basic) == m
}

// rootCutLoop runs the separate-apply-resolve loop at the root: solve the
// relaxation, derive Gomory mixed-integer cuts from the fractional basis
// rows, cover cuts from the knapsack row views, and clique cuts from
// the conflict graph, screen them, extend the instance, and resolve, until
// no violated cut remains, the bound tails off, the round cap hits, or
// proven (when non-nil) reports that the current relaxation already proves
// the incumbent. Aging retires cuts that go slack in later rounds. Every
// re-solve starts warm from the previous round's basis (carryBasis) and
// falls back to a cold solve by solveRelax's rule. The loop holds at most
// two simplex states, the current one and the re-solve's, and returns each
// to statePool once it is replaced, so a round resets the state its
// predecessor replaced instead of building one. The three families
// separate concurrently when workers > 1 (the Gomory family owns the
// simplex state exclusively — btranRow mutates scratch — so parallelism is
// across families, never within one); each family keeps its own persistent
// scratch separator so rounds stay allocation-lean, and the merged
// candidate list is sorted deterministically before filtering so a
// Workers=1 run is byte-reproducible. The returned status is StatusOptimal
// when a usable relaxation optimum (and basis) is available; any other
// status means branch and bound should start from the base instance as if
// no cutting had run. When a re-solve fails the loop stops and returns the
// last instance that solved; the counters then describe that instance:
// Rounds counts only rounds whose LP solved, and Applied is the number of
// cut rows the returned instance carries.
func rootCutLoop(ctx context.Context, base *instance, intTol float64, conflicts [][2]ConflictLiteral, workers int, proven func(*simplexState) bool) cutLoopResult {
	res := cutLoopResult{in: base, status: StatusUnknown}
	st := getState(base)
	defer func() { statePool.Put(st) }()
	st.ctx = ctx
	status := st.solveCold()
	res.addSolve(st)
	if status != StatusOptimal {
		res.status = status
		return res
	}
	res.status = StatusOptimal
	res.keep(base, st)

	x := make([]float64, base.nStruct)
	structValues := func(s *simplexState) {
		for j := 0; j < base.nStruct; j++ {
			x[j] = s.colValue(j)
		}
	}
	lastObj := math.Inf(-1)
	tails := 0
	var pool []*cutRow // applied cuts, in the row order of st's instance

	// resolve solves extendWithCuts(base, cuts) warm from st's basis and,
	// on success, makes it the loop's current LP.
	resolve := func(cuts []*cutRow) bool {
		in := extendWithCuts(base, cuts)
		next := getState(in)
		next.ctx = ctx
		var status Status
		if basic, stat, ok := carryBasis(base, st, pool, cuts); ok {
			next.installBasis(basic, stat)
			status, _ = next.solveRelax(next.solveWarm)
		} else {
			status = next.solveCold()
		}
		res.addSolve(next)
		if status != StatusOptimal {
			statePool.Put(next)
			return false
		}
		statePool.Put(st)
		st, pool = next, cuts
		res.keep(in, st)
		return true
	}

	// Persistent per-family separators and the conflict graph, built once
	// and reused every round (the gomory separator retargets to the current
	// extended instance; covers and cliques read the base rows only).
	sepG := newCutSeparator(base)
	sepC := newCutSeparator(base)
	graph := buildConflictGraph(base, conflicts)
	type scored struct {
		cut *cutRow
		eff float64
		src int // source base row, for deterministic tie-breaks
	}
	var gmi []scored
	var covers, cliques []*cutRow

	for round := 0; round < maxCutRounds; round++ {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		if proven != nil && proven(st) {
			break // the incumbent is proven; tighter rows would not matter
		}
		structValues(st)
		fractional := false
		for j := 0; j < base.nStruct; j++ {
			if base.intCol[j] && math.Abs(x[j]-math.Round(x[j])) > intTol {
				fractional = true
				break
			}
		}
		if !fractional {
			break // root already integral; nothing to cut
		}
		// Separate the three families, concurrently when workers allow.
		// Each task owns its output slice and its scratch; st is touched by
		// the Gomory task alone.
		gmi = gmi[:0]
		covers = covers[:0]
		cliques = cliques[:0]
		gomoryTask := func() {
			sepG.retarget(st.in)
			for r := 0; r < st.in.m; r++ {
				if c := sepG.gomoryFromRow(st, r, x); c != nil {
					gmi = append(gmi, scored{c, c.violation(x) / c.norm, r})
				}
			}
		}
		coverTask := func() {
			for i := 0; i < base.m && len(covers) < coverPerRound; i++ {
				if c := sepC.coverFromRow(i, x); c != nil {
					covers = append(covers, c)
				}
			}
		}
		cliqueTask := func() {
			if graph != nil {
				cliques = graph.separate(x)
			}
		}
		sepStart := time.Now()
		if workers <= 1 {
			gomoryTask()
			coverTask()
			cliqueTask()
		} else {
			slots := workers
			if slots > 3 {
				slots = 3
			}
			sem := make(chan struct{}, slots)
			var wg sync.WaitGroup
			for _, task := range []func(){gomoryTask, coverTask, cliqueTask} {
				wg.Add(1)
				go func(f func()) {
					defer wg.Done()
					sem <- struct{}{}
					f()
					<-sem
				}(task)
			}
			wg.Wait()
		}
		res.sepWall += time.Since(sepStart)

		// Deterministic merge: gomory by (efficacy desc, source row asc),
		// covers already in base-row order, cliques by (efficacy desc,
		// lexicographic support asc).
		var fresh []*cutRow
		sort.Slice(gmi, func(a, b int) bool {
			if gmi[a].eff != gmi[b].eff {
				return gmi[a].eff > gmi[b].eff
			}
			return gmi[a].src < gmi[b].src
		})
		if len(gmi) > gmiPerRound {
			gmi = gmi[:gmiPerRound]
		}
		for _, s := range gmi {
			fresh = append(fresh, s.cut)
		}
		res.stats.Gomory += len(gmi)
		fresh = append(fresh, covers...)
		res.stats.Cover += len(covers)
		sort.Slice(cliques, func(a, b int) bool {
			ea := cliques[a].violation(x) / cliques[a].norm
			eb := cliques[b].violation(x) / cliques[b].norm
			if ea != eb {
				return ea > eb
			}
			ca, cb := cliques[a].cols, cliques[b].cols
			for k := 0; k < len(ca) && k < len(cb); k++ {
				if ca[k] != cb[k] {
					return ca[k] < cb[k]
				}
			}
			return len(ca) < len(cb)
		})
		fresh = append(fresh, cliques...)
		res.stats.Clique += len(cliques)
		// Dedup against the pool.
		w := 0
	dedup:
		for _, c := range fresh {
			for _, p := range pool {
				if sameCut(p, c) {
					continue dedup
				}
			}
			for k := 0; k < w; k++ {
				if sameCut(fresh[k], c) {
					continue dedup
				}
			}
			fresh[w] = c
			w++
		}
		fresh = fresh[:w]
		if len(fresh) == 0 {
			break
		}
		// A failed re-solve (numerical trouble or abort) keeps the last
		// instance that solved cleanly.
		if !resolve(append(pool, fresh...)) {
			break
		}
		res.stats.Rounds++

		// Activity-based aging: cuts slack at the new vertex idle; retire
		// them after cutAgeLimit consecutive idle rounds. A retired cut's
		// slack is nonzero, hence basic, so the rebuilt instance inherits a
		// square optimal basis.
		var kept []*cutRow
		for k, c := range pool {
			sv := st.colValue(base.n + k)
			if math.Abs(sv) > cutBindEps {
				c.idle++
			} else {
				c.idle = 0
			}
			if c.idle < cutAgeLimit {
				kept = append(kept, c)
			}
		}
		if aged := len(pool) - len(kept); aged > 0 {
			// The instance must match the pool exactly (slack positions);
			// rebuild without the retired rows before the next round.
			if !resolve(kept) {
				break
			}
			res.stats.AgedOut += aged
		}

		// Tailing-off detection on the root bound (minimize sense).
		obj := 0.0
		for j := 0; j < base.nStruct; j++ {
			obj += base.c[j] * st.colValue(j)
		}
		if obj-lastObj <= cutTailTol*math.Max(1, math.Abs(obj)) {
			tails++
			if tails >= 2 {
				break
			}
		} else {
			tails = 0
		}
		lastObj = obj
	}
	res.stats.Applied = res.in.m - base.m
	return res
}
