package milp

import (
	"context"
	"math"
	"testing"
)

// solveRootState compiles m and solves its LP relaxation cold, returning the
// instance and optimal simplex state.
func solveRootState(t *testing.T, m *Model) (*instance, *simplexState) {
	t.Helper()
	in, decided := compile(m, true)
	if decided != StatusUnknown {
		t.Fatalf("compile decided the model outright: %v", decided)
	}
	st := newState(in)
	if status := st.solveCold(); status != StatusOptimal {
		t.Fatalf("root relaxation status = %v, want optimal", status)
	}
	return in, st
}

// structPoint extracts the structural-column values of the state.
func structPoint(in *instance, st *simplexState) []float64 {
	x := make([]float64, in.nStruct)
	for j := range x {
		x[j] = st.colValue(j)
	}
	return x
}

// TestGomoryHandChecked derives the GMI cut of a hand-solved tableau. For
//
//	min -x-y  s.t.  2x+2y <= 3,  x,y binary
//
// the relaxation optimum sits on 2x+2y=3 with one binary basic at 1/2
// (bhat = 1/2, f0 = 1/2). The boxed nonbasic binary has tableau coefficient
// 1, so its shifted fractional part vanishes and it drops out; the slack
// (continuous, at lower bound 0) has tableau coefficient 1/2, giving
// gamma = (1/2)/f0 = 1 and the cut s >= 1/2. Substituting s = 3-2x-2y yields
// 2x+2y <= 5/2 — which cuts the vertex and is tight at both integer optima.
func TestGomoryHandChecked(t *testing.T) {
	m := NewModel()
	x := m.NewBinary("x")
	y := m.NewBinary("y")
	m.AddLE("cap", *NewExpr(0).Add(x, 2).Add(y, 2), 3)
	m.SetObjective(*NewExpr(0).Add(x, -1).Add(y, -1), Minimize)

	in, st := solveRootState(t, m)
	pt := structPoint(in, st)

	sep := newCutSeparator(in)
	var cut *cutRow
	for r := 0; r < in.m; r++ {
		if c := sep.gomoryFromRow(st, r, pt); c != nil {
			cut = c
			break
		}
	}
	if cut == nil {
		t.Fatal("no Gomory cut separated from the fractional row")
	}
	// Expect exactly 2x + 2y <= 2.5 (column order is sorted, both present).
	if len(cut.cols) != 2 {
		t.Fatalf("cut support = %v, want both structural columns", cut.cols)
	}
	for k, j := range cut.cols {
		if got := cut.coef[k]; math.Abs(got-2) > 1e-9 {
			t.Errorf("coef of column %d = %g, want 2", j, got)
		}
	}
	if math.Abs(cut.rhs-2.5) > 1e-9 {
		t.Errorf("rhs = %g, want 2.5", cut.rhs)
	}
	if v := cut.violation(pt); v < cutMinEfficacy {
		t.Errorf("cut does not cut off the LP vertex: violation %g", v)
	}
	// Both integer optima (1,0) and (0,1) must stay feasible — and tight.
	for _, p := range [][]float64{{1, 0}, {0, 1}, {0, 0}, {1, 1}} {
		feasible := 2*p[0]+2*p[1] <= 3
		viol := cut.violation(p)
		if feasible && viol > 1e-9 {
			t.Errorf("cut cuts off integer-feasible point %v by %g", p, viol)
		}
	}
}

// TestCoverHandChecked separates a cover cut from the knapsack
// 3a + 4b + 5c <= 6 at the fractional point (1, 0.9, 0): the greedy minimal
// cover is {a, b} (3+4 > 6), giving a + b <= 1, violated by 0.9.
func TestCoverHandChecked(t *testing.T) {
	m := NewModel()
	a := m.NewBinary("a")
	b := m.NewBinary("b")
	c := m.NewBinary("c")
	m.AddLE("knap", *NewExpr(0).Add(a, 3).Add(b, 4).Add(c, 5), 6)
	m.SetObjective(*NewExpr(0).Add(a, -1).Add(b, -1).Add(c, -1), Minimize)

	in, decided := compile(m, true)
	if decided != StatusUnknown {
		t.Fatalf("compile decided the model outright: %v", decided)
	}
	sep := newCutSeparator(in)
	pt := make([]float64, in.nStruct)
	pt[in.varCol[a.ID()]] = 1
	pt[in.varCol[b.ID()]] = 0.9
	cut := sep.coverFromRow(0, pt)
	if cut == nil {
		t.Fatal("no cover cut separated")
	}
	if len(cut.cols) != 2 {
		t.Fatalf("cover support %v, want {a, b}", cut.cols)
	}
	for k := range cut.cols {
		if math.Abs(cut.coef[k]-1) > 1e-9 {
			t.Errorf("coef[%d] = %g, want 1", k, cut.coef[k])
		}
	}
	if math.Abs(cut.rhs-1) > 1e-9 {
		t.Errorf("rhs = %g, want 1", cut.rhs)
	}
	// Validity on every feasible binary assignment of the knapsack.
	for bits := 0; bits < 8; bits++ {
		p := []float64{float64(bits & 1), float64(bits >> 1 & 1), float64(bits >> 2 & 1)}
		if 3*p[0]+4*p[1]+5*p[2] > 6 {
			continue
		}
		if cut.violation(p) > 1e-9 {
			t.Errorf("cover cut cuts off feasible point %v", p)
		}
	}
}

// TestCoverComplemented exercises the negative-coefficient complement path:
// 4a - 3b <= 2 complements b (y = 1-b) into 4a + 3y <= 5, whose cover
// {a, y} gives a + (1-b) <= 1, i.e. a - b <= 0. The point (0.95, 0.1)
// violates it; every feasible binary point satisfies it.
func TestCoverComplemented(t *testing.T) {
	m := NewModel()
	a := m.NewBinary("a")
	b := m.NewBinary("b")
	m.AddLE("knap", *NewExpr(0).Add(a, 4).Add(b, -3), 2)
	m.SetObjective(*NewExpr(0).Add(a, -1), Minimize)

	in, decided := compile(m, true)
	if decided != StatusUnknown {
		t.Fatalf("compile decided the model outright: %v", decided)
	}
	sep := newCutSeparator(in)
	pt := make([]float64, in.nStruct)
	pt[in.varCol[a.ID()]] = 0.95
	pt[in.varCol[b.ID()]] = 0.1
	cut := sep.coverFromRow(0, pt)
	if cut == nil {
		t.Fatal("no complemented cover cut separated")
	}
	for bits := 0; bits < 4; bits++ {
		p := []float64{float64(bits & 1), float64(bits >> 1 & 1)}
		if 4*p[0]-3*p[1] > 2 {
			continue
		}
		if cut.violation(p) > 1e-9 {
			t.Errorf("complemented cover cut cuts off feasible point %v", p)
		}
	}
	if cut.violation(pt) < cutMinEfficacy {
		t.Error("cut does not cut off the fractional point")
	}
}

// mixedKnapsackModel mixes <=, >= and binary knapsack rows over six binaries
// so both the Gomory and the cover separator fire at its root.
func mixedKnapsackModel() (*Model, []Var) {
	m := NewModel()
	vars := make([]Var, 6)
	for i := range vars {
		vars[i] = m.NewBinary("x")
	}
	m.AddLE("k1", *NewExpr(0).Add(vars[0], 3).Add(vars[1], 5).Add(vars[2], 7).Add(vars[3], 9), 12)
	m.AddLE("k2", *NewExpr(0).Add(vars[0], 4).Add(vars[1], 3).Add(vars[4], 6), 8)
	m.AddLE("k3", *NewExpr(0).Add(vars[2], 2).Add(vars[4], 2).Add(vars[5], 2), 3)
	m.AddGE("cov", *NewExpr(0).Add(vars[1], 1).Add(vars[3], 1).Add(vars[5], 1), 1)
	obj := NewExpr(0)
	for i, c := range []float64{-5, -4, -6, -3, -2, -1} {
		obj.Add(vars[i], c)
	}
	m.SetObjective(*obj, Minimize)
	return m, vars
}

// TestRootCutsValidOnAllIntegerPoints is the safety property of the whole
// root loop: every cut row the extended instance carries must be satisfied by
// every integer-feasible point of the model. The model mixes <=, >= and
// binary knapsacks so both separators fire; all 2^6 assignments are
// enumerated.
func TestRootCutsValidOnAllIntegerPoints(t *testing.T) {
	m, vars := mixedKnapsackModel()
	base, decided := compile(m, true)
	if decided != StatusUnknown {
		t.Fatalf("compile decided the model outright: %v", decided)
	}
	res := rootCutLoop(context.Background(), base, 1e-6, nil, 1, nil)
	if res.status != StatusOptimal {
		t.Fatalf("root cut loop status = %v", res.status)
	}
	if res.stats.Gomory+res.stats.Cover == 0 {
		t.Fatal("no cuts separated; the property test checked nothing")
	}
	if res.stats.Applied != res.in.m-base.m {
		t.Fatalf("Applied = %d but instance carries %d cut rows",
			res.stats.Applied, res.in.m-base.m)
	}

	in := res.in
	point := make([]float64, m.NumVars())
	for bits := 0; bits < 1<<6; bits++ {
		for i := range vars {
			point[vars[i].ID()] = float64(bits >> i & 1)
		}
		if ok, _ := checkFeasible(m, point, 1e-6); !ok {
			continue
		}
		// Check every cut row (rows beyond the base instance): the slack
		// bounds encode <= (slack in [0, inf)).
		for r := base.m; r < in.m; r++ {
			lhs := 0.0
			for p := in.rowPtr[r]; p < in.rowPtr[r+1]; p++ {
				j := int(in.rowCol[p])
				if j >= in.nStruct {
					t.Fatalf("cut row %d touches non-structural column %d", r, j)
				}
				v := point[in.colVar[j]]
				lhs += in.rowVal[p] * v
			}
			if lhs > in.b[r]+1e-6 {
				t.Errorf("cut row %d cuts off integer-feasible point %06b: %g > %g",
					r, bits, lhs, in.b[r])
			}
		}
	}
}

// lpObjective is the compiled-space objective c·x at the state's vertex.
func lpObjective(st *simplexState) float64 {
	obj := 0.0
	for j := 0; j < st.in.nStruct; j++ {
		obj += st.in.c[j] * st.colValue(j)
	}
	return obj
}

// TestRootCutLoopWarmMatchesCold is the oracle of the warm re-solves: the
// basis the loop hands to branch and bound must be optimal for the instance
// it hands over, at the objective a cold solve of that instance reaches.
// The scheduling-shaped inputs run several rounds and age cuts out, which
// covers both warm paths: adding a round's cuts and the aging rebuild.
func TestRootCutLoopWarmMatchesCold(t *testing.T) {
	knap, _ := mixedKnapsackModel()
	for _, f := range []struct {
		name  string
		m     *Model
		aging bool // the input must run >= 2 rounds and age a cut out
	}{
		{"mixed-knapsack", knap, false},
		{"sched-like-6x2", schedLikeLP(6, 2, false), true},
		{"sched-like-8x3", schedLikeLP(8, 3, false), true},
	} {
		t.Run(f.name, func(t *testing.T) {
			base, decided := compile(f.m, true)
			if decided != StatusUnknown {
				t.Fatalf("compile decided the model outright: %v", decided)
			}
			res := rootCutLoop(context.Background(), base, 1e-6, nil, 1, nil)
			if res.status != StatusOptimal {
				t.Fatalf("root cut loop status = %v", res.status)
			}
			if res.stats.Rounds == 0 {
				t.Fatal("no cut round ran; the oracle checked nothing")
			}
			if f.aging && (res.stats.Rounds < 2 || res.stats.AgedOut == 0) {
				t.Fatalf("ran %d rounds aging out %d cuts, want >= 2 rounds with aging",
					res.stats.Rounds, res.stats.AgedOut)
			}
			if res.stats.Applied != res.in.m-base.m {
				t.Fatalf("Applied = %d but instance carries %d cut rows",
					res.stats.Applied, res.in.m-base.m)
			}
			warm := newState(res.in)
			warm.installBasis(res.basic, res.stat)
			if st := warm.solveWarm(); st != StatusOptimal {
				t.Fatalf("warm re-solve from the handed basis: %v", st)
			}
			cold := newState(res.in)
			if st := cold.solveCold(); st != StatusOptimal {
				t.Fatalf("cold solve of the handed instance: %v", st)
			}
			w, c := lpObjective(warm), lpObjective(cold)
			if math.Abs(w-c) > 1e-7*math.Max(1, math.Abs(c)) {
				t.Errorf("root bound %.12g from the handed basis, cold solve %.12g", w, c)
			}
		})
	}
}

// TestRootCutLoopStopsAtProvenIncumbent checks the early stop on
// min -x-y s.t. 2x+2y <= 3 over binaries, an ObjIntegral model whose root
// relaxation -1.5 rounds up to the optimum -1: the cut loop separates
// nothing once the rounded root bound proves the incumbent, by the same test
// (gapMetLocked, honouring Gap) that prunes a tree node, and the root node
// then closes the search.
func TestRootCutLoopStopsAtProvenIncumbent(t *testing.T) {
	m := NewModel()
	x := m.NewBinary("x")
	y := m.NewBinary("y")
	m.AddLE("cap", *NewExpr(0).Add(x, 2).Add(y, 2), 3)
	m.SetObjective(*NewExpr(0).Add(x, -1).Add(y, -1), Minimize)
	point := func(xv, yv float64) []float64 {
		p := make([]float64, m.NumVars())
		p[x.ID()], p[y.ID()] = xv, yv
		return p
	}
	for _, tc := range []struct {
		name     string
		inc      []float64
		gap      float64
		cuts     bool    // whether the root loop must run cut rounds
		wantObj  float64 // objective of the returned solution
		wantGap  float64
		maxNodes int
	}{
		// -1.5 rounds up to -1, the incumbent: proven before any cut.
		{"proven-incumbent", point(1, 0), 0, false, -1, 0, 1},
		// A worse incumbent leaves a gap the cuts and the tree must close.
		{"worse-incumbent", point(0, 0), 0, true, -1, 0, 0},
		// Gap 1 accepts incumbent 0 against bound -1, so the node test
		// prunes the root and the loop must stop with it.
		{"gap-met", point(0, 0), 1, false, 0, 1, 1},
		{"gap-missed", point(0, 0), 0.99, true, -1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := Solve(m, SolveOptions{Incumbent: tc.inc, Gap: tc.gap, ObjIntegral: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != StatusOptimal {
				t.Fatalf("status = %v, want optimal", sol.Status)
			}
			if sol.Objective != tc.wantObj {
				t.Errorf("objective = %v, want %v", sol.Objective, tc.wantObj)
			}
			if sol.Stats.Gap != tc.wantGap {
				t.Errorf("gap = %v, want %v", sol.Stats.Gap, tc.wantGap)
			}
			cs := sol.Stats.Cuts
			separated := cs.Gomory + cs.Cover + cs.Clique
			if tc.cuts && (cs.Rounds == 0 || separated == 0) {
				t.Errorf("no cut round ran (%+v), want the loop to cut", cs)
			}
			if !tc.cuts && (cs.Rounds != 0 || separated != 0 || cs.Applied != 0) {
				t.Errorf("cut stats %+v, want nothing separated", cs)
			}
			if tc.maxNodes > 0 && sol.Nodes > tc.maxNodes {
				t.Errorf("nodes = %d, want <= %d", sol.Nodes, tc.maxNodes)
			}
		})
	}
}

// countdownCtx is a context whose Err turns non-nil after a fixed number of
// calls. The simplex polls Err every pivot, so at Workers 1 the expiry lands
// on the same pivot on every run.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.DeadlineExceeded
	}
	c.left--
	return nil
}

// TestRootCutLoopStatsOnFailedResolve expires the context at every point of
// the cut loop in turn. Whatever round the expiry interrupts, the returned
// counters must describe the returned instance: Applied is the cut rows it
// carries, a round counts only once its LP solved, and a cut counts as aged
// only once an instance without it solved. All three therefore grow
// monotonically with the number of polls the loop is allowed.
func TestRootCutLoopStatsOnFailedResolve(t *testing.T) {
	base, decided := compile(schedLikeLP(6, 2, false), true)
	if decided != StatusUnknown {
		t.Fatalf("compile decided the model outright: %v", decided)
	}
	const budget = 1 << 30
	probe := &countdownCtx{Context: context.Background(), left: budget}
	full := rootCutLoop(probe, base, 1e-6, nil, 1, nil)
	polls := budget - probe.left
	if full.stats.Rounds < 2 || full.stats.AgedOut == 0 {
		t.Fatalf("fixture ran %d rounds aging out %d cuts; want >= 2 rounds with aging",
			full.stats.Rounds, full.stats.AgedOut)
	}
	prevRounds, prevCuts := 0, 0
	for n := 0; n <= polls; n++ {
		res := rootCutLoop(&countdownCtx{Context: context.Background(), left: n}, base, 1e-6, nil, 1, nil)
		cs := res.stats
		if cs.Applied != res.in.m-base.m {
			t.Fatalf("polls %d: Applied = %d but the instance carries %d cut rows",
				n, cs.Applied, res.in.m-base.m)
		}
		// A first round cannot age a cut out (that takes cutAgeLimit idle
		// rounds), so the instance carries cut rows exactly when a round
		// counted, until aging could have emptied the pool again.
		if cs.Rounds <= 1 && (cs.Rounds == 0) != (res.in == base) {
			t.Fatalf("polls %d: %d rounds counted but the instance carries %d cut rows",
				n, cs.Rounds, res.in.m-base.m)
		}
		if cs.Rounds < prevRounds || cs.Applied+cs.AgedOut < prevCuts {
			t.Fatalf("polls %d: rounds %d and applied+aged %d fell from %d and %d",
				n, cs.Rounds, cs.Applied+cs.AgedOut, prevRounds, prevCuts)
		}
		prevRounds, prevCuts = cs.Rounds, cs.Applied+cs.AgedOut
	}
	if prevRounds != full.stats.Rounds || prevCuts != full.stats.Applied+full.stats.AgedOut {
		t.Errorf("unexpired sweep end: rounds %d applied+aged %d, want %d and %d",
			prevRounds, prevCuts, full.stats.Rounds, full.stats.Applied+full.stats.AgedOut)
	}
}

// TestSolveCountsCutLoopFactorStats checks that SolveStats.Factor includes
// the root cut loop's factorizations. The fixture spends most of its kernel
// work in the cut loop, and the node cap leaves branch and bound one node.
func TestSolveCountsCutLoopFactorStats(t *testing.T) {
	m := schedLikeLP(8, 3, false)
	base, decided := compile(m, true)
	if decided != StatusUnknown {
		t.Fatalf("compile decided the model outright: %v", decided)
	}
	cut := rootCutLoop(context.Background(), base, 1e-6, nil, 1, nil)
	if cut.status != StatusOptimal || cut.stats.Rounds == 0 {
		t.Fatalf("cut loop status %v after %d rounds; the fixture must cut", cut.status, cut.stats.Rounds)
	}
	if cut.factor.Refactorizations == 0 || cut.factor.Updates == 0 {
		t.Fatalf("cut loop factor counters %+v; the fixture must factorize", cut.factor)
	}
	sol, err := Solve(m, SolveOptions{Workers: 1, MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := sol.Stats.Factor
	t.Logf("cut loop %+v, solve %+v, pivots %d", cut.factor, f, sol.Iterations)
	if f.Kernel != "sparse-lu" {
		t.Errorf("Kernel = %q, want the branch-and-bound kernel sparse-lu", f.Kernel)
	}
	if f.Refactorizations <= cut.factor.Refactorizations || f.Updates < cut.factor.Updates {
		t.Errorf("solve reports %d refactorizations and %d updates; the cut loop alone made %d and %d",
			f.Refactorizations, f.Updates, cut.factor.Refactorizations, cut.factor.Updates)
	}
}
