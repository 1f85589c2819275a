package milp

import (
	"context"
	"testing"
)

// hasEdge reports whether the conflict graph joins the two literal codes.
func (cg *conflictGraph) hasEdge(a, b int32) bool {
	ia, ok := cg.litID[a]
	if !ok {
		return false
	}
	ib, ok := cg.litID[b]
	if !ok {
		return false
	}
	return cg.adj[ia][ib>>6]&(1<<(uint(ib)&63)) != 0
}

// TestConflictGraphRowMined pins the row-mining rules on hand-built rows:
// a packing row conflicts its positive literals, an implication row
// complements the negative coefficient, an equality contributes both views,
// and a slack row (no pair exceeding the capacity) yields nothing.
func TestConflictGraphRowMined(t *testing.T) {
	m := NewModel()
	x := m.NewBinary("x")
	y := m.NewBinary("y")
	z := m.NewBinary("z")
	w := m.NewBinary("w")
	// pack: x + y <= 1 -> edge (x, y).
	m.AddLE("pack", *NewExpr(0).Add(x, 1).Add(y, 1), 1)
	// imp: x <= z, i.e. x - z <= 0 -> complement z -> edge (x, !z).
	m.AddLE("imp", *NewExpr(0).Add(x, 1).Add(z, -1), 0)
	// eq: y + z = 1 -> <= view gives (y, z); the negated >= view gives
	// (!y, !z).
	m.AddEQ("eq", *NewExpr(0).Add(y, 1).Add(z, 1), 1)
	// slack: no pair exceeds the capacity -> no edges.
	m.AddLE("slack", *NewExpr(0).Add(x, 1).Add(y, 1).Add(w, 1), 2)
	m.SetObjective(*NewExpr(0).Add(x, -1).Add(y, -1).Add(z, -1).Add(w, -1), Minimize)

	in, st := compile(m, true)
	if st != StatusUnknown {
		t.Fatalf("compile decided the model outright: %v", st)
	}
	cg := buildConflictGraph(in, nil)
	if cg == nil {
		t.Fatal("no conflict graph despite packing rows")
	}
	col := func(v Var) int32 { return int32(in.varCol[v.ID()]) }
	want := [][2]int32{
		{litCode(col(x), false), litCode(col(y), false)},
		{litCode(col(x), false), litCode(col(z), true)},
		{litCode(col(y), false), litCode(col(z), false)},
		{litCode(col(y), true), litCode(col(z), true)},
	}
	for _, e := range want {
		if !cg.hasEdge(e[0], e[1]) || !cg.hasEdge(e[1], e[0]) {
			t.Errorf("missing conflict edge between literal codes %d and %d", e[0], e[1])
		}
	}
	for _, e := range [][2]int32{
		{litCode(col(x), false), litCode(col(w), false)}, // slack row pair
		{litCode(col(y), false), litCode(col(w), false)},
		{litCode(col(x), false), litCode(col(z), false)}, // imp's positive pair
	} {
		if cg.hasEdge(e[0], e[1]) {
			t.Errorf("spurious conflict edge between literal codes %d and %d", e[0], e[1])
		}
	}
}

// TestConflictGraphCallerPairs pins the caller-declared conflict path: binary
// pairs (with negation flags) become edges, pairs touching a non-binary or
// degenerate column are dropped silently.
func TestConflictGraphCallerPairs(t *testing.T) {
	m := NewModel()
	a := m.NewBinary("a")
	b := m.NewBinary("b")
	c := m.NewContinuous("c", 0, 5)
	m.AddLE("cap", *NewExpr(0).Add(a, 1).Add(b, 1).Add(c, 1), 10)
	m.SetObjective(*NewExpr(0).Add(a, -1).Add(b, -1).Add(c, -1), Minimize)

	in, st := compile(m, true)
	if st != StatusUnknown {
		t.Fatalf("compile decided the model outright: %v", st)
	}
	cg := buildConflictGraph(in, [][2]ConflictLiteral{
		{{V: a}, {V: b, Neg: true}}, // kept
		{{V: a}, {V: c}},            // dropped: c is continuous
		{{V: a}, {V: a}},            // dropped: degenerate
	})
	if cg == nil {
		t.Fatal("no conflict graph despite a declared binary conflict")
	}
	if len(cg.lits) != 2 {
		t.Fatalf("graph interned %d literals, want 2", len(cg.lits))
	}
	ca := int32(in.varCol[a.ID()])
	cb := int32(in.varCol[b.ID()])
	if !cg.hasEdge(litCode(ca, false), litCode(cb, true)) {
		t.Error("declared conflict (a, !b) missing")
	}
	if cg.hasEdge(litCode(ca, false), litCode(cb, false)) {
		t.Error("spurious edge on the positive b literal")
	}
}

// TestConflictGraphNilWhenEdgeFree pins the no-edge fast path: a model whose
// rows admit every literal pair yields a nil graph so clique separation is
// skipped outright.
func TestConflictGraphNilWhenEdgeFree(t *testing.T) {
	m := NewModel()
	a := m.NewBinary("a")
	b := m.NewBinary("b")
	m.AddLE("cap", *NewExpr(0).Add(a, 1).Add(b, 1), 2)
	m.SetObjective(*NewExpr(0).Add(a, -1).Add(b, -1), Minimize)
	in, st := compile(m, true)
	if st != StatusUnknown {
		t.Fatalf("compile decided the model outright: %v", st)
	}
	if cg := buildConflictGraph(in, nil); cg != nil {
		t.Fatalf("graph with %d literals on an edge-free model, want nil", len(cg.lits))
	}
}

// TestCliqueCutsValidOnAllIntegerPoints mirrors
// TestRootCutsValidOnAllIntegerPoints for the clique family: a triangle of
// pairwise packing rows leaves the LP optimum at x0=x1=x2=1/2, which only the
// clique inequality x0+x1+x2 <= 1 cuts. Every cut row of the extended
// instance must survive every integer-feasible assignment.
func TestCliqueCutsValidOnAllIntegerPoints(t *testing.T) {
	m := NewModel()
	vars := make([]Var, 4)
	for i := range vars {
		vars[i] = m.NewBinary("x")
	}
	m.AddLE("p01", *NewExpr(0).Add(vars[0], 1).Add(vars[1], 1), 1)
	m.AddLE("p02", *NewExpr(0).Add(vars[0], 1).Add(vars[2], 1), 1)
	m.AddLE("p12", *NewExpr(0).Add(vars[1], 1).Add(vars[2], 1), 1)
	m.AddLE("k", *NewExpr(0).Add(vars[0], 2).Add(vars[3], 3), 4)
	obj := NewExpr(0)
	for _, v := range vars {
		obj.Add(v, -1)
	}
	m.SetObjective(*obj, Minimize)

	base, decided := compile(m, true)
	if decided != StatusUnknown {
		t.Fatalf("compile decided the model outright: %v", decided)
	}
	res := rootCutLoop(context.Background(), base, 1e-6, nil, 1, nil)
	if res.status != StatusOptimal {
		t.Fatalf("root cut loop status = %v", res.status)
	}
	if res.stats.Clique == 0 {
		t.Fatal("no clique cut separated from the packing triangle")
	}
	if res.stats.Applied != res.in.m-base.m {
		t.Fatalf("Applied = %d but instance carries %d cut rows",
			res.stats.Applied, res.in.m-base.m)
	}

	in := res.in
	point := make([]float64, m.NumVars())
	for bits := 0; bits < 1<<4; bits++ {
		for i := range vars {
			point[vars[i].ID()] = float64(bits >> i & 1)
		}
		if ok, _ := checkFeasible(m, point, 1e-6); !ok {
			continue
		}
		for r := base.m; r < in.m; r++ {
			lhs := 0.0
			for p := in.rowPtr[r]; p < in.rowPtr[r+1]; p++ {
				j := int(in.rowCol[p])
				if j >= in.nStruct {
					t.Fatalf("cut row %d touches non-structural column %d", r, j)
				}
				lhs += in.rowVal[p] * point[in.colVar[j]]
			}
			if lhs > in.b[r]+1e-6 {
				t.Errorf("cut row %d cuts off integer-feasible point %04b: %g > %g",
					r, bits, lhs, in.b[r])
			}
		}
	}
}
