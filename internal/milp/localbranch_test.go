package milp

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestLocalBranchImprovesWithinBall drives the local-branching sub-MIP
// directly on a 24-item knapsack, from the empty-knapsack incumbent: the
// slot stays closed until the tree has explored lbMinTreeNodes nodes, and
// the run then publishes a strictly better point that verifies against the
// model and lies inside the Hamming ball of radius lbRadius around the
// incumbent it started from.
func TestLocalBranchImprovesWithinBall(t *testing.T) {
	m := NewModel()
	xs := make([]Var, 24)
	obj := NewExpr(0)
	capRow := NewExpr(0)
	for j := range xs {
		xs[j] = m.NewBinary(fmt.Sprintf("x%d", j))
		w := float64(7 + (j*5)%11)
		obj.Add(xs[j], w+float64(j%3))
		capRow.Add(xs[j], w)
	}
	m.AddLE("cap", *capRow, 160)
	m.SetObjective(*obj, Maximize)

	in, decided := compile(m, true)
	if decided != StatusUnknown {
		t.Fatalf("compile decided the model outright: %v", decided)
	}
	start := make([]float64, m.NumVars())
	sh := &bbShared{best: start, bestObj: 0, lostLB: math.Inf(1), lbLastObj: math.Inf(1)}
	sh.cond = sync.NewCond(&sh.mu)
	objExpr, _ := m.Objective()
	w := &bbWorker{
		sh: sh, in: in, m: m, obj: objExpr, opts: SolveOptions{IntFeasTol: 1e-6},
		dirSign: -1, intVars: m.IntegerVars(), st: newState(in),
	}

	sh.nodes = lbMinTreeNodes - 1
	if _, _, ok := w.claimLocalBranchSlot(); ok {
		t.Fatalf("slot claimed at %d nodes, below the %d-node gate", sh.nodes, lbMinTreeNodes)
	}
	sh.nodes = lbMinTreeNodes
	inc, cutoff, ok := w.claimLocalBranchSlot()
	if !ok {
		t.Fatalf("slot not claimed at %d nodes with a fresh incumbent", sh.nodes)
	}
	w.runLocalBranch(inc, cutoff)

	if sh.lbFound == 0 || sh.bestObj >= 0 {
		t.Fatalf("no improving incumbent: %d found, best %g", sh.lbFound, -sh.bestObj)
	}
	ok, val := checkFeasible(m, sh.best, 1e-6)
	if !ok || math.Abs(val+sh.bestObj) > 1e-6 {
		t.Fatalf("published point feasible %v with objective %g, recorded %g", ok, val, -sh.bestObj)
	}
	flips := 0
	for _, x := range xs {
		if math.Round(sh.best[x.ID()]) != math.Round(inc[x.ID()]) {
			flips++
		}
	}
	if flips > lbRadius {
		t.Errorf("published point flips %d binaries, outside the radius-%d ball", flips, lbRadius)
	}
	if sh.lbActive {
		t.Error("slot still held after the run")
	}
}
