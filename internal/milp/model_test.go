package milp

import (
	"testing"
)

func TestExprString(t *testing.T) {
	m := NewModel()
	a := m.NewContinuous("a", 0, 1)
	b := m.NewContinuous("b", 0, 1)
	e := NewExpr(5)
	e.Add(b, -2).Add(a, 3)
	got := e.String()
	if got != "3*x0 - 2*x1 + 5" {
		t.Errorf("String() = %q, want %q", got, "3*x0 - 2*x1 + 5")
	}
	var zero Expr
	if zero.String() != "0" {
		t.Errorf("zero expr String() = %q, want 0", zero.String())
	}
}

func TestExprAccumulate(t *testing.T) {
	m := NewModel()
	v := m.NewContinuous("v", 0, 1)
	e := NewExpr(0)
	for i := 0; i < 20; i++ { // crosses the small-expression threshold
		e.Add(v, 1)
	}
	if e.Coef(v) != 20 {
		t.Errorf("accumulated coef = %v, want 20", e.Coef(v))
	}
	if len(e.Terms()) != 1 {
		t.Errorf("terms = %d, want 1 (coalesced)", len(e.Terms()))
	}
}

func TestExprAddExprScaleEval(t *testing.T) {
	m := NewModel()
	a := m.NewContinuous("a", 0, 10)
	b := m.NewContinuous("b", 0, 10)
	e1 := *NewExpr(1).Add(a, 2)
	e2 := *NewExpr(2).Add(a, 1).Add(b, 4)
	e1.AddExpr(e2)
	e1.Scale(2)
	// e1 = 2*(3a + 4b + 3) = 6a + 8b + 6
	x := []float64{2, 1}
	if got := e1.Eval(x); got != 6*2+8*1+6 {
		t.Errorf("Eval = %v, want 26", got)
	}
	if e1.IsZero() {
		t.Error("IsZero on non-zero expr")
	}
	var z Expr
	if !z.IsZero() {
		t.Error("zero value expr should be zero")
	}
}

func TestModelStats(t *testing.T) {
	m := NewModel()
	m.NewBinary("b")
	m.NewInteger("i", 0, 5)
	m.NewContinuous("c", 0, 1)
	m.AddLE("", NewExpr(0).Clone(), 1)
	s := m.Stats()
	if s.Vars != 3 || s.Binaries != 1 || s.Integers != 1 || s.Continuous != 1 || s.Constraints != 1 {
		t.Errorf("unexpected stats: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestSumPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sum should panic on slice length mismatch")
		}
	}()
	m := NewModel()
	v := m.NewContinuous("v", 0, 1)
	Sum([]Var{v}, []float64{1, 2})
}
