// Package milp provides a small, dependency-free linear-programming and
// mixed-integer-linear-programming toolkit.
//
// The paper this repository reproduces ("Transport or Store?", DAC 2017)
// solves its scheduling and architectural-synthesis formulations with Gurobi.
// This package is the stdlib-only substitute: a modeling layer (variables,
// linear expressions, constraints), a sparse bounded-variable revised
// simplex (primal and dual) over a presolved column-major instance, and a
// parallel best-bound branch-and-bound driver that warm-starts every child
// relaxation from its parent's basis, with a wall-clock time limit and
// best-effort incumbents mirroring the paper's 30-minute solver cap.
//
// The solver is exact on the small and medium instances used in tests and in
// the PCR experiments; larger instances fall back to time-limited
// best-effort search exactly as the paper reports for its larger assays.
// Solver diagnostics (nodes, pivots, warm-start rate, presolve reductions,
// MIP gap) are reported on every Solution via SolveStats.
package milp

import (
	"fmt"
	"math"
	"sort"
)

// VarType classifies a decision variable.
type VarType int

const (
	// Continuous variables take any real value within their bounds.
	Continuous VarType = iota
	// Integer variables are restricted to integral values within bounds.
	Integer
	// Binary variables are integer variables with bounds [0,1].
	Binary
)

// String returns a short human-readable name for the variable type.
func (t VarType) String() string {
	switch t {
	case Continuous:
		return "continuous"
	case Integer:
		return "integer"
	case Binary:
		return "binary"
	default:
		return fmt.Sprintf("VarType(%d)", int(t))
	}
}

// Sense selects between minimization and maximization objectives.
type Sense int

const (
	// Minimize seeks the smallest objective value.
	Minimize Sense = iota
	// Maximize seeks the largest objective value.
	Maximize
)

// String returns the textual direction of optimization.
func (s Sense) String() string {
	if s == Maximize {
		return "maximize"
	}
	return "minimize"
}

// Relation is the comparison operator of a linear constraint.
type Relation int

const (
	// LE is "less than or equal".
	LE Relation = iota
	// GE is "greater than or equal".
	GE
	// EQ is "equal".
	EQ
)

// String returns the operator as it would appear in an LP file.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Inf is the bound value used to denote an unbounded variable side.
var Inf = math.Inf(1)

// Var is an opaque handle to a decision variable in a Model.
type Var struct {
	id int
}

// ID returns the dense index of the variable inside its model. It is stable
// for the lifetime of the model and usable as a slice index.
func (v Var) ID() int { return v.id }

// varData stores the per-variable attributes held by a Model.
type varData struct {
	name string
	lo   float64
	hi   float64
	typ  VarType
}

// Constraint is one linear constraint: Expr Rel RHS.
type Constraint struct {
	// Name is an optional label used in diagnostics and LP output.
	Name string
	// Expr is the linear left-hand side.
	Expr Expr
	// Rel is the comparison operator.
	Rel Relation
	// RHS is the right-hand-side constant.
	RHS float64
}

// Model is a mutable MILP model: a set of typed, bounded variables, linear
// constraints, and one linear objective.
type Model struct {
	vars []varData
	cons []Constraint
	obj  Expr
	dir  Sense
}

// NewModel returns an empty minimization model.
func NewModel() *Model {
	return &Model{dir: Minimize}
}

// NumVars reports how many variables have been created.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints reports how many constraints have been added.
func (m *Model) NumConstraints() int { return len(m.cons) }

// NewVar adds a variable with the given name, bounds and type and returns its
// handle. Binary variables have their bounds clamped to [0,1]. A reversed
// bound pair (lo > hi) is allowed at creation time and reported as infeasible
// by the solver, matching common solver behaviour.
func (m *Model) NewVar(name string, lo, hi float64, typ VarType) Var {
	if typ == Binary {
		if lo < 0 {
			lo = 0
		}
		if hi > 1 {
			hi = 1
		}
	}
	m.vars = append(m.vars, varData{name: name, lo: lo, hi: hi, typ: typ})
	return Var{id: len(m.vars) - 1}
}

// NewBinary adds a {0,1} variable.
func (m *Model) NewBinary(name string) Var {
	return m.NewVar(name, 0, 1, Binary)
}

// NewInteger adds an integer variable with the given bounds.
func (m *Model) NewInteger(name string, lo, hi float64) Var {
	return m.NewVar(name, lo, hi, Integer)
}

// NewContinuous adds a continuous variable with the given bounds.
func (m *Model) NewContinuous(name string, lo, hi float64) Var {
	return m.NewVar(name, lo, hi, Continuous)
}

// Bounds returns the lower and upper bound of v.
func (m *Model) Bounds(v Var) (lo, hi float64) {
	d := m.vars[v.id]
	return d.lo, d.hi
}

// Type returns the variable type of v.
func (m *Model) Type(v Var) VarType { return m.vars[v.id].typ }

// AddConstraint appends expr rel rhs to the model and returns its index.
func (m *Model) AddConstraint(name string, expr Expr, rel Relation, rhs float64) int {
	m.cons = append(m.cons, Constraint{Name: name, Expr: expr.Clone(), Rel: rel, RHS: rhs})
	return len(m.cons) - 1
}

// AddLE adds expr <= rhs.
func (m *Model) AddLE(name string, expr Expr, rhs float64) int {
	return m.AddConstraint(name, expr, LE, rhs)
}

// AddGE adds expr >= rhs.
func (m *Model) AddGE(name string, expr Expr, rhs float64) int {
	return m.AddConstraint(name, expr, GE, rhs)
}

// AddEQ adds expr = rhs.
func (m *Model) AddEQ(name string, expr Expr, rhs float64) int {
	return m.AddConstraint(name, expr, EQ, rhs)
}

// Constraint returns the i-th constraint (read-only view).
func (m *Model) Constraint(i int) Constraint { return m.cons[i] }

// SetObjective installs the objective expression and direction.
func (m *Model) SetObjective(expr Expr, dir Sense) {
	m.obj = expr.Clone()
	m.dir = dir
}

// Objective returns the current objective expression and sense.
func (m *Model) Objective() (Expr, Sense) { return m.obj, m.dir }

// IntegerVars returns the handles of all Integer/Binary variables in id order.
func (m *Model) IntegerVars() []Var {
	var out []Var
	for i, d := range m.vars {
		if d.typ != Continuous {
			out = append(out, Var{id: i})
		}
	}
	return out
}

// Validate performs cheap sanity checks: variable ids in range, finite
// coefficients, and non-NaN bounds. It returns the first problem found.
func (m *Model) Validate() error {
	for i, d := range m.vars {
		if math.IsNaN(d.lo) || math.IsNaN(d.hi) {
			return fmt.Errorf("milp: variable %d (%s) has NaN bound", i, d.name)
		}
	}
	check := func(e Expr, what string) error {
		for _, t := range e.Terms() {
			if t.Var.id < 0 || t.Var.id >= len(m.vars) {
				return fmt.Errorf("milp: %s references unknown variable id %d", what, t.Var.id)
			}
			if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return fmt.Errorf("milp: %s has non-finite coefficient %v", what, t.Coef)
			}
		}
		return nil
	}
	if err := check(m.obj, "objective"); err != nil {
		return err
	}
	for i := range m.cons {
		c := &m.cons[i]
		if err := check(c.Expr, fmt.Sprintf("constraint %d (%s)", i, c.Name)); err != nil {
			return err
		}
		if math.IsNaN(c.RHS) {
			return fmt.Errorf("milp: constraint %d (%s) has NaN rhs", i, c.Name)
		}
	}
	return nil
}

// Stats summarizes a model for logs and reports.
type Stats struct {
	Vars        int
	Binaries    int
	Integers    int
	Continuous  int
	Constraints int
}

// Stats computes the size summary of the model.
func (m *Model) Stats() Stats {
	s := Stats{Vars: len(m.vars), Constraints: len(m.cons)}
	for _, d := range m.vars {
		switch d.typ {
		case Binary:
			s.Binaries++
		case Integer:
			s.Integers++
		default:
			s.Continuous++
		}
	}
	return s
}

// String renders the stats compactly, e.g. "12 vars (8 bin, 0 int), 30 cons".
func (s Stats) String() string {
	return fmt.Sprintf("%d vars (%d bin, %d int), %d cons",
		s.Vars, s.Binaries, s.Integers, s.Constraints)
}

// sortedVarIDs returns the ids appearing in e in ascending order; helper for
// deterministic output.
func sortedVarIDs(e Expr) []int {
	ids := make([]int, 0, len(e.Terms()))
	for _, t := range e.Terms() {
		ids = append(ids, t.Var.id)
	}
	sort.Ints(ids)
	return ids
}
