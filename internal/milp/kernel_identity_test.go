package milp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The kernel identity harness: the count-bucketed pivot search, the
// shortened and run-skipping triangular solves, the typed ratio-test sort
// and recycled solver states must reproduce the plain implementations bit
// for bit, signed zeros included, so every pivot, node and chip stays the
// same. The reference implementations below are the plain ones, kept here
// as the oracle.

// selectPivotRef is the plain Markowitz search: a scan over every column
// keeps the luPivotCols lowest by (count, column id).
func (f *luFactor) selectPivotRef() (int32, int32, float64, bool) {
	var cand []int32
	for c := 0; c < f.m; c++ {
		if !f.fColActive[c] {
			continue
		}
		if f.fColCnt[c] == 0 {
			return 0, 0, 0, false
		}
		cnt := f.fColCnt[c]
		pos := len(cand)
		if pos < luPivotCols {
			cand = append(cand, int32(c))
		} else if cnt < f.fColCnt[cand[luPivotCols-1]] {
			pos = luPivotCols - 1
			cand[pos] = int32(c)
		} else {
			continue
		}
		for pos > 0 && f.fColCnt[cand[pos]] < f.fColCnt[cand[pos-1]] {
			cand[pos], cand[pos-1] = cand[pos-1], cand[pos]
			pos--
		}
	}
	if pr, pc, pv, ok := f.bestInColumnsRef(cand); ok {
		return pr, pc, pv, true
	}
	cand = cand[:0]
	for c := 0; c < f.m; c++ {
		if f.fColActive[c] {
			cand = append(cand, int32(c))
		}
	}
	return f.bestInColumnsRef(cand)
}

// bestInColumnsRef reads each candidate entry twice: once for the column
// maximum, once for the threshold test.
func (f *luFactor) bestInColumnsRef(cols []int32) (int32, int32, float64, bool) {
	bestRow, bestCol := int32(-1), int32(-1)
	bestVal := 0.0
	bestCost := math.Inf(1)
	for _, c := range cols {
		colMax := 0.0
		for _, rw := range f.fColRows[c] {
			if !f.fRowActive[rw] {
				continue
			}
			if av := math.Abs(f.entryValue(rw, c)); av > colMax {
				colMax = av
			}
		}
		if colMax < luPivotFloor {
			continue
		}
		thresh := markowitzThreshold * colMax
		if thresh < luPivotFloor {
			thresh = luPivotFloor
		}
		ccnt := float64(f.fColCnt[c] - 1)
		for _, rw := range f.fColRows[c] {
			if !f.fRowActive[rw] {
				continue
			}
			v := f.entryValue(rw, c)
			if math.Abs(v) < thresh {
				continue
			}
			cost := float64(len(f.fRowInd[rw])-1) * ccnt
			if cost < bestCost || (cost == bestCost && math.Abs(v) > math.Abs(bestVal)) {
				bestRow, bestCol, bestVal, bestCost = rw, c, v, cost
			}
		}
		if bestCost == 0 {
			break
		}
	}
	return bestRow, bestCol, bestVal, bestRow >= 0
}

// applyLRef tests every L eta's pivot entry on its own.
func (f *luFactor) applyLRef(w []float64) {
	for e, piv := range f.lrunPiv {
		for p := f.lrunPtr[e]; p < f.lrunPtr[e+1]; p++ {
			if v := w[piv]; v != 0 {
				w[f.lrow[p]] -= f.lval[p] * v
			}
		}
	}
	for e := range f.retaRow {
		acc := 0.0
		for p := f.retaPtr[e]; p < f.retaPtr[e+1]; p++ {
			if v := w[f.retaInd[p]]; v != 0 {
				acc += f.retaVal[p] * v
			}
		}
		w[f.retaRow[e]] -= acc
	}
}

// solveURef divides every entry, zeros included.
func (f *luFactor) solveURef(w, out []float64) {
	for k := f.m - 1; k >= 0; k-- {
		c := f.pcol[k]
		v := w[f.prow[k]] / f.diag[c]
		out[c] = v
		if v != 0 {
			for idx, rr := range f.ucolInd[c] {
				w[rr] -= f.ucolVal[c][idx] * v
			}
		}
	}
}

// btranRef runs the whole Uᵀ pass through a per-entry callback and applies
// Lᵀ eta by eta. Its work vector starts as NaN, so a read before a write
// would show in the result.
func (f *luFactor) btranRef(get func(c int32) float64, out []float64) {
	m := f.m
	w := make([]float64, m)
	for i := range w {
		w[i] = math.NaN()
	}
	for k := 0; k < m; k++ {
		c := f.pcol[k]
		acc := get(c)
		for idx, rr := range f.ucolInd[c] {
			if v := w[rr]; v != 0 {
				acc -= f.ucolVal[c][idx] * v
			}
		}
		w[f.prow[k]] = acc / f.diag[c]
	}
	for e := len(f.retaRow) - 1; e >= 0; e-- {
		if v := w[f.retaRow[e]]; v != 0 {
			for p := f.retaPtr[e]; p < f.retaPtr[e+1]; p++ {
				w[f.retaInd[p]] -= f.retaVal[p] * v
			}
		}
	}
	for e := len(f.lrunPiv) - 1; e >= 0; e-- {
		for p := f.lrunPtr[e+1] - 1; p >= f.lrunPtr[e]; p-- {
			if v := w[f.lrow[p]]; v != 0 {
				w[f.lrunPiv[e]] -= f.lval[p] * v
			}
		}
	}
	copy(out, w)
}

func (f *luFactor) ftranColumnRef(j int, out []float64) {
	w := make([]float64, f.m)
	f.scatterColumn(j, w)
	f.applyLRef(w)
	f.solveURef(w, out)
}

func (f *luFactor) ftranDenseRef(rhs, out []float64) {
	w := append([]float64(nil), rhs...)
	f.applyLRef(w)
	f.solveURef(w, out)
}

// assertSameBits fails unless a and b agree bit for bit.
func assertSameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), reference %v (%#x)",
				what, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// sparseEntry is one stored entry of a test column; zero values are kept
// as explicit entries.
type sparseEntry struct {
	row int
	val float64
}

// sparseInstance builds a bare instance from stored columns, explicit
// zeros included, plus the implicit slack identity.
func sparseInstance(m int, cols [][]sparseEntry) *instance {
	n := len(cols)
	in := &instance{
		m: m, nStruct: n, n: n + m,
		b:      make([]float64, m),
		c:      make([]float64, n+m),
		lo:     make([]float64, n+m),
		hi:     make([]float64, n+m),
		intCol: make([]bool, n),
		colPtr: make([]int32, n+1),
	}
	for j, col := range cols {
		for _, e := range col {
			in.rowIdx = append(in.rowIdx, int32(e.row))
			in.val = append(in.val, e.val)
		}
		in.colPtr[j+1] = int32(len(in.rowIdx))
	}
	return in
}

// Kinds of random basis randomLUBasis draws.
const (
	basisRegular  = iota // nonzero diagonal, usually nonsingular
	basisSingular        // one column repeated or empty
	basisHopeless        // the first columns hold only sub-floor entries
)

// randomLUBasis draws an m-row instance and a basis over it. Each basis
// position holds its slack or a structural column with an entry on its own
// row; a column holds 1–4 entries, 15–18 (around the largest count bucket)
// or more than 16, mostly small integers (so eliminations cancel to exact
// zeros) with explicit zeros and sub-floor entries among them. m extra
// columns serve as entering columns for updates.
func randomLUBasis(r *rand.Rand, m, kind int) (*instance, []int32) {
	vals := []float64{1, -1, 2, -2, 3, 0.5, -0.25, 7.5}
	column := func(diag, cnt int) []sparseEntry {
		var col []sparseEntry
		if diag >= 0 {
			col = append(col, sparseEntry{diag, vals[r.Intn(len(vals))]})
		}
		for _, row := range r.Perm(m) {
			if len(col) >= cnt {
				break
			}
			if row == diag {
				continue
			}
			v := vals[r.Intn(len(vals))]
			switch r.Intn(16) {
			case 0, 1:
				v = 0
			case 2:
				v = 1e-12
			case 3, 4, 5:
				v = r.NormFloat64()
			}
			col = append(col, sparseEntry{row, v})
		}
		return col
	}
	var cols [][]sparseEntry
	pick := make([]int, m) // structural column, or -1 for the slack
	for i := range pick {
		pick[i] = -1
		if r.Intn(4) == 0 {
			continue
		}
		cnt := 1 + r.Intn(4)
		switch r.Intn(5) {
		case 0:
			cnt = luMaxBucket + 1 + r.Intn(m/2+1)
		case 1:
			cnt = luMaxBucket - 1 + r.Intn(4)
		}
		pick[i] = len(cols)
		cols = append(cols, column(i, min(cnt, m)))
	}
	switch kind {
	case basisSingular:
		i := r.Intn(m)
		pick[i] = len(cols)
		if r.Intn(2) == 0 {
			cols = append(cols, nil)
		} else {
			cols = append(cols, cols[r.Intn(len(cols))])
		}
	case basisHopeless:
		for i := 0; i < min(m, luPivotCols+1); i++ {
			pick[i] = len(cols)
			cols = append(cols, []sparseEntry{{i, 1e-12}, {(i + 1) % m, 0}})
		}
	}
	for j := 0; j < m; j++ {
		cols = append(cols, column(-1, 1+r.Intn(6)))
	}
	in := sparseInstance(m, cols)
	basic := make([]int32, m)
	for i, j := range pick {
		if j < 0 {
			j = in.nStruct + i
		}
		basic[i] = int32(j)
	}
	return in, basic
}

// TestSelectPivotMatchesLinearScan runs the elimination on random bases
// and, at every step, compares the bucketed search with the plain scan.
func TestSelectPivotMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	steps, ranked, fallback, failed := 0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		m := []int{5, 20, 48, 90}[trial%4]
		in, basic := randomLUBasis(r, m, trial%5%3)
		f := newLUFactor(in, basic, nil)
		f.resetFactors()
		f.buildWorking()
		for k := 0; k < m; k++ {
			low := int32(0)
			for b := 1; b <= luMaxBucket; b++ {
				low += f.fBucketN[b]
			}
			if low < luPivotCols && f.fBucketN[luMaxBucket+1] > 0 {
				ranked++ // the overflow columns get ranked by insertion
			}
			pr, pc, pv, ok := f.selectPivotRef()
			gr, gc, gv, gok := f.selectPivot()
			if gok != ok || gr != pr || gc != pc || math.Float64bits(gv) != math.Float64bits(pv) {
				t.Fatalf("trial %d step %d: bucketed search picked (%d,%d,%v,%v), scan (%d,%d,%v,%v)",
					trial, k, gr, gc, gv, gok, pr, pc, pv, ok)
			}
			steps++
			if len(f.fCand) > luPivotCols {
				fallback++ // every low-count column was hopeless
			}
			if !ok {
				failed++
				break
			}
			f.eliminate(k, pr, pc, pv)
		}
	}
	if ranked == 0 || fallback == 0 || failed == 0 {
		t.Fatalf("fixture too tame: %d steps ranked overflow columns, %d full-scan fallbacks, %d singular stops",
			ranked, fallback, failed)
	}
	t.Logf("%d steps compared: %d ranked overflow columns, %d fallbacks, %d singular stops", steps, ranked, fallback, failed)
}

// TestTriangularSolvesMatchReference compares the four solves with the
// plain passes on factorizations carrying chains of Forrest–Tomlin updates.
func TestTriangularSolvesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	negZero := math.Copysign(0, -1)
	factored, updated := 0, 0
	for trial := 0; trial < 60; trial++ {
		m := []int{6, 25, 70}[trial%3]
		in, basic := randomLUBasis(r, m, basisRegular)
		f := newLUFactor(in, basic, nil)
		if !f.refactorize() {
			continue
		}
		factored++
		got, want := make([]float64, m), make([]float64, m)
		compare := func(stage string) {
			for j := 0; j < in.n; j++ {
				f.ftranColumnRef(j, want)
				f.ftranColumn(j, got)
				assertSameBits(t, fmt.Sprintf("%s ftranColumn(%d)", stage, j), got, want)
			}
			for rr := 0; rr < m; rr++ {
				f.btranRef(func(c int32) float64 {
					if int(c) == rr {
						return 1
					}
					return 0
				}, want)
				f.btranRow(rr, got)
				assertSameBits(t, fmt.Sprintf("%s btranRow(%d)", stage, rr), got, want)
			}
			rhs := make([]float64, m)
			for rep := 0; rep < 4; rep++ {
				for i := range rhs {
					switch r.Intn(4) {
					case 0:
						rhs[i] = 0
					case 1:
						rhs[i] = negZero
					default:
						rhs[i] = r.NormFloat64()
					}
				}
				f.ftranDenseRef(rhs, want)
				f.ftranDense(rhs, got)
				assertSameBits(t, stage+" ftranDense", got, want)
				f.btranRef(func(c int32) float64 { return rhs[c] }, want)
				f.btranDense(rhs, got)
				assertSameBits(t, stage+" btranDense", got, want)
			}
		}
		compare(fmt.Sprintf("trial %d fresh", trial))
		w := make([]float64, m)
		for step := 0; step < 40; step++ {
			j, pos := r.Intn(in.n), r.Intn(m)
			f.ftranColumn(j, w)
			if math.Abs(w[pos]) < 1e-3 {
				continue
			}
			if !f.update(pos, w) {
				continue
			}
			basic[pos] = int32(j)
			updated++
			compare(fmt.Sprintf("trial %d after update %d", trial, step))
		}
	}
	if factored == 0 || updated == 0 {
		t.Fatalf("fixture too tame: %d factorizations, %d updates", factored, updated)
	}
	t.Logf("%d factorizations, %d Forrest–Tomlin updates compared", factored, updated)
}

// dualRatioBFRTRef is the plain bound-flipping ratio test: sort.Slice with
// a comparator that recomputes both ratios and both |α| on every call.
func (s *simplexState) dualRatioBFRTRef(below bool, delta float64, bland bool) (int, []bndFlip, Status) {
	in := s.in
	alpha := s.alphaBuf
	var cand []int32
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
		if ok {
			cand = append(cand, int32(j))
		}
	}
	if len(cand) == 0 {
		return -1, nil, StatusInfeasible
	}
	ratio := func(j int32) float64 {
		dj := s.d[j]
		switch s.stat[j] {
		case nbLower:
			if dj < 0 {
				dj = 0
			}
		case nbUpper:
			if dj > 0 {
				dj = 0
			}
		}
		return math.Abs(dj / alpha[j])
	}
	if bland {
		q := int32(-1)
		bestTheta := 0.0
		for _, j := range cand {
			th := ratio(j)
			switch {
			case q < 0 || th < bestTheta-redCostEps:
				q, bestTheta = j, th
			case th < bestTheta+redCostEps && j < q:
				q, bestTheta = j, th
			}
		}
		return int(q), nil, StatusOptimal
	}
	sort.Slice(cand, func(a, b int) bool {
		ta, tb := ratio(cand[a]), ratio(cand[b])
		if ta != tb {
			return ta < tb
		}
		return math.Abs(alpha[cand[a]]) > math.Abs(alpha[cand[b]])
	})
	var flips []bndFlip
	remaining := delta
	for idx, j := range cand {
		rng := s.hi[j] - s.lo[j]
		cap_ := math.Abs(alpha[j]) * rng
		if idx == len(cand)-1 || math.IsInf(rng, 1) || cap_ >= remaining-feasEps {
			return int(j), flips, StatusOptimal
		}
		dj := rng
		if s.stat[j] == nbUpper {
			dj = -rng
		}
		flips = append(flips, bndFlip{col: j, delta: dj})
		remaining -= cap_
	}
	return -1, nil, StatusInfeasible
}

// TestRatioOrderMatchesSortSlice drives the ratio test on tie-heavy pivot
// rows — most breakpoints at ratio 0 with |α| = 1 — and compares entering
// column, flips and status with the sort.Slice reference.
func TestRatioOrderMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	negZero := math.Copysign(0, -1)
	alphas := []float64{1, -1, 1, -1, 2, -0.5, 1e-9, 0, 3}
	ds := []float64{0, 0, 0, negZero, 1e-12, -1e-12, 0.5, -0.5, 2}
	stats := []int8{nbLower, nbLower, nbUpper, nbUpper, nbFree, nbBasic}
	flipped := 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(60)
		s := &simplexState{
			in:       &instance{n: n},
			lo:       make([]float64, n),
			hi:       make([]float64, n),
			stat:     make([]int8, n),
			d:        make([]float64, n),
			alphaBuf: make([]float64, n),
		}
		for j := 0; j < n; j++ {
			s.stat[j] = stats[r.Intn(len(stats))]
			s.alphaBuf[j] = alphas[r.Intn(len(alphas))]
			s.d[j] = ds[r.Intn(len(ds))]
			switch r.Intn(3) {
			case 0:
				s.hi[j] = 1
			case 1:
				s.hi[j] = math.Inf(1)
			default:
				s.lo[j], s.hi[j] = -1, 2
			}
		}
		below, bland := r.Intn(2) == 0, r.Intn(8) == 0
		delta := float64(1 + r.Intn(6))
		q, flips, st := s.dualRatioBFRT(below, delta, bland)
		flips = append([]bndFlip(nil), flips...)
		rq, rflips, rst := s.dualRatioBFRTRef(below, delta, bland)
		if q != rq || st != rst || len(flips) != len(rflips) {
			t.Fatalf("trial %d: got q=%d %v with %d flips, reference q=%d %v with %d flips",
				trial, q, st, len(flips), rq, rst, len(rflips))
		}
		for k := range flips {
			if flips[k].col != rflips[k].col || math.Float64bits(flips[k].delta) != math.Float64bits(rflips[k].delta) {
				t.Fatalf("trial %d: flip %d is %+v, reference %+v", trial, k, flips[k], rflips[k])
			}
		}
		flipped += len(flips)
	}
	if flipped == 0 {
		t.Fatal("no trial flipped a bound; the long-step order went unchecked")
	}
}

// lpRun records everything a solve reports, as bits where it is a float.
type lpRun struct {
	status      Status
	x           []uint64
	obj         uint64
	iters       int
	incr, full  int
	factorStats FactorStats
}

// solveRecord cold-solves s, then tightens one bound and warm-solves, and
// records both outcomes.
func solveRecord(t *testing.T, s *simplexState) [2]lpRun {
	t.Helper()
	record := func(st Status) lpRun {
		run := lpRun{status: st, obj: math.Float64bits(lpObjective(s)), iters: s.iters,
			incr: s.incrPivots, full: s.fullPivots, factorStats: s.fac.snapshot()}
		for _, v := range s.extract() {
			run.x = append(run.x, math.Float64bits(v))
		}
		return run
	}
	var out [2]lpRun
	out[0] = record(s.solveCold())
	for j := 0; j < s.in.nStruct; j++ {
		if s.stat[j] == nbBasic && s.hi[j]-s.lo[j] > 1 {
			s.hi[j] = (s.lo[j] + s.hi[j]) / 2
			break
		}
	}
	out[1] = record(s.solveWarm())
	return out
}

func sameRuns(a, b [2]lpRun) bool {
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			return false
		}
	}
	return true
}

// TestRecycledStateMatchesFresh solves schedLikeLP on a state that earlier
// ran the other kernel and then solved a larger model under the same
// kernel, and requires the same X bits, objective, pivots and kernel
// counters as a fresh state.
func TestRecycledStateMatchesFresh(t *testing.T) {
	compiled := func(m *Model) *instance {
		in, decided := compile(m, false)
		if decided != StatusUnknown {
			t.Fatalf("compile decided the model outright: %v", decided)
		}
		return in
	}
	for _, target := range []struct {
		name          string
		m             *Model
		kind          string
		other, larger *Model // solved first, under the other kernel and this one
	}{
		{"sched_n8_k3", schedLikeLP(8, 3, true), "sparse-lu", schedLikeLP(5, 2, true), schedLikeLP(14, 4, true)},
		{"sched_n6_k2", schedLikeLP(6, 2, true), "dense", schedLikeLP(14, 4, true), schedLikeLP(7, 3, true)},
	} {
		t.Run(target.name, func(t *testing.T) {
			in := compiled(target.m)
			fresh := newState(in)
			if k := fresh.fac.kind(); k != target.kind {
				t.Fatalf("fixture runs the %s kernel, want %s", k, target.kind)
			}
			want := solveRecord(t, fresh)
			if want[0].status != StatusOptimal || want[1].status != StatusOptimal {
				t.Fatalf("fresh solves: %v, %v", want[0].status, want[1].status)
			}

			s := newState(compiled(target.other))
			solveRecord(t, s)
			larger := compiled(target.larger)
			s.reset(larger, kernelAuto)
			if k := s.fac.kind(); k != target.kind || larger.m <= in.m || larger.n <= in.n {
				t.Fatalf("larger model runs %s with %d rows, %d columns", k, larger.m, larger.n)
			}
			solveRecord(t, s)
			kernel := s.fac
			s.reset(in, kernelAuto)
			if s.fac != kernel {
				t.Fatal("reset to the same kernel built a new one")
			}
			if got := solveRecord(t, s); !sameRuns(got, want) {
				t.Fatalf("recycled state solved to\n%v\nfresh state to\n%v", got, want)
			}
		})
	}
}

// TestSolveRepeatsBitIdentically solves one MILP repeatedly; from the
// second solve on, statePool hands out recycled states, which must not move
// a bit of the solution or a counter.
func TestSolveRepeatsBitIdentically(t *testing.T) {
	m := schedLikeLP(6, 2, false)
	var want string
	for rep := 0; rep < 3; rep++ {
		sol, err := SolveContext(context.Background(), m, SolveOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		st := sol.Stats
		st.SeparationWall = 0
		got := fmt.Sprint(sol.Status, math.Float64bits(sol.Objective), sol.Nodes, sol.Iterations, st)
		for _, v := range sol.X {
			got += fmt.Sprintf(" %x", math.Float64bits(v))
		}
		if rep == 0 {
			want = got
		} else if got != want {
			t.Fatalf("solve %d differs from the first:\n%s\n%s", rep+1, got, want)
		}
	}
}
