package milp

import "math"

// sparseKernelMinRows is the row-count crossover above which newState picks
// the sparse LU kernel. Below it the dense inverse wins: its per-solve cost
// is a handful of tight O(m²) loops with no indirection, while the LU kernel
// pays list traversals per nonzero. Above it the O(m²) ftran/btran and the
// O(m³) refactorization dominate everything else the solver does — the
// ROADMAP's "binding cost above ~1000 rows" — and the sparse kernel takes
// over. Measured on the sched-shaped models (BenchmarkKernelIVDScale and the
// cold-solve sweep that produced this constant): dense and sparse break even
// near 55 rows, sparse is 3× faster at 80 rows and 16× at 960.
const sparseKernelMinRows = 64

// basisFactorization abstracts the linear algebra of the bounded-variable
// simplex: a factorization of the current basis matrix B answering the four
// solve queries the pivot loop needs, plus a rank-one basis-change update.
// Two kernels implement it — the dense basis inverse with product-form (eta)
// updates inherited from the PR 3 solver, and a sparse LU with
// Markowitz-threshold pivoting and Forrest–Tomlin updates that takes over
// above sparseKernelMinRows rows. The kernels are interchangeable: both
// answer every query to within the simplex tolerances, as the kernel
// equivalence harness (factor_equiv_test.go) asserts.
//
// Index conventions: the basis matrix column at basis position i is instance
// column basic[i]; "basis row" means that position. ftran results are
// indexed by basis position, btran results by constraint row (for the square
// dense inverse the two coincide, for the LU kernel they are kept distinct).
type basisFactorization interface {
	// refactorize rebuilds the factorization from the owner's current basis
	// (the basic slice shared at construction). It returns false on a
	// numerically singular basis or when the owner's context fired mid-way.
	refactorize() bool
	// installIdentity resets the factorization to the all-slack basis, whose
	// matrix is the identity; it never fails.
	installIdentity()
	// ftranColumn computes out = B⁻¹·A_j for instance column j, out indexed
	// by basis position. Kernels may cache the partial triangular solve for
	// a following update call on the same column.
	ftranColumn(j int, out []float64)
	// ftranDense solves B·out = rhs for a dense right-hand side indexed by
	// constraint row. rhs is left untouched.
	ftranDense(rhs, out []float64)
	// btranDense solves Bᵀ·out = cb — the dual vector y = c_Bᵀ·B⁻¹ — with cb
	// indexed by basis position and out by constraint row. cb is left
	// untouched.
	btranDense(cb, out []float64)
	// btranRow computes out = e_rᵀ·B⁻¹, row r of the basis inverse (the
	// pivot row ρ driving the dual ratio test and devex weight updates).
	btranRow(r int, out []float64)
	// update applies the basis change replacing basis position r with the
	// column last passed to ftranColumn, whose full FTRAN result is w. It
	// returns false when the update is numerically unacceptable; the caller
	// then refactorizes the pre-pivot basis and may retry once.
	update(r int, w []float64) bool
	// updates reports the number of updates applied since the last
	// refactorize/installIdentity, driving the periodic-refresh policy.
	updates() int
	// snapshot returns the cumulative kernel counters.
	snapshot() FactorStats
	// kind names the kernel ("dense" or "sparse-lu").
	kind() string
}

// denseFactor is the PR 3 kernel: an explicit m×m basis inverse rebuilt by
// Gauss-Jordan elimination and maintained between refactorizations with
// product-form (eta) updates. Simple and cache-friendly, it is the kernel of
// choice for the small models below the sparse crossover.
type denseFactor struct {
	in    *instance
	basic []int32 // shared with the owning simplexState
	abort func() bool

	binv      []float64 // m×m row-major basis inverse
	factorBuf []float64
	since     int

	st FactorStats
}

func newDenseFactor(in *instance, basic []int32, abort func() bool) *denseFactor {
	f := &denseFactor{}
	f.reset(in, basic, abort)
	return f
}

// reset points the kernel at in and returns it to the state newDenseFactor
// builds: zeroed arrays and cleared counters.
func (f *denseFactor) reset(in *instance, basic []int32, abort func() bool) {
	m := in.m
	f.in, f.basic, f.abort = in, basic, abort
	f.binv = resize(f.binv, m*m)
	f.factorBuf = resize(f.factorBuf, m*m)
	f.since = 0
	f.st = FactorStats{Kernel: "dense"}
}

func (f *denseFactor) kind() string          { return "dense" }
func (f *denseFactor) updates() int          { return f.since }
func (f *denseFactor) snapshot() FactorStats { return f.st }

// installIdentity resets the inverse to the identity (the all-slack basis).
func (f *denseFactor) installIdentity() {
	m := f.in.m
	for i := range f.binv {
		f.binv[i] = 0
	}
	for i := 0; i < m; i++ {
		f.binv[i*m+i] = 1
	}
	f.since = 0
}

// refactorize rebuilds the dense basis inverse from the current basis by
// Gauss-Jordan elimination with partial pivoting. Returns false on a
// (numerically) singular basis.
func (f *denseFactor) refactorize() bool {
	in := f.in
	m := in.m
	f.since = 0
	f.st.Refactorizations++
	if m == 0 {
		return true
	}
	a := f.factorBuf
	for i := range a {
		a[i] = 0
	}
	for k := 0; k < m; k++ {
		j := int(f.basic[k])
		if j >= in.nStruct {
			a[(j-in.nStruct)*m+k] = 1
			continue
		}
		for p := in.colPtr[j]; p < in.colPtr[j+1]; p++ {
			a[int(in.rowIdx[p])*m+k] = in.val[p]
		}
	}
	binv := f.binv
	for i := range binv {
		binv[i] = 0
	}
	for i := 0; i < m; i++ {
		binv[i*m+i] = 1
	}
	for k := 0; k < m; k++ {
		// A full factorization is O(m³); honor cancellation mid-way on large
		// bases (the false return cascades into a prompt iteration-limit).
		if k&7 == 0 && f.abort != nil && f.abort() {
			return false
		}
		// Partial pivoting over rows k..m-1 of column k.
		p, best := -1, 1e-10
		for i := k; i < m; i++ {
			if v := math.Abs(a[i*m+k]); v > best {
				p, best = i, v
			}
		}
		if p < 0 {
			return false
		}
		if p != k {
			swapRows(a, m, p, k)
			swapRows(binv, m, p, k)
		}
		inv := 1 / a[k*m+k]
		scaleRow(a, m, k, inv)
		scaleRow(binv, m, k, inv)
		for i := 0; i < m; i++ {
			if i == k {
				continue
			}
			fi := a[i*m+k]
			if fi == 0 {
				continue
			}
			axpyRow(a, m, i, k, -fi)
			axpyRow(binv, m, i, k, -fi)
		}
	}
	return true
}

func swapRows(a []float64, m, i, j int) {
	ri, rj := a[i*m:(i+1)*m], a[j*m:(j+1)*m]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func scaleRow(a []float64, m, i int, f float64) {
	ri := a[i*m : (i+1)*m]
	for k := range ri {
		ri[k] *= f
	}
}

func axpyRow(a []float64, m, i, j int, f float64) {
	ri, rj := a[i*m:(i+1)*m], a[j*m:(j+1)*m]
	for k := range rj {
		if rj[k] != 0 {
			ri[k] += f * rj[k]
		}
	}
}

// ftranColumn computes out = B⁻¹·A_j exploiting the sparsity of A_j: each
// nonzero pulls in one column of the inverse.
func (f *denseFactor) ftranColumn(j int, out []float64) {
	in := f.in
	m := in.m
	for i := range out[:m] {
		out[i] = 0
	}
	if m == 0 {
		return
	}
	if j >= in.nStruct {
		r := j - in.nStruct
		for i := 0; i < m; i++ {
			out[i] = f.binv[i*m+r]
		}
		return
	}
	for p := in.colPtr[j]; p < in.colPtr[j+1]; p++ {
		r, v := int(in.rowIdx[p]), in.val[p]
		for i := 0; i < m; i++ {
			out[i] += v * f.binv[i*m+r]
		}
	}
}

// ftranDense computes out = B⁻¹·rhs row by row, skipping zero rhs entries.
func (f *denseFactor) ftranDense(rhs, out []float64) {
	m := f.in.m
	for i := 0; i < m; i++ {
		row := f.binv[i*m : (i+1)*m]
		v := 0.0
		for k, rk := range rhs[:m] {
			if rk != 0 {
				v += row[k] * rk
			}
		}
		out[i] = v
	}
}

// btranDense computes out = cbᵀ·B⁻¹, accumulating one inverse row per
// nonzero of cb.
func (f *denseFactor) btranDense(cb, out []float64) {
	m := f.in.m
	for k := range out[:m] {
		out[k] = 0
	}
	for i := 0; i < m; i++ {
		cbi := cb[i]
		if cbi == 0 {
			continue
		}
		row := f.binv[i*m : (i+1)*m]
		for k, v := range row {
			if v != 0 {
				out[k] += cbi * v
			}
		}
	}
}

// btranRow copies row r of the inverse.
func (f *denseFactor) btranRow(r int, out []float64) {
	m := f.in.m
	copy(out[:m], f.binv[r*m:(r+1)*m])
}

// update applies the product-form (eta) update for a pivot on basis row r
// with w = B⁻¹·A_q. Returns false when the pivot element is numerically
// unusable.
func (f *denseFactor) update(r int, w []float64) bool {
	m := f.in.m
	piv := w[r]
	if math.Abs(piv) < 1e-11 {
		f.st.UpdatesRejected++
		return false
	}
	inv := 1 / piv
	rowR := f.binv[r*m : (r+1)*m]
	for k := range rowR {
		rowR[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		fi := w[i]
		if fi == 0 {
			continue
		}
		rowI := f.binv[i*m : (i+1)*m]
		for k, v := range rowR {
			if v != 0 {
				rowI[k] -= fi * v
			}
		}
	}
	f.since++
	f.st.Updates++
	return true
}
