package milp

import (
	"math"
	"math/bits"
)

// Sparse LU tuning constants.
const (
	// markowitzThreshold is the relative threshold-pivoting bound u: within a
	// candidate column, an entry qualifies as pivot only if its magnitude is
	// at least u times the column's largest, trading sparsity against element
	// growth (Markowitz 1957; Duff, Erisman & Reid).
	markowitzThreshold = 0.1
	// luPivotFloor is the absolute magnitude below which an entry never
	// pivots; matches the dense kernel's singularity floor.
	luPivotFloor = 1e-10
	// luPivotCols caps how many lowest-count candidate columns one Markowitz
	// search examines (Suhl & Suhl settle for 4); a full scan over every
	// active column runs only when none of them holds an eligible entry.
	luPivotCols = 4
	// luMaxBucket is the largest column count with a bucket of its own; the
	// active columns above it share one overflow bucket.
	luMaxBucket = 16
	// ftRelTol rejects a Forrest–Tomlin update whose eliminated diagonal is
	// smaller than this times the spike's largest magnitude — the classic
	// stability escape hatch that forces a refactorization instead of
	// poisoning the factors.
	ftRelTol = 1e-9
)

// luFactor is the sparse kernel: B is held as P·L·U with permutations
// implied by the pivot-order arrays, L as a sequence of column eta
// operations over original row indices, and U as its off-diagonal nonzeros
// mirrored row- and column-wise (column ids are basis positions, row ids
// constraint rows; triangularity is relative to the pivot order, never the
// raw indices). Refactorization is a right-looking elimination with
// Markowitz-threshold pivoting; basis changes are absorbed by Forrest–Tomlin
// updates, which replace the leaving column of U with the entering spike,
// cyclically shift its pivot position to the end, and restore triangularity
// with one row eta — so between refactorizations every solve stays a pair of
// sparse triangular passes plus the accumulated etas.
//
// Every solve performs the floating-point operations of the plain
// triangular passes in the same order, down to the sign of a zero; the
// shortcuts below only skip work whose result is already known (a run of
// etas multiplying a zero, an inner loop over zeros, a division of zero).
// The solves assume finite, nonzero diagonals, which pivot selection and
// the update's stability test guarantee for finite bases.
type luFactor struct {
	in    *instance
	basic []int32 // shared with the owning simplexState
	abort func() bool
	m     int

	// L: eta runs in elimination order. Run e holds one elimination step's
	// etas, which share the pivot row lrunPiv[e]:
	// work[lrow[p]] -= lval[p]·work[lrunPiv[e]] for p in
	// [lrunPtr[e], lrunPtr[e+1]). No eta of a run writes its pivot row.
	lrow    []int32
	lval    []float64
	lrunPiv []int32
	lrunPtr []int32

	// U off-diagonal entries, mirrored; diag is keyed by column id.
	ucolInd [][]int32
	ucolVal [][]float64
	urowInd [][]int32
	urowVal [][]float64
	diag    []float64

	// Pivot order: position k eliminated row prow[k] against column pcol[k].
	prow, pcol     []int32
	posRow, posCol []int32

	// Forrest–Tomlin row etas, applied after L in update order:
	// work[retaRow] -= Σ retaVal·work[retaInd] over the eta's slice.
	retaRow []int32
	retaPtr []int32
	retaInd []int32
	retaVal []float64

	nUpdates int

	// spike caches the partial FTRAN (after L and the row etas, before the
	// U solve) of the column last passed to ftranColumn — exactly the
	// Forrest–Tomlin spike should that column enter the basis.
	spike   []float64
	spikeOK bool

	// solve scratch.
	work    []float64
	lastRow []float64 // dense FT elimination row, keyed by column id
	muInd   []int32
	muVal   []float64

	// refactorization working storage (reused across calls).
	fRowInd    [][]int32
	fRowVal    [][]float64
	fColRows   [][]int32
	fColCnt    []int32
	fRowActive []bool
	fColActive []bool
	fScratch   []float64
	fInPiv     []bool
	fVisited   []bool
	fCand      []int32
	fEntRow    []int32 // one candidate column's active entries
	fEntVal    []float64

	// The active columns bucketed by count: bucket k ≤ luMaxBucket holds the
	// columns of count k, bucket luMaxBucket+1 every column above. Each
	// bucket is a bitset of fWords words in fBucket; fBucketN counts its
	// members and fBucketLo is a lower bound on its first nonzero word.
	fBucket   []uint64
	fBucketN  [luMaxBucket + 2]int32
	fBucketLo [luMaxBucket + 2]int
	fWords    int

	st FactorStats
}

func newLUFactor(in *instance, basic []int32, abort func() bool) *luFactor {
	f := &luFactor{}
	f.reset(in, basic, abort)
	return f
}

// reset points the kernel at in and returns it to the state newLUFactor
// builds: every array resized and zeroed, every per-row list truncated, the
// counters cleared, and the identity factorization installed.
func (f *luFactor) reset(in *instance, basic []int32, abort func() bool) {
	m := in.m
	f.in, f.basic, f.abort, f.m = in, basic, abort, m

	f.ucolInd = resizeLists(f.ucolInd, m)
	f.ucolVal = resizeLists(f.ucolVal, m)
	f.urowInd = resizeLists(f.urowInd, m)
	f.urowVal = resizeLists(f.urowVal, m)
	f.diag = resize(f.diag, m)
	f.prow = resize(f.prow, m)
	f.pcol = resize(f.pcol, m)
	f.posRow = resize(f.posRow, m)
	f.posCol = resize(f.posCol, m)

	f.spike = resize(f.spike, m)
	f.work = resize(f.work, m)
	f.lastRow = resize(f.lastRow, m)
	f.muInd, f.muVal = f.muInd[:0], f.muVal[:0]

	f.fRowInd = resizeLists(f.fRowInd, m)
	f.fRowVal = resizeLists(f.fRowVal, m)
	f.fColRows = resizeLists(f.fColRows, m)
	f.fColCnt = resize(f.fColCnt, m)
	f.fRowActive = resize(f.fRowActive, m)
	f.fColActive = resize(f.fColActive, m)
	f.fScratch = resize(f.fScratch, m)
	f.fInPiv = resize(f.fInPiv, m)
	f.fVisited = resize(f.fVisited, m)
	f.fCand = f.fCand[:0]
	f.fEntRow, f.fEntVal = f.fEntRow[:0], f.fEntVal[:0]

	f.fWords = (m + 63) >> 6
	f.fBucket = resize(f.fBucket, (luMaxBucket+2)*f.fWords)
	f.fBucketN = [luMaxBucket + 2]int32{}
	f.fBucketLo = [luMaxBucket + 2]int{}

	f.st = FactorStats{Kernel: "sparse-lu"}
	f.installIdentity()
}

// resize returns s with length n and every element zero, reusing its array
// when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeLists returns s with length n and every list truncated to empty,
// keeping the lists' arrays for reuse.
func resizeLists[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([][]T, n-cap(s))...)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

func (f *luFactor) kind() string          { return "sparse-lu" }
func (f *luFactor) updates() int          { return f.nUpdates }
func (f *luFactor) snapshot() FactorStats { return f.st }

// resetFactors drops L, U and every pending eta.
func (f *luFactor) resetFactors() {
	f.lrow, f.lval = f.lrow[:0], f.lval[:0]
	f.lrunPiv = f.lrunPiv[:0]
	f.lrunPtr = append(f.lrunPtr[:0], 0)
	for c := 0; c < f.m; c++ {
		f.ucolInd[c] = f.ucolInd[c][:0]
		f.ucolVal[c] = f.ucolVal[c][:0]
		f.urowInd[c] = f.urowInd[c][:0]
		f.urowVal[c] = f.urowVal[c][:0]
	}
	f.retaRow = f.retaRow[:0]
	f.retaPtr = append(f.retaPtr[:0], 0)
	f.retaInd, f.retaVal = f.retaInd[:0], f.retaVal[:0]
	f.nUpdates = 0
	f.spikeOK = false
}

// installIdentity installs the trivial factorization of the all-slack basis:
// no L etas, a diagonal-only U, and the natural pivot order.
func (f *luFactor) installIdentity() {
	f.resetFactors()
	for k := 0; k < f.m; k++ {
		f.diag[k] = 1
		f.prow[k], f.pcol[k] = int32(k), int32(k)
		f.posRow[k], f.posCol[k] = int32(k), int32(k)
	}
}

// scatterColumn spreads instance column j into the row-indexed dense vector.
func (f *luFactor) scatterColumn(j int, out []float64) {
	in := f.in
	if j >= in.nStruct {
		out[j-in.nStruct] = 1
		return
	}
	for p := in.colPtr[j]; p < in.colPtr[j+1]; p++ {
		out[in.rowIdx[p]] = in.val[p]
	}
}

// applyL runs the L etas and the Forrest–Tomlin row etas over a row-indexed
// vector, completing the "lower" half of an FTRAN. A run whose pivot entry
// is zero changes nothing and is skipped whole.
func (f *luFactor) applyL(w []float64) {
	for e, piv := range f.lrunPiv {
		v := w[piv]
		if v == 0 {
			continue
		}
		for p := f.lrunPtr[e]; p < f.lrunPtr[e+1]; p++ {
			w[f.lrow[p]] -= f.lval[p] * v
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

// signBit masks the sign of a float64.
const signBit = 1 << 63

// solveU back-substitutes U over the row-indexed vector w, writing the
// result indexed by basis position into out. w is consumed. A zero entry
// divides to the zero whose sign is the two operands' signs combined, which
// is written without the division.
func (f *luFactor) solveU(w, out []float64) {
	for k := f.m - 1; k >= 0; k-- {
		c := f.pcol[k]
		x := w[f.prow[k]]
		if x == 0 {
			out[c] = math.Float64frombits((math.Float64bits(x) ^ math.Float64bits(f.diag[c])) & signBit)
			continue
		}
		v := x / f.diag[c]
		out[c] = v
		if v != 0 {
			ind, val := f.ucolInd[c], f.ucolVal[c]
			for idx, rr := range ind {
				w[rr] -= val[idx] * v
			}
		}
	}
}

func (f *luFactor) ftranColumn(j int, out []float64) {
	m := f.m
	if m == 0 {
		return
	}
	w := f.work
	clear(w)
	f.scatterColumn(j, w)
	f.applyL(w)
	copy(f.spike, w)
	f.spikeOK = true
	f.solveU(w, out)
}

func (f *luFactor) ftranDense(rhs, out []float64) {
	if f.m == 0 {
		return
	}
	w := f.work
	copy(w, rhs[:f.m])
	f.applyL(w)
	f.solveU(w, out)
}

// solveUT runs the Uᵀ forward pass from pivot position k0 on, in pivot
// order, with right-hand side cb (nil for zero): every off-diagonal entry of
// column c lies at an earlier position, so its w value is final when read.
// Positions before k0 must already hold their values.
func (f *luFactor) solveUT(k0 int, cb []float64) {
	w := f.work
	for k := k0; k < f.m; k++ {
		c := f.pcol[k]
		acc := 0.0
		if cb != nil {
			acc = cb[c]
		}
		ind, val := f.ucolInd[c], f.ucolVal[c]
		for idx, rr := range ind {
			if v := w[rr]; v != 0 {
				acc -= val[idx] * v
			}
		}
		w[f.prow[k]] = acc / f.diag[c]
	}
}

// btranTail finishes a BTRAN after the Uᵀ pass: the transposed row etas in
// reverse update order, then Lᵀ in reverse elimination order, and copies the
// result into out.
func (f *luFactor) btranTail(out []float64) {
	w := f.work
	for e := len(f.retaRow) - 1; e >= 0; e-- {
		if v := w[f.retaRow[e]]; v != 0 {
			for p := f.retaPtr[e]; p < f.retaPtr[e+1]; p++ {
				w[f.retaInd[p]] -= f.retaVal[p] * v
			}
		}
	}
	for e := len(f.lrunPiv) - 1; e >= 0; e-- {
		piv := f.lrunPiv[e]
		acc := w[piv]
		for p := f.lrunPtr[e+1] - 1; p >= f.lrunPtr[e]; p-- {
			if v := w[f.lrow[p]]; v != 0 {
				acc -= f.lval[p] * v
			}
		}
		w[piv] = acc
	}
	copy(out[:f.m], w)
}

func (f *luFactor) btranDense(cb, out []float64) {
	if f.m == 0 {
		return
	}
	f.solveUT(0, cb)
	f.btranTail(out)
}

// btranRow solves Bᵀ·out = e_r. Before r's pivot position t the right-hand
// side and every value read are zero, so each of those positions is 0/diag,
// a signed zero, and position t is 1/diag; the pass runs in full from t+1.
func (f *luFactor) btranRow(r int, out []float64) {
	if f.m == 0 {
		return
	}
	w := f.work
	t := int(f.posCol[r])
	for k := 0; k < t; k++ {
		w[f.prow[k]] = 0 / f.diag[f.pcol[k]]
	}
	w[f.prow[t]] = 1 / f.diag[r]
	f.solveUT(t+1, nil)
	f.btranTail(out)
}

// update absorbs the basis change that replaces basis position r with the
// column whose spike ftranColumn just cached. Following Forrest–Tomlin, the
// leaving column of U is replaced by the spike, its pivot position cycles to
// the end of the order, and the leaving pivot row — now the bottom row — is
// eliminated against the diagonals it crosses, yielding one row eta and the
// new bottom-right diagonal. The elimination is computed read-only first so
// a rejected update (vanishing diagonal) leaves the factors untouched for
// the caller's refactorize-and-retry path.
func (f *luFactor) update(r int, w []float64) bool {
	_ = w // the dense kernel pivots on w; FT consumes the cached spike
	if !f.spikeOK {
		return false
	}
	f.spikeOK = false
	m := f.m
	t := int(f.posCol[r])
	rr := int(f.prow[t])
	s := f.spike

	// Phase 1 (read-only): eliminate the displaced pivot row against the
	// shifted positions, collecting multipliers and the new diagonal.
	last := f.lastRow
	rInd, rVal := f.urowInd[rr], f.urowVal[rr]
	for idx, cc := range rInd {
		last[cc] = rVal[idx]
	}
	f.muInd, f.muVal = f.muInd[:0], f.muVal[:0]
	d := s[rr]
	smax := 0.0
	for _, v := range s {
		if av := math.Abs(v); av > smax {
			smax = av
		}
	}
	for k := t + 1; k < m; k++ {
		ck := f.pcol[k]
		piv := last[ck]
		last[ck] = 0
		if piv == 0 {
			continue
		}
		rk := f.prow[k]
		mu := piv / f.diag[ck]
		f.muInd = append(f.muInd, rk)
		f.muVal = append(f.muVal, mu)
		rI, rV := f.urowInd[rk], f.urowVal[rk]
		for idx, cc := range rI {
			last[cc] -= mu * rV[idx]
		}
		d -= mu * s[rk]
	}
	if math.Abs(d) < luPivotFloor || math.Abs(d) < ftRelTol*smax {
		// Unstable elimination: leave the (still valid) factors alone. The
		// lastRow scratch is already zero again — every surviving position
		// was visited and cleared above, and fills land on later positions.
		f.st.UpdatesRejected++
		return false
	}

	// Phase 2 (commit): drop the leaving column and the displaced row,
	// append the row eta, insert the spike column, and cycle the order.
	for _, rv := range f.ucolInd[r] {
		f.removeRowEntry(int(rv), int32(r))
	}
	f.ucolInd[r], f.ucolVal[r] = f.ucolInd[r][:0], f.ucolVal[r][:0]
	for _, cc := range f.urowInd[rr] {
		f.removeColEntry(cc, int32(rr))
	}
	f.urowInd[rr], f.urowVal[rr] = f.urowInd[rr][:0], f.urowVal[rr][:0]

	if len(f.muInd) > 0 {
		f.retaRow = append(f.retaRow, int32(rr))
		f.retaInd = append(f.retaInd, f.muInd...)
		f.retaVal = append(f.retaVal, f.muVal...)
		f.retaPtr = append(f.retaPtr, int32(len(f.retaInd)))
	}

	for i, v := range s {
		if v == 0 || i == rr {
			continue
		}
		f.ucolInd[r] = append(f.ucolInd[r], int32(i))
		f.ucolVal[r] = append(f.ucolVal[r], v)
		f.urowInd[i] = append(f.urowInd[i], int32(r))
		f.urowVal[i] = append(f.urowVal[i], v)
	}
	f.diag[r] = d

	for k := t; k < m-1; k++ {
		f.prow[k], f.pcol[k] = f.prow[k+1], f.pcol[k+1]
		f.posRow[f.prow[k]], f.posCol[f.pcol[k]] = int32(k), int32(k)
	}
	f.prow[m-1], f.pcol[m-1] = int32(rr), int32(r)
	f.posRow[rr], f.posCol[r] = int32(m-1), int32(m-1)

	f.nUpdates++
	f.st.Updates++
	return true
}

// removeRowEntry deletes column c from U row rw (swap-delete).
func (f *luFactor) removeRowEntry(rw int, c int32) {
	ind, val := f.urowInd[rw], f.urowVal[rw]
	for idx := range ind {
		if ind[idx] == c {
			last := len(ind) - 1
			ind[idx], val[idx] = ind[last], val[last]
			f.urowInd[rw], f.urowVal[rw] = ind[:last], val[:last]
			return
		}
	}
}

// removeColEntry deletes row rw from U column c (swap-delete).
func (f *luFactor) removeColEntry(c, rw int32) {
	ind, val := f.ucolInd[c], f.ucolVal[c]
	for idx := range ind {
		if ind[idx] == rw {
			last := len(ind) - 1
			ind[idx], val[idx] = ind[last], val[last]
			f.ucolInd[c], f.ucolVal[c] = ind[:last], val[:last]
			return
		}
	}
}

// refactorize runs the right-looking Markowitz-threshold elimination on the
// current basis. Returns false on a numerically singular basis or a
// mid-factorization abort.
func (f *luFactor) refactorize() bool {
	m := f.m
	f.resetFactors()
	f.st.Refactorizations++
	if m == 0 {
		return true
	}
	basisNnz := f.buildWorking()

	for k := 0; k < m; k++ {
		if k&15 == 0 && f.abort != nil && f.abort() {
			return false
		}
		pr, pc, pv, ok := f.selectPivot()
		if !ok {
			return false
		}
		f.eliminate(k, pr, pc, pv)
	}

	nnzLU := len(f.lval) + m
	for c := 0; c < m; c++ {
		nnzLU += len(f.ucolInd[c])
	}
	if basisNnz > 0 {
		if ratio := float64(nnzLU) / float64(basisNnz); ratio > f.st.FillRatio {
			f.st.FillRatio = ratio
		}
	}
	return true
}

// buildWorking assembles the active working matrix from the basis columns,
// buckets every column by its count, and returns the nonzero count.
func (f *luFactor) buildWorking() int {
	in := f.in
	m := f.m
	for i := 0; i < m; i++ {
		f.fRowInd[i] = f.fRowInd[i][:0]
		f.fRowVal[i] = f.fRowVal[i][:0]
		f.fColRows[i] = f.fColRows[i][:0]
		f.fColCnt[i] = 0
		f.fRowActive[i] = true
		f.fColActive[i] = true
	}
	nnz := 0
	add := func(rw int32, c int32, v float64) {
		f.fRowInd[rw] = append(f.fRowInd[rw], c)
		f.fRowVal[rw] = append(f.fRowVal[rw], v)
		f.fColRows[c] = append(f.fColRows[c], rw)
		f.fColCnt[c]++
		nnz++
	}
	for c := 0; c < m; c++ {
		j := int(f.basic[c])
		if j >= in.nStruct {
			add(int32(j-in.nStruct), int32(c), 1)
			continue
		}
		for p := in.colPtr[j]; p < in.colPtr[j+1]; p++ {
			add(in.rowIdx[p], int32(c), in.val[p])
		}
	}
	clear(f.fBucket)
	f.fBucketN = [luMaxBucket + 2]int32{}
	for b := range f.fBucketLo {
		f.fBucketLo[b] = f.fWords
	}
	for c := 0; c < m; c++ {
		f.bucketAdd(int32(c), bucketOf(f.fColCnt[c]))
	}
	return nnz
}

// bucketOf is the bucket of a column with count cnt.
func bucketOf(cnt int32) int {
	if cnt > luMaxBucket {
		return luMaxBucket + 1
	}
	return int(cnt)
}

func (f *luFactor) bucketAdd(c int32, b int) {
	wd := int(c >> 6)
	f.fBucket[b*f.fWords+wd] |= 1 << (uint(c) & 63)
	f.fBucketN[b]++
	if wd < f.fBucketLo[b] {
		f.fBucketLo[b] = wd
	}
}

func (f *luFactor) bucketRemove(c int32, b int) {
	f.fBucket[b*f.fWords+int(c>>6)] &^= 1 << (uint(c) & 63)
	f.fBucketN[b]--
}

// addCount changes active column c's count by delta and re-buckets it.
func (f *luFactor) addCount(c int32, delta int32) {
	old := f.fColCnt[c]
	f.fColCnt[c] = old + delta
	if bo, bn := bucketOf(old), bucketOf(old+delta); bo != bn {
		f.bucketRemove(c, bo)
		f.bucketAdd(c, bn)
	}
}

// appendBucket appends bucket b's columns in ascending order to f.fCand
// until it holds luPivotCols columns.
func (f *luFactor) appendBucket(b int) {
	words := f.fBucket[b*f.fWords : (b+1)*f.fWords]
	for wd := f.fBucketLo[b]; wd < len(words); wd++ {
		word := words[wd]
		if word == 0 {
			if f.fBucketLo[b] == wd {
				f.fBucketLo[b] = wd + 1
			}
			continue
		}
		for word != 0 {
			c := int32(wd<<6 | bits.TrailingZeros64(word))
			f.fCand = append(f.fCand, c)
			if len(f.fCand) == luPivotCols {
				return
			}
			word &= word - 1
		}
	}
}

// entryValue scans row rw for column c; explicit zeros count as present.
func (f *luFactor) entryValue(rw int32, c int32) float64 {
	ind := f.fRowInd[rw]
	for idx := range ind {
		if ind[idx] == c {
			return f.fRowVal[rw][idx]
		}
	}
	return 0
}

// selectPivot runs the Markowitz-threshold search: examine the lowest-count
// active columns (up to luPivotCols of them, ordered by count, then column
// id), admit entries within markowitzThreshold of their column's magnitude,
// and pick the admitted entry minimizing (rowCount−1)·(colCount−1), larger
// magnitude breaking ties. The candidates come from the count buckets; only
// when fewer than luPivotCols columns have a bucket of their own are the
// overflow columns ranked, by insertion. Falls back to a full column scan
// when the low-count columns offer nothing, and reports failure — a
// singular basis — when no column does.
func (f *luFactor) selectPivot() (int32, int32, float64, bool) {
	if f.fBucketN[0] > 0 {
		return 0, 0, 0, false // an active column without entries: structurally singular
	}
	f.fCand = f.fCand[:0]
	for b := 1; b <= luMaxBucket && len(f.fCand) < luPivotCols; b++ {
		if f.fBucketN[b] > 0 {
			f.appendBucket(b)
		}
	}
	if over := luMaxBucket + 1; len(f.fCand) < luPivotCols && f.fBucketN[over] > 0 {
		base := len(f.fCand)
		words := f.fBucket[over*f.fWords : (over+1)*f.fWords]
		for wd, word := range words {
			for ; word != 0; word &= word - 1 {
				c := int32(wd<<6 | bits.TrailingZeros64(word))
				cnt := f.fColCnt[c]
				pos := len(f.fCand)
				if pos < luPivotCols {
					f.fCand = append(f.fCand, c)
				} else if cnt < f.fColCnt[f.fCand[luPivotCols-1]] {
					pos = luPivotCols - 1
					f.fCand[pos] = c
				} else {
					continue
				}
				for pos > base && f.fColCnt[f.fCand[pos]] < f.fColCnt[f.fCand[pos-1]] {
					f.fCand[pos], f.fCand[pos-1] = f.fCand[pos-1], f.fCand[pos]
					pos--
				}
			}
		}
	}
	if pr, pc, pv, ok := f.bestInColumns(f.fCand); ok {
		return pr, pc, pv, true
	}
	// Rare fallback: every low-count column was numerically hopeless; scan
	// all active columns before declaring the basis singular.
	f.fCand = f.fCand[:0]
	for c := 0; c < f.m; c++ {
		if f.fColActive[c] {
			f.fCand = append(f.fCand, int32(c))
		}
	}
	return f.bestInColumns(f.fCand)
}

// bestInColumns applies the threshold test and Markowitz cost over the given
// candidate columns, reading each column's active entries once.
func (f *luFactor) bestInColumns(cols []int32) (int32, int32, float64, bool) {
	bestRow, bestCol := int32(-1), int32(-1)
	bestVal := 0.0
	bestCost := math.Inf(1)
	for _, c := range cols {
		rows, vals := f.fEntRow[:0], f.fEntVal[:0]
		colMax := 0.0
		for _, rw := range f.fColRows[c] {
			if !f.fRowActive[rw] {
				continue
			}
			v := f.entryValue(rw, c)
			rows, vals = append(rows, rw), append(vals, v)
			if av := math.Abs(v); av > colMax {
				colMax = av
			}
		}
		f.fEntRow, f.fEntVal = rows, vals
		if colMax < luPivotFloor {
			continue
		}
		thresh := markowitzThreshold * colMax
		if thresh < luPivotFloor {
			thresh = luPivotFloor
		}
		ccnt := float64(f.fColCnt[c] - 1)
		for i, rw := range rows {
			v := vals[i]
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

// eliminate performs elimination step k on pivot (pr, pc) with value pv: the
// pivot row's remainder becomes U row k, and every other active row holding
// column pc is updated, recording its multiplier as an eta of the step's L
// run.
func (f *luFactor) eliminate(k int, pr, pc int32, pv float64) {
	f.prow[k], f.pcol[k] = pr, pc
	f.posRow[pr], f.posCol[pc] = int32(k), int32(k)
	f.diag[pc] = pv

	// The pivot row's surviving entries are final U entries; spread them
	// into the scratch for the row updates below.
	rInd, rVal := f.fRowInd[pr], f.fRowVal[pr]
	for idx, cc := range rInd {
		if cc == pc {
			continue
		}
		v := rVal[idx]
		f.ucolInd[cc] = append(f.ucolInd[cc], pr)
		f.ucolVal[cc] = append(f.ucolVal[cc], v)
		f.urowInd[pr] = append(f.urowInd[pr], cc)
		f.urowVal[pr] = append(f.urowVal[pr], v)
		f.addCount(cc, -1)
		f.fScratch[cc] = v
		f.fInPiv[cc] = true
	}
	f.fRowActive[pr] = false
	f.fColActive[pc] = false
	f.bucketRemove(pc, bucketOf(f.fColCnt[pc]))

	runStart := len(f.lrow)
	for _, rw := range f.fColRows[pc] {
		if !f.fRowActive[rw] {
			continue
		}
		// Extract and remove this row's pivot-column entry.
		ind, val := f.fRowInd[rw], f.fRowVal[rw]
		vi := 0.0
		for idx := range ind {
			if ind[idx] == pc {
				vi = val[idx]
				last := len(ind) - 1
				ind[idx], val[idx] = ind[last], val[last]
				f.fRowInd[rw], f.fRowVal[rw] = ind[:last], val[:last]
				break
			}
		}
		if vi == 0 {
			continue // explicit zero from earlier cancellation
		}
		l := vi / pv
		f.lrow = append(f.lrow, rw)
		f.lval = append(f.lval, l)
		// row rw -= l · (pivot row remainder), fills appended.
		ind, val = f.fRowInd[rw], f.fRowVal[rw]
		for idx, cc := range ind {
			if f.fInPiv[cc] {
				val[idx] -= l * f.fScratch[cc]
				f.fVisited[cc] = true
			}
		}
		for idx, cc := range f.urowInd[pr] {
			if f.fVisited[cc] {
				f.fVisited[cc] = false
				continue
			}
			fillV := -l * f.urowVal[pr][idx]
			f.fRowInd[rw] = append(f.fRowInd[rw], cc)
			f.fRowVal[rw] = append(f.fRowVal[rw], fillV)
			f.fColRows[cc] = append(f.fColRows[cc], rw)
			f.addCount(cc, 1)
		}
	}
	if len(f.lrow) > runStart {
		f.lrunPiv = append(f.lrunPiv, pr)
		f.lrunPtr = append(f.lrunPtr, int32(len(f.lrow)))
	}
	for _, cc := range f.urowInd[pr] {
		f.fInPiv[cc] = false
		f.fScratch[cc] = 0
	}
}
