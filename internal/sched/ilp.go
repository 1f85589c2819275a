package sched

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"flowsyn/internal/milp"
	"flowsyn/internal/seqgraph"
)

// MaxExactOps is the largest operation count for which the exact ILP is
// attempted; larger assays return the list-scheduler incumbent as the
// time-limit best effort (the paper's own solver capped out from RA30 on).
// The cap sat at 14 while the solver kept a dense basis inverse; the sparse
// LU kernel with Forrest–Tomlin updates, devex pricing, node-level bound
// propagation, and the tightened formulation below (time-window variable
// bounds, per-pair big-M, capacity and critical-path bounds on tE) pushed
// the exactly solvable range to 20 operations (BENCH_pr4.json). Turning the
// search into cut-and-branch — root Gomory/cover cutting planes, pseudo-cost
// branching with reliability initialization, incremental pricing with a
// bound-flipping dual ratio test, and RINS/diving node heuristics — lifted
// it to 30 (BENCH_pr6.json). The storage-side dual-bound program — fixed
// diff rows and conflict-graph clique cuts from must-overlap operation
// pairs, and local branching around the incumbent — lifts it to 40;
// BENCH_pr8.json records the seeded random-DAG gap closure.
const MaxExactOps = 40

// ILPOptions configures the exact scheduling-and-binding formulation.
type ILPOptions struct {
	// Devices is |D|, the number of identical devices.
	Devices int
	// Transport is u_c in seconds.
	Transport int
	// Alpha and Beta weight makespan and storage time in the paper's
	// objective (6): minimize α·tE + β·Σ u_{i,j}. Zero values default to
	// α=100, β=1 (makespan-dominant, as in the paper). Set Beta to a
	// negative value to force pure makespan optimization (β = 0).
	Alpha, Beta float64
	// TimeLimit caps branch and bound, mirroring the paper's 30-minute
	// solver cap. Zero means 30 s (sensible for tests and examples).
	TimeLimit time.Duration
	// WarmStart seeds branch and bound with a list-scheduler incumbent.
	// Strongly recommended; enabled by Synthesize-level callers.
	WarmStart bool
	// Warm, if non-nil, is a prior schedule of this assay — possibly of an
	// edited version of it. Its device binding and per-device order are
	// re-timed on the current graph (Retime) and the result, when it
	// beats the list-scheduler incumbent on the objective, seeds the solve
	// instead: the incremental re-synthesis hook of the service layer.
	Warm *Schedule
	// Progress, if non-nil, receives one event per improving incumbent the
	// exact solve installs (including the warm start). It is called
	// synchronously from solver workers; implementations must be fast and
	// non-blocking.
	Progress func(ProgressEvent)
	// Pin, if non-nil, freezes an executed prefix for online recovery: pinned
	// operations enter the formulation with fixed time boxes and assignment
	// rows, forbidden devices are excluded for everything else, and no
	// re-planned operation may start before the fault-detection instant.
	// Device symmetry breaking is disabled (pinned bindings already name
	// concrete devices) and reconstruction re-times only the suffix.
	Pin *Pin
	// Storage selects the storage strategy (nil = distributed channels).
	// The incumbent, the warm retimes and the reconstruction all run under
	// the model, so the returned schedule is strategy-feasible; for the
	// dedicated-unit strategy the formulation is additionally tightened
	// with the strategy's storage rows (doubled transport on cross-device
	// edges, a port-capacity bound on tE), so the exact solve optimizes
	// under port contention rather than relaxing it away.
	Storage StorageModel
}

// ProgressEvent reports one improving incumbent of the exact solve.
type ProgressEvent struct {
	// Makespan is the incumbent's model makespan tE in seconds.
	Makespan int
	// Objective is α·tE + β·Σu at the incumbent.
	Objective float64
	// Nodes counts the branch-and-bound nodes expanded when it was found
	// (0 for the initial warm start).
	Nodes int
}

// ObjectiveScore ranks a schedule under the paper's objective (6) with the
// default weights (α=100, β=1; β=0 under TimeOnly) — the single source of
// truth for every default-weight comparison: the heuristic-path warm-start
// race in core, the service layer, and tests.
func ObjectiveScore(s *Schedule, mode Mode) float64 {
	alpha, beta := ILPOptions{}.weights()
	if mode == TimeOnly {
		beta = 0
	}
	return alpha*float64(s.Makespan) + beta*float64(s.StorageTime())
}

// weights normalizes the objective weights of the paper's objective (6):
// zero values default to α=100, β=1 (makespan-dominant), and a negative Beta
// selects the pure-makespan baseline (β = 0). Shared by the ILP formulation
// and the portfolio's arm-selection score so both always agree.
func (o ILPOptions) weights() (alpha, beta float64) {
	alpha, beta = o.Alpha, o.Beta
	if alpha == 0 {
		alpha = 100
	}
	if beta == 0 {
		beta = 1
	} else if beta < 0 {
		beta = 0
	}
	return alpha, beta
}

// ILPInfo reports solver diagnostics alongside an ILP schedule.
type ILPInfo struct {
	// Status is the MILP solver verdict (optimal, time-limit, ...).
	Status milp.Status
	// Objective is α·tE + β·Σu at the returned schedule.
	Objective float64
	// Nodes and Iterations count branch-and-bound nodes and simplex pivots.
	Nodes, Iterations int
	// Runtime is the wall-clock solve time (the paper's t_s column).
	Runtime time.Duration
	// ModelStats summarizes the formulation size.
	ModelStats milp.Stats
	// Solver carries the full MILP solver diagnostics: warm-start rate,
	// presolve reductions, MIP gap, and worker count.
	Solver milp.SolveStats
	// Winner names the engine whose schedule was returned: "ilp" for the
	// exact solution, "list" for the list-scheduler incumbent (size cap,
	// solver fallback, or a portfolio race won by the heuristic arm).
	Winner string
}

// ILPSchedule builds and solves the paper's scheduling-and-binding ILP
// (Table 1, constraints (1)–(5), objective (6)) with the in-repo MILP
// solver and returns a valid schedule.
//
// Formulation notes: the disjunctive non-overlapping constraint (4) is
// linearized with order binaries y_{ij} and device-difference binaries
// diff_{ij} (big-M), and the storage terms u_{i,j} are lower-bounded by
// t^s_j − t^e_i whenever the edge crosses devices, exactly capturing the
// paper's Σ u_{i,j} over (o_i,o_j) ∈ E with d_i ≠ d_j. Device symmetry is
// broken by restricting operation i to devices 0..i.
//
// Solutions are reconstructed by re-timing the ILP's binding and per-device
// order with the exact transport semantics shared with the list scheduler,
// so the returned schedule always passes Validate.
func ILPSchedule(g *seqgraph.Graph, opts ILPOptions) (*Schedule, *ILPInfo, error) {
	return ILPScheduleContext(context.Background(), g, opts)
}

// ILPScheduleContext is ILPSchedule bounded by a context. The TimeLimit cap
// still yields the best-effort incumbent, but cancelling ctx aborts the whole
// solve and returns ctx.Err() promptly (the branch-and-bound loop observes
// cancellation within one node relaxation).
func ILPScheduleContext(ctx context.Context, g *seqgraph.Graph, opts ILPOptions) (*Schedule, *ILPInfo, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if opts.Devices < 1 {
		return nil, nil, fmt.Errorf("sched: need at least one device, got %d", opts.Devices)
	}
	if opts.Transport < 1 {
		return nil, nil, fmt.Errorf("sched: transport time must be >= 1, got %d", opts.Transport)
	}
	alpha, beta := opts.weights()
	limit := opts.TimeLimit
	if limit == 0 {
		limit = 30 * time.Second
	}

	// Incumbent for warm start and horizon.
	incumbent, err := ListScheduleContext(ctx, g, ListOptions{
		Devices: opts.Devices, Transport: opts.Transport, Mode: TimeAndStorage, Pin: opts.Pin,
		Storage: opts.Storage,
	})
	if err != nil {
		return nil, nil, err
	}
	// Incremental re-synthesis: a prior schedule's binding and order,
	// re-timed on the (possibly edited) graph, replaces the list incumbent
	// when it scores better — the unchanged prefix of the assay then enters
	// the solve with its proven structure instead of a cold heuristic guess.
	// Under a pin the retime is prefix-preserving instead.
	score := func(s *Schedule) float64 {
		return alpha*float64(s.Makespan) + beta*float64(s.StorageTime())
	}
	if opts.Warm != nil {
		ws, werr := Retime(g, opts.Warm, opts.Devices, opts.Transport, opts.Pin, opts.Storage)
		if werr == nil && score(ws) < score(incumbent) {
			incumbent = ws
		}
	}

	// The dense in-repo simplex handles the exact formulation up to roughly
	// IVD size (the paper's own Gurobi runs hit their 30-minute cap from
	// RA30 upward, Table 2 column t_s). Beyond that the list-scheduler
	// incumbent is returned directly as the best-effort result.
	if n := g.NumOps(); n > MaxExactOps {
		if opts.Progress != nil {
			opts.Progress(ProgressEvent{Makespan: incumbent.Makespan, Objective: score(incumbent)})
		}
		return incumbent, &ILPInfo{
			Status:    milp.StatusTimeLimit,
			Objective: score(incumbent),
			// No solve ran, so no dual bound exists: Gap -1 ("n/a"), not the
			// zero value's proven-optimum claim.
			Solver: milp.SolveStats{Gap: -1},
			Winner: "list",
		}, nil
	}
	sm := buildSchedModel(g, opts, incumbent, alpha, beta)

	solveOpts := milp.SolveOptions{TimeLimit: limit, Incumbent: sm.warm, Conflicts: sm.conflicts}
	// With integral objective weights the model's objective is integral at
	// every integer-feasible point: once the binaries are fixed, the
	// remaining ts/te/tE system is a difference-constraint (network) matrix
	// with integral data — the storage columns are singletons appended to it,
	// so the block stays totally unimodular and the continuous minimum lands
	// on an integral vertex. That lets the solver round node bounds up and
	// cut at incumbent-1, which is what turns near-optimal incumbents into
	// optimality proofs.
	if alpha == math.Trunc(alpha) && beta == math.Trunc(beta) {
		solveOpts.ObjIntegral = true
	}
	// Branch on the master decisions first: device assignments determine the
	// diff indicators through the dge/dle rows (node propagation fixes them
	// as soon as both endpoints' assignments settle), and diff in turn gates
	// storage and no-overlap. Ordering binaries resolve last — by then most
	// are already forced. This steers the dual bound toward the storage term,
	// which is exactly the part the LP relaxation underestimates.
	prio := make(map[int]int)
	for _, row := range sm.assign {
		for _, v := range row {
			prio[v.ID()] = 2
		}
	}
	for _, v := range sm.diff {
		prio[v.ID()] = 1
	}
	solveOpts.BranchPriority = func(v milp.Var) int { return prio[v.ID()] }
	if opts.Progress != nil {
		tEID := sm.tE.ID()
		progress := opts.Progress
		solveOpts.OnIncumbent = func(x []float64, obj float64, nodes int) {
			progress(ProgressEvent{Makespan: int(math.Round(x[tEID])), Objective: obj, Nodes: nodes})
		}
	}
	startT := time.Now()
	sol, err := milp.SolveContext(ctx, sm.m, solveOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("sched: solving scheduling ILP: %w", err)
	}
	if err := ctx.Err(); err != nil {
		// The caller cancelled the whole synthesis: propagate instead of
		// falling back to the best-effort incumbent.
		return nil, nil, err
	}
	info := &ILPInfo{
		Status:     sol.Status,
		Nodes:      sol.Nodes,
		Iterations: sol.Iterations,
		Runtime:    time.Since(startT),
		ModelStats: sm.m.Stats(),
		Solver:     sol.Stats,
		Winner:     "ilp",
	}
	if !sol.Feasible() {
		// Fall back to the list schedule (best effort), as the paper falls
		// back to the solver's best incumbent at the time limit.
		info.Objective = alpha*float64(incumbent.Makespan) + beta*float64(incumbent.StorageTime())
		info.Winner = "list"
		return incumbent, info, nil
	}
	info.Objective = sol.Objective

	schedule := reconstruct(g, opts, sol, sm.ts, sm.assign)
	if err := schedule.Validate(); err != nil {
		return nil, nil, fmt.Errorf("sched: ILP reconstruction invalid: %w", err)
	}
	// Keep whichever of {reconstructed, incumbent} scores better on the
	// paper's objective, since reconstruction re-times with the stricter
	// transport semantics.
	scoreRec := alpha*float64(schedule.Makespan) + beta*float64(schedule.StorageTime())
	scoreInc := alpha*float64(incumbent.Makespan) + beta*float64(incumbent.StorageTime())
	if scoreInc < scoreRec {
		info.Winner = "list"
		return incumbent, info, nil
	}
	return schedule, info, nil
}

// schedModel bundles the built scheduling-and-binding formulation with the
// variable handles reconstruction and the warm start need.
type schedModel struct {
	m       *milp.Model
	ts, te  []milp.Var
	assign  [][]milp.Var
	diff    map[[2]int]milp.Var
	order   map[[2]int]milp.Var
	storage []milp.Var
	tE      milp.Var
	warm    []float64
	// conflicts are binary-literal pairs that can never both hold, derived
	// from must-overlap operation pairs; they seed the solver's conflict
	// graph for clique separation.
	conflicts [][2]milp.ConflictLiteral
}

// buildSchedModel lowers the paper's Table 1 formulation — tightened with
// time-window variable bounds, per-pair big-M coefficients, and capacity /
// critical-path lower bounds on the makespan — into a MILP model, plus the
// incumbent-derived warm start when opts.WarmStart is set.
func buildSchedModel(g *seqgraph.Graph, opts ILPOptions, incumbent *Schedule, alpha, beta float64) *schedModel {
	// Optimality-preserving horizon: some optimal schedule scores no worse
	// than the incumbent, and α·tE never exceeds the full objective, so
	// tE ≤ (α·mk + β·storage)/α holds for at least one optimum. Clamping the
	// horizon there (instead of the old mk + transport·edges slack) excludes
	// only schedules provably no better than the incumbent — and every
	// big-M and ts/te window below scales with the horizon, so the clamp is
	// what keeps the LP relaxation tight enough for optimality proofs.
	horizon := float64(incumbent.Makespan) +
		math.Floor(beta*float64(incumbent.StorageTime())/alpha)

	n := g.NumOps()
	m := milp.NewModel()

	// Head/tail time windows from pure-duration longest paths: es_i is the
	// earliest start of operation i, tail_i the least remaining work from
	// its start to the end of the assay. They tighten the ts/te variable
	// boxes and shrink every big-M below to the pair it guards, which is
	// what lifts the LP relaxation from near-vacuous to useful — without
	// them the solver branched big-M disjunctions against a bound that never
	// moved (the old IVD time-limit failure mode).
	es, tail := timeWindows(g)
	// Two valid lower bounds on the makespan: the critical path, and the
	// device-capacity bound ⌈Σ durations / |D|⌉ (ops on one device never
	// overlap, so total work fits under |D|·tE).
	tELo := math.Ceil(float64(g.TotalWork()) / float64(opts.Devices))
	// Under a pin the plain capacity bound is nearly vacuous: forbidden
	// devices take no re-planned work, the executed prefix sits at fixed
	// times, and no free operation starts before the fault instant. Each
	// allowed device k first comes free at r_k = max(Time, last pinned end
	// on k) — every pinned interval starts before Time, so at most one spans
	// it — and the free work then packs serially per device, so some device
	// finishes no earlier than the average (Σ r_k + Σ free durations)/|A|.
	// This is what lets the recovery LP prove the suffix at the root instead
	// of grinding the generic bound up node by node.
	if opts.Pin != nil {
		allowed := 0
		avail := 0.0
		for k := 0; k < opts.Devices; k++ {
			if opts.Pin.Forbidden[k] {
				continue
			}
			allowed++
			r := float64(opts.Pin.Time)
			for _, a := range opts.Pin.Assignments {
				if a.Device == k && float64(a.End) > r {
					r = float64(a.End)
				}
			}
			avail += r
		}
		isPinned := opts.Pin.pinned(n)
		freeWork := 0.0
		for i := 0; i < n; i++ {
			if !isPinned[i] {
				freeWork += float64(g.Op(seqgraph.OpID(i)).Duration)
			}
		}
		if allowed > 0 && freeWork > 0 {
			if b := math.Ceil((avail + freeWork) / float64(allowed)); b > tELo {
				tELo = b
			}
		}
		// The schedule also never ends before the executed prefix does.
		for _, a := range opts.Pin.Assignments {
			if e := float64(a.End); e > tELo {
				tELo = e
			}
		}
	}
	for i := 0; i < n; i++ {
		if cp := es[i] + tail[i]; cp > tELo {
			tELo = cp
		}
	}

	// Pinned prefix: each pinned operation gets a degenerate [Start,Start]
	// time box and a fixed assignment row below; everything else is floored
	// at the fault-detection instant. Both tightenings stay inside the
	// formula boxes (a feasible prior schedule has es_i ≤ Start_i ≤
	// horizon − tail_i), so every big-M derived from the formula bounds
	// remains valid.
	var pinnedBy []*Assignment
	if opts.Pin != nil {
		pinnedBy = make([]*Assignment, n)
		for idx := range opts.Pin.Assignments {
			a := &opts.Pin.Assignments[idx]
			pinnedBy[a.Op] = a
		}
	}

	// Variables. The effective per-op time boxes (after pin degeneracy and
	// the fault-detection floor) are kept for must-overlap detection below.
	ts := make([]milp.Var, n)
	te := make([]milp.Var, n)
	tsLoA := make([]float64, n)
	tsHiA := make([]float64, n)
	durA := make([]float64, n)
	assign := make([][]milp.Var, n) // assign[i][k] = s_{i,k}
	for i := 0; i < n; i++ {
		op := g.Op(seqgraph.OpID(i))
		dur := float64(op.Duration)
		tsLo := es[i]
		tsHi := math.Max(es[i], horizon-tail[i])
		if pinnedBy != nil {
			if a := pinnedBy[i]; a != nil {
				tsLo, tsHi = float64(a.Start), float64(a.Start)
			} else if ft := float64(opts.Pin.Time); ft > tsLo {
				tsLo = ft
				if tsHi < tsLo {
					tsHi = tsLo
				}
			}
		}
		tsLoA[i], tsHiA[i], durA[i] = tsLo, tsHi, dur
		ts[i] = m.NewContinuous(fmt.Sprintf("ts_%s", op.Name), tsLo, tsHi)
		te[i] = m.NewContinuous(fmt.Sprintf("te_%s", op.Name), tsLo+dur, tsHi+dur)
		assign[i] = make([]milp.Var, opts.Devices)
		for k := 0; k < opts.Devices; k++ {
			assign[i][k] = m.NewBinary(fmt.Sprintf("s_%s_d%d", op.Name, k))
		}
	}
	tE := m.NewContinuous("tE", tELo, horizon)
	// Per-pair big-M coefficients from the effective time boxes: the smallest
	// constants that still deactivate their constraints. Under a pin the
	// effective boxes are far tighter than the formula windows (degenerate for
	// the executed prefix, floored at the fault instant for the suffix), and
	// since M only needs to cover the declared variable bounds, deriving it
	// from tsLoA/tsHiA is both valid and what keeps the recovery LP tight —
	// with formula-window Ms the pinned model branched ~1.8k nodes where the
	// unpinned one proves at the root. Without a pin the boxes coincide with
	// the formula windows, so unpinned models are bit-identical.
	teHi := func(i int) float64 {
		return tsHiA[i] + durA[i]
	}
	pairM := func(i, j int) float64 {
		// Bounds te_i − ts_j over the boxes: the M deactivating te_i ≤ ts_j.
		return math.Max(0, teHi(i)-tsLoA[j])
	}

	pairIdx := func(i, j int) (int, int) {
		if i > j {
			return j, i
		}
		return i, j
	}
	diff := make(map[[2]int]milp.Var)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			diff[[2]int{i, j}] = m.NewBinary(fmt.Sprintf("diff_%d_%d", i, j))
		}
	}

	// (1) Uniqueness + device symmetry breaking. Under a pin the symmetry
	// rows are dropped (the pinned bindings already name concrete devices,
	// and may legally violate the first-use numbering); pinned operations
	// get their device fixed outright and forbidden devices are closed to
	// the rest.
	for i := 0; i < n; i++ {
		e := milp.NewExpr(0)
		for k := 0; k < opts.Devices; k++ {
			e.Add(assign[i][k], 1)
		}
		m.AddEQ(fmt.Sprintf("uniq_%d", i), *e, 1)
		if pinnedBy == nil {
			for k := i + 1; k < opts.Devices; k++ {
				m.AddEQ(fmt.Sprintf("sym_%d_%d", i, k), milp.VarExpr(assign[i][k]), 0)
			}
			continue
		}
		if a := pinnedBy[i]; a != nil {
			m.AddEQ(fmt.Sprintf("pin_%d", i), milp.VarExpr(assign[i][a.Device]), 1)
			continue
		}
		for k := 0; k < opts.Devices; k++ {
			if opts.Pin.Forbidden[k] {
				m.AddEQ(fmt.Sprintf("forbid_%d_%d", i, k), milp.VarExpr(assign[i][k]), 0)
			}
		}
	}

	// (2) Duration: te_i = ts_i + u_i.
	for i := 0; i < n; i++ {
		dur := float64(g.Op(seqgraph.OpID(i)).Duration)
		m.AddEQ(fmt.Sprintf("dur_%d", i),
			*milp.NewExpr(0).Add(te[i], 1).Add(ts[i], -1), dur)
	}

	// diff_{ij} definition: diff >= |s_ik - s_jk| and diff <= 2 - s_ik - s_jk.
	// Iterated in pair order (not map order) so the constraint layout — and
	// with it the solver's pivot trajectory — is identical run to run.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := diff[[2]int{i, j}]
			for k := 0; k < opts.Devices; k++ {
				m.AddLE(fmt.Sprintf("dge1_%d_%d_%d", i, j, k),
					*milp.NewExpr(0).Add(assign[i][k], 1).Add(assign[j][k], -1).Add(d, -1), 0)
				m.AddLE(fmt.Sprintf("dge2_%d_%d_%d", i, j, k),
					*milp.NewExpr(0).Add(assign[j][k], 1).Add(assign[i][k], -1).Add(d, -1), 0)
				m.AddLE(fmt.Sprintf("dle_%d_%d_%d", i, j, k),
					*milp.NewExpr(0).Add(d, 1).Add(assign[i][k], 1).Add(assign[j][k], 1), 2)
			}
		}
	}

	// Must-overlap tightening: when two operations' effective time boxes
	// force their execution intervals to intersect in every feasible point
	// (earliest end beyond the other's latest start, both ways), they cannot
	// share a device — on a shared device dle forces diff = 0 and the no1/no2
	// disjunction then demands an impossible ordering. Fixing diff = 1
	// outright is therefore valid at every integer point, and the derived
	// conflict literals seed the solver's clique separation: per-device
	// assignment pairs (s_ik, s_jk), and for every third operation p the
	// complement pair (¬diff_pi, ¬diff_pj) — p co-located with both i and j
	// would co-locate i and j. Cliques of mutually-overlapping observers
	// force fractional assignments apart, which is what lets the
	// u ≥ u_c·diff storage floors reach the root dual bound.
	var conflicts [][2]milp.ConflictLiteral
	adjacent := make(map[[2]int]bool, g.NumEdges())
	for _, e := range g.Edges() {
		a, b := pairIdx(int(e.Parent), int(e.Child))
		adjacent[[2]int{a, b}] = true
	}
	mo := mustOverlapPairs(n, tsLoA, tsHiA, durA, func(i, j int) bool {
		a, b := pairIdx(i, j)
		return adjacent[[2]int{a, b}]
	})
	for _, pr := range mo {
		i, j := pr[0], pr[1]
		// Under a pin the executed prefix collapses to degenerate boxes, so
		// prefix operations that ran concurrently always must-overlap — but
		// their assignments are fixed by the pin rows, so the diff fixing and
		// conflict literals would only bulk up the recovery model (and its
		// conflict graph) without moving the dual bound. Keep the tightening
		// for the free suffix only.
		if pinnedBy != nil && (pinnedBy[i] != nil || pinnedBy[j] != nil) {
			continue
		}
		d := diff[[2]int{i, j}]
		m.AddEQ(fmt.Sprintf("mo_%d_%d", i, j), milp.VarExpr(d), 1)
		for k := 0; k < opts.Devices; k++ {
			conflicts = append(conflicts, [2]milp.ConflictLiteral{
				{V: assign[i][k]}, {V: assign[j][k]},
			})
		}
		for p := 0; p < n; p++ {
			if p == i || p == j {
				continue
			}
			a1, b1 := pairIdx(p, i)
			a2, b2 := pairIdx(p, j)
			conflicts = append(conflicts, [2]milp.ConflictLiteral{
				{V: diff[[2]int{a1, b1}], Neg: true},
				{V: diff[[2]int{a2, b2}], Neg: true},
			})
		}
	}

	// (3) Precedence with transport: ts_j - te_i >= uc·diff_{ij}, plus the
	// storage terms u_{i,j} >= (ts_j - te_i) - M(1 - diff_{ij}) with M the
	// largest gap the time windows admit for this edge.
	//
	// Strategy storage rows: under the dedicated-unit strategy every
	// cross-device fluid transits the unit — a full-u_c store through the
	// port plus a full-u_c fetch back out — so the cross-device gap
	// coefficient doubles, the storage floor doubles with it, and the
	// single port must fit all those 2·u_c access windows disjointly
	// within [0, tE]. These rows are generated through the strategy, which
	// is what makes the exact solve optimize under port contention instead
	// of relaxing it to free channel caching.
	edgeUC := float64(opts.Transport)
	dedicatedUnit := opts.Storage != nil && opts.Storage.Serialized() && opts.Storage.ChannelSlots() == 0
	if dedicatedUnit {
		edgeUC = 2 * float64(opts.Transport)
	}
	storage := make([]milp.Var, 0, g.NumEdges())
	for _, e := range g.Edges() {
		i, j := int(e.Parent), int(e.Child)
		a, b := pairIdx(i, j)
		d := diff[[2]int{a, b}]
		m.AddGE(fmt.Sprintf("prec_%d_%d", i, j),
			*milp.NewExpr(0).Add(ts[j], 1).Add(te[i], -1).Add(d, -edgeUC), 0)
		// u >= (ts_j - te_i) - M(1 - diff):
		// u - ts_j + te_i - M·diff >= -M.
		mS := math.Max(0, tsHiA[j]-(tsLoA[i]+durA[i]))
		u := m.NewContinuous(fmt.Sprintf("u_%d_%d", i, j), 0, mS)
		m.AddGE(fmt.Sprintf("stor_%d_%d", i, j),
			*milp.NewExpr(0).Add(u, 1).Add(ts[j], -1).Add(te[i], 1).Add(d, -mS), -mS)
		// Implied storage floor: a cross-device edge pays at least the
		// transport time (diff=1 forces ts_j-te_i >= uc, hence u >= uc; diff=0
		// asks nothing). The big-M above only activates at integral diff, so
		// without this row the relaxation parks diff fractional and streams
		// every sample for free — the storage term then never reaches the dual
		// bound and near-optimal incumbents stay unproven.
		m.AddGE(fmt.Sprintf("storlb_%d_%d", i, j),
			*milp.NewExpr(0).Add(u, 1).Add(d, -edgeUC), 0)
		storage = append(storage, u)
	}
	if dedicatedUnit && g.NumEdges() > 0 {
		// Port capacity: each cross-device edge's store+fetch occupy the
		// unit's only port for 2·u_c, all windows pairwise disjoint and
		// contained in [0, tE].
		pe := milp.NewExpr(0)
		for _, e := range g.Edges() {
			a, b := pairIdx(int(e.Parent), int(e.Child))
			pe.Add(diff[[2]int{a, b}], 2*float64(opts.Transport))
		}
		pe.Add(tE, -1)
		m.AddLE("port_cap", *pe, 0)
	}

	// (4) Non-overlap on shared devices via order binaries, each side guarded
	// by its own pair-tight M. Pairs whose order is already decided get no
	// binary and no disjunction at all: when j is a precedence descendant of i
	// the prec-row chain forces te_i ≤ ts_j at every point of the relaxation,
	// and when the effective boxes separate them (teHi(i) ≤ tsLo_j) the
	// variable bounds do — either way the pair cannot overlap and the big-M
	// disjunction would only hand the tree a free-to-branch binary. Under a
	// pin this is what keeps the recovery model small: every executed-prefix
	// pair and every prefix-vs-suffix pair across the fault instant is
	// box-decided.
	desc := make([][]uint64, n)
	words := (n + 63) / 64
	for i := range desc {
		desc[i] = make([]uint64, words)
	}
	topo, err := g.TopoOrder()
	if err != nil {
		// Validate ran before any caller; an error here means the graph
		// mutated mid-solve.
		panic(err)
	}
	for t := n - 1; t >= 0; t-- {
		i := int(topo[t])
		for _, c := range g.Children(seqgraph.OpID(i)) {
			desc[i][int(c)/64] |= 1 << (uint(c) % 64)
			for w := 0; w < words; w++ {
				desc[i][w] |= desc[int(c)][w]
			}
		}
	}
	ordered := func(i, j int) bool {
		return desc[i][j/64]&(1<<(uint(j)%64)) != 0 || teHi(i) <= tsLoA[j]+1e-9
	}
	order := make(map[[2]int]milp.Var)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ordered(i, j) || ordered(j, i) {
				continue
			}
			d := diff[[2]int{i, j}]
			y := m.NewBinary(fmt.Sprintf("y_%d_%d", i, j))
			order[[2]int{i, j}] = y
			mA, mB := pairM(i, j), pairM(j, i)
			// te_i <= ts_j + M(1-y) + M·diff
			m.AddLE(fmt.Sprintf("no1_%d_%d", i, j),
				*milp.NewExpr(0).Add(te[i], 1).Add(ts[j], -1).Add(y, mA).Add(d, -mA), mA)
			// te_j <= ts_i + M·y + M·diff
			m.AddLE(fmt.Sprintf("no2_%d_%d", i, j),
				*milp.NewExpr(0).Add(te[j], 1).Add(ts[i], -1).Add(y, -mB).Add(d, -mB), 0)
		}
	}

	// (5) Makespan.
	for i := 0; i < n; i++ {
		m.AddLE(fmt.Sprintf("mk_%d", i), *milp.NewExpr(0).Add(te[i], 1).Add(tE, -1), 0)
	}

	// Objective (6): α·tE + β·Σ u.
	obj := milp.NewExpr(0).Add(tE, alpha)
	for _, u := range storage {
		obj.Add(u, beta)
	}
	m.SetObjective(*obj, milp.Minimize)

	// Warm start: the list-scheduler incumbent, challenged by a greedy
	// critical-path-first schedule built directly on the model semantics.
	// The better (feasible) incumbent wins; a tight incumbent is what lets
	// branch and bound prove optimality early — when it matches the root
	// relaxation bound, the whole tree collapses at the root.
	var warm []float64
	if opts.WarmStart {
		if opts.Pin != nil {
			// The incumbent came from the pinned list scheduler: its binding
			// must enter verbatim (relabeling would break the pin rows, and
			// the symmetry rows relabeling serves are gone).
			warm = pinnedWarmStart(m, g, incumbent, ts, te, assign, diff, order, storage, tE)
		} else {
			warm = buildWarmStart(m, g, incumbent, ts, te, assign, diff, order, storage, tE)
		}
		gs, ge, gdev, gmk := greedyModelSchedule(g, opts, tail)
		gx := warmVector(m, g, gs, ge, gdev, gmk, ts, te, assign, diff, order, storage, tE)
		if gok, gobj := milp.CheckFeasible(m, gx); gok {
			if wok, wobj := milp.CheckFeasible(m, warm); !wok || gobj < wobj {
				warm = gx
			}
		}
	}

	return &schedModel{
		m: m, ts: ts, te: te, assign: assign,
		diff: diff, order: order, storage: storage, tE: tE, warm: warm,
		conflicts: conflicts,
	}
}

// mustOverlapPairs returns every pair (i, j), i < j, of operations whose
// effective time boxes force their execution intervals to intersect in every
// feasible point: with ee_i = tsLo_i + dur_i the earliest end and
// ls_i = tsHi_i the latest start, the pair must overlap iff
// ee_i > ls_j and ee_j > ls_i (then te_i ≥ ee_i > ls_j ≥ ts_j and
// symmetrically, so the open intervals [ts, te) intersect). Zero-duration
// operations never overlap anything; directly adjacent pairs (a precedence
// edge in either direction) are skipped — a feasible model orders them, and
// a box-forced overlap there would just mean the model is already
// infeasible. Box-derived ancestors beyond direct edges can never satisfy
// the test: a path from i to j gives tsLo_j ≥ ee_i, hence ls_j ≥ ee_i.
func mustOverlapPairs(n int, tsLo, tsHi, dur []float64, adjacent func(i, j int) bool) [][2]int {
	var pairs [][2]int
	for i := 0; i < n; i++ {
		if dur[i] <= 0 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if dur[j] <= 0 || adjacent(i, j) {
				continue
			}
			if tsLo[i]+dur[i] > tsHi[j] && tsLo[j]+dur[j] > tsHi[i] {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs
}

// greedyModelSchedule list-schedules the assay directly on the ILP model's
// semantics: ready operations by longest tail first (LPT on independent
// operations), each onto the device reaching the earliest start, transport
// charged only across devices. Unlike the storage-aware list scheduler it
// ignores flush/fetch slots — the model has none — so it often reaches a
// strictly better model makespan (on IVD it finds the perfect device
// partition the paper's objective asks for). Under a pin the executed prefix
// is seeded verbatim, forbidden devices take no operation, and every device
// first comes free at the fault instant or its last pinned end; the binding
// then keeps its concrete device numbers, as the pin rows require.
func greedyModelSchedule(g *seqgraph.Graph, opts ILPOptions, tail []float64) (start, end, dev []int, mk int) {
	n := g.NumOps()
	start = make([]int, n)
	end = make([]int, n)
	rawDev := make([]int, n)
	done := make([]bool, n)
	indeg := make([]int, n)
	for i := range indeg {
		indeg[i] = len(g.Parents(seqgraph.OpID(i)))
	}
	devFree := make([]int, opts.Devices)
	placed := 0
	if p := opts.Pin; p != nil {
		for k := range devFree {
			devFree[k] = p.Time
		}
		for _, a := range p.Assignments {
			start[a.Op], end[a.Op], rawDev[a.Op] = a.Start, a.End, a.Device
			done[a.Op] = true
			placed++
			devFree[a.Device] = max(devFree[a.Device], a.End)
			mk = max(mk, a.End)
			for _, c := range g.Children(a.Op) {
				indeg[c]--
			}
		}
	}
	for ; placed < n; placed++ {
		pick := -1
		for i := 0; i < n; i++ {
			if done[i] || indeg[i] > 0 {
				continue
			}
			if pick < 0 || tail[i] > tail[pick] {
				pick = i
			}
		}
		bestD, bestS := 0, int(^uint(0)>>1)
		for k := 0; k < opts.Devices; k++ {
			if opts.Pin != nil && opts.Pin.Forbidden[k] {
				continue
			}
			s := devFree[k]
			for _, p := range g.Parents(seqgraph.OpID(pick)) {
				arr := end[p]
				if rawDev[p] != k {
					arr += opts.Transport
				}
				if arr > s {
					s = arr
				}
			}
			if s < bestS {
				bestD, bestS = k, s
			}
		}
		rawDev[pick], start[pick] = bestD, bestS
		end[pick] = bestS + g.Op(seqgraph.OpID(pick)).Duration
		devFree[bestD] = end[pick]
		done[pick] = true
		if end[pick] > mk {
			mk = end[pick]
		}
		for _, c := range g.Children(seqgraph.OpID(pick)) {
			indeg[c]--
		}
	}
	if opts.Pin != nil {
		return start, end, rawDev, mk
	}
	return start, end, relabelByFirstUse(n, rawDev), mk
}

// relabelByFirstUse renames devices in order of their first-using operation
// id, which is exactly what the model's symmetry-breaking rows s_{i,k} = 0
// for k > i require: after relabeling, the device of operation i is at most
// the index of its first user, which is at most i.
func relabelByFirstUse(n int, rawDev []int) []int {
	firstUse := make(map[int]int) // device -> first op id using it
	for i := 0; i < n; i++ {
		if _, seen := firstUse[rawDev[i]]; !seen {
			firstUse[rawDev[i]] = i
		}
	}
	olds := make([]int, 0, len(firstUse))
	for d := range firstUse {
		olds = append(olds, d)
	}
	sort.Slice(olds, func(a, b int) bool { return firstUse[olds[a]] < firstUse[olds[b]] })
	relabel := make(map[int]int, len(olds))
	for newIdx, old := range olds {
		relabel[old] = newIdx
	}
	dev := make([]int, n)
	for i := 0; i < n; i++ {
		dev[i] = relabel[rawDev[i]]
	}
	return dev
}

// warmVector assembles a model-variable assignment from per-op integer times
// and a device binding already relabeled for the symmetry-breaking rows.
func warmVector(m *milp.Model, g *seqgraph.Graph, start, end, dev []int, mk int,
	ts, te []milp.Var, assign [][]milp.Var,
	diff, order map[[2]int]milp.Var, storage []milp.Var, tE milp.Var) []float64 {

	x := make([]float64, m.NumVars())
	n := g.NumOps()
	for i := 0; i < n; i++ {
		x[ts[i].ID()] = float64(start[i])
		x[te[i].ID()] = float64(end[i])
		x[assign[i][dev[i]].ID()] = 1
	}
	x[tE.ID()] = float64(mk)
	for key, d := range diff {
		i, j := key[0], key[1]
		if dev[i] != dev[j] {
			x[d.ID()] = 1
		}
	}
	for key, y := range order {
		i, j := key[0], key[1]
		if dev[i] == dev[j] && end[i] <= start[j] {
			x[y.ID()] = 1
		} // else y=0 encodes j before i
	}
	for idx, e := range g.Edges() {
		i, j := int(e.Parent), int(e.Child)
		if dev[i] != dev[j] {
			if gap := start[j] - end[i]; gap > 0 {
				x[storage[idx].ID()] = float64(gap)
			}
		}
	}
	return x
}

// timeWindows computes, per operation, the earliest start es (the longest
// pure-duration ancestor path) and the tail (the operation's duration plus
// the longest pure-duration descendant path). Both ignore transport, so they
// bound every feasible schedule of the ILP model. g must be a validated DAG.
func timeWindows(g *seqgraph.Graph) (es, tail []float64) {
	n := g.NumOps()
	es = make([]float64, n)
	tail = make([]float64, n)
	topo, err := g.TopoOrder()
	if err != nil {
		// Validate ran before any caller; an error here means the graph
		// mutated mid-solve, which nothing upstream permits.
		panic(fmt.Sprintf("sched: time windows on invalid graph: %v", err))
	}
	for _, id := range topo {
		for _, p := range g.Parents(id) {
			if v := es[p] + float64(g.Op(p).Duration); v > es[id] {
				es[id] = v
			}
		}
	}
	for k := len(topo) - 1; k >= 0; k-- {
		id := topo[k]
		tail[id] = float64(g.Op(id).Duration)
		for _, c := range g.Children(id) {
			if v := float64(g.Op(id).Duration) + tail[c]; v > tail[id] {
				tail[id] = v
			}
		}
	}
	return es, tail
}

// buildWarmStart converts the incumbent list schedule into a full variable
// assignment satisfying every big-M constraint of the model.
func buildWarmStart(m *milp.Model, g *seqgraph.Graph, inc *Schedule,
	ts, te []milp.Var, assign [][]milp.Var,
	diff, order map[[2]int]milp.Var, storage []milp.Var, tE milp.Var) []float64 {

	n := g.NumOps()
	start := make([]int, n)
	end := make([]int, n)
	rawDev := make([]int, n)
	for i := 0; i < n; i++ {
		a := inc.Assignments[i]
		start[i], end[i], rawDev[i] = a.Start, a.End, a.Device
	}
	return warmVector(m, g, start, end, relabelByFirstUse(n, rawDev), inc.Makespan,
		ts, te, assign, diff, order, storage, tE)
}

// pinnedWarmStart is buildWarmStart for a pinned model: the incumbent's
// binding enters verbatim (no first-use relabeling — the pin rows fix
// concrete devices and the symmetry rows are absent).
func pinnedWarmStart(m *milp.Model, g *seqgraph.Graph, inc *Schedule,
	ts, te []milp.Var, assign [][]milp.Var,
	diff, order map[[2]int]milp.Var, storage []milp.Var, tE milp.Var) []float64 {

	n := g.NumOps()
	start := make([]int, n)
	end := make([]int, n)
	dev := make([]int, n)
	for i := 0; i < n; i++ {
		a := inc.Assignments[i]
		start[i], end[i], dev[i] = a.Start, a.End, a.Device
	}
	return warmVector(m, g, start, end, dev, inc.Makespan,
		ts, te, assign, diff, order, storage, tE)
}

// reconstruct re-times the ILP's binding and per-device order with the exact
// transport semantics (direct pass, flush, fetch slots) used by the list
// scheduler, guaranteeing a valid integral schedule.
func reconstruct(g *seqgraph.Graph, opts ILPOptions, sol *milp.Solution,
	ts []milp.Var, assign [][]milp.Var) *Schedule {

	n := g.NumOps()
	binding := make([]int, n)
	for i := 0; i < n; i++ {
		for k := 0; k < opts.Devices; k++ {
			if math.Round(sol.Value(assign[i][k])) == 1 {
				binding[i] = k
				break
			}
		}
	}
	// Global order by ILP start time (ties by ID), then greedy re-timing.
	// Under a pin only the suffix is re-timed: the pinned prefix is seeded
	// verbatim, so its operations never enter the order.
	var isPinned []bool
	if opts.Pin != nil {
		isPinned = opts.Pin.pinned(n)
	}
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if isPinned != nil && isPinned[i] {
			continue
		}
		ids = append(ids, i)
	}
	sort.Slice(ids, func(a, b int) bool {
		sa, sb := sol.Value(ts[ids[a]]), sol.Value(ts[ids[b]])
		if sa != sb {
			return sa < sb
		}
		return ids[a] < ids[b]
	})
	return retimeBinding(g, opts.Devices, opts.Transport, binding, ids, opts.Pin, opts.Storage)
}
