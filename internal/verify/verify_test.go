package verify_test

import (
	"slices"
	"strings"
	"testing"

	"flowsyn/internal/arch"
	"flowsyn/internal/assay"
	"flowsyn/internal/core"
	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
	"flowsyn/internal/verify"
)

// storageGraph is a four-operation assay whose schedule (below) produces two
// stored tasks with overlapping caching windows — the smallest interesting
// distributed-storage workload.
func storageGraph(t *testing.T) *seqgraph.Graph {
	t.Helper()
	g := seqgraph.New("store2")
	o1 := g.MustAddOperation("o1", seqgraph.Mix, 30, 2)
	o2 := g.MustAddOperation("o2", seqgraph.Mix, 30, 2)
	oL := g.MustAddOperation("oL", seqgraph.Mix, 150, 2)
	oM := g.MustAddOperation("oM", seqgraph.Mix, 30, 2)
	oC := g.MustAddOperation("oC", seqgraph.Mix, 30, 0)
	g.MustAddDependency(o1, oC)
	g.MustAddDependency(o2, oC)
	g.MustAddDependency(oL, oC)
	_ = oM // independent: it only occupies device 1 mid-run
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// storageSchedule hand-builds a valid schedule of storageGraph on two
// devices: o1's and o2's products are both cached in channel segments for
// ~150 s while oL blocks device 0 and oM blocks device 1.
func storageSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	g := storageGraph(t)
	s := &sched.Schedule{
		Graph:     g,
		Devices:   2,
		Transport: 10,
		Assignments: []sched.Assignment{
			{Op: 0, Device: 0, Start: 0, End: 30},    // o1
			{Op: 1, Device: 1, Start: 0, End: 30},    // o2
			{Op: 2, Device: 0, Start: 30, End: 180},  // oL
			{Op: 3, Device: 1, Start: 100, End: 130}, // oM
			{Op: 4, Device: 1, Start: 190, End: 220}, // oC
		},
		Makespan: 220,
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("hand-built schedule invalid: %v", err)
	}
	if got := s.StoreCount(); got != 2 {
		t.Fatalf("hand-built schedule has %d stored tasks, want 2", got)
	}
	return s
}

// synthesized routes the hand-built storage schedule on a 4x4 grid.
func synthesized(t *testing.T) (*sched.Schedule, *arch.Result) {
	t.Helper()
	s := storageSchedule(t)
	grid, err := arch.NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := arch.Synthesize(s, grid, arch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

// wantClass asserts that the report rejects the result with at least one
// violation of the given invariant class.
func wantClass(t *testing.T, rep *verify.Report, class string) {
	t.Helper()
	if len(rep.Violations) == 0 {
		t.Fatalf("checker accepted an invalid result, want %s violation", class)
	}
	for _, v := range rep.Violations {
		if v.Invariant == class {
			return
		}
	}
	t.Fatalf("no %s violation in %v", class, rep.Err())
}

func TestCheckAcceptsValidResult(t *testing.T) {
	s, a := synthesized(t)
	rep := verify.Check(s, a)
	if err := rep.Err(); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	if rep.Makespan != 220 {
		t.Errorf("recomputed makespan %d, want 220", rep.Makespan)
	}
	if rep.Stored != 2 {
		t.Errorf("recomputed %d stored tasks, want 2", rep.Stored)
	}
	if rep.PeakStorage != 2 {
		t.Errorf("recomputed peak storage %d, want 2", rep.PeakStorage)
	}
	if rep.NumEdges != a.NumEdges || rep.NumValves != a.NumValves {
		t.Errorf("recomputed ne=%d nv=%d, architecture reports ne=%d nv=%d",
			rep.NumEdges, rep.NumValves, a.NumEdges, a.NumValves)
	}
	if err := verify.CheckSim(s, a); err != nil {
		t.Fatalf("simulator disagrees with checker on a valid result: %v", err)
	}
}

func TestCheckScheduleOnly(t *testing.T) {
	s := storageSchedule(t)
	if err := verify.Check(s, nil).Err(); err != nil {
		t.Fatalf("schedule-only check rejected a valid schedule: %v", err)
	}
}

func TestCheckRejectsNilSchedule(t *testing.T) {
	wantClass(t, verify.Check(nil, nil), verify.InvAssignment)
}

func TestCheckRejectsCorruptAssignment(t *testing.T) {
	s, a := synthesized(t)

	m := s.Clone()
	m.Assignments[0].Device = 99
	wantClass(t, verify.Check(m, a), verify.InvAssignment)

	m = s.Clone()
	m.Assignments[2].End += 7 // duration no longer matches the operation
	wantClass(t, verify.Check(m, a), verify.InvAssignment)

	m = s.Clone()
	m.Assignments[1].Op = 0 // table index inconsistent
	wantClass(t, verify.Check(m, a), verify.InvAssignment)

	m = s.Clone()
	m.Assignments[0].Start, m.Assignments[0].End = -5, 25
	wantClass(t, verify.Check(m, a), verify.InvAssignment)
}

func TestCheckRejectsPrecedenceViolation(t *testing.T) {
	s, a := synthesized(t)
	m := s.Clone()
	// oC consumes oL's product across devices; moving it to start before
	// oL's end plus the transport latency breaks precedence.
	m.Assignments[4].Start, m.Assignments[4].End = 185, 215
	m.Makespan = 215
	wantClass(t, verify.Check(m, a), verify.InvPrecedence)
}

func TestCheckRejectsDeviceOverlap(t *testing.T) {
	s, a := synthesized(t)
	m := s.Clone()
	// Move oM onto device 0, overlapping oL's execution window.
	m.Assignments[3].Device = 0
	wantClass(t, verify.Check(m, a), verify.InvDeviceExclusive)
}

func TestCheckRejectsWrongMakespan(t *testing.T) {
	s, a := synthesized(t)
	m := s.Clone()
	m.Makespan++
	wantClass(t, verify.Check(m, a), verify.InvMetrics)
}

func TestCheckRejectsBrokenTaskWindows(t *testing.T) {
	s, _ := synthesized(t)
	m := s.Clone()
	// A negative departure offset makes the derived task leave the device
	// before its producing operation has finished.
	m.DepartOffsets = map[seqgraph.Edge]int{{Parent: 0, Child: 4}: -1000}
	wantClass(t, verify.Check(m, nil), verify.InvTaskWindows)
}

func TestCheckRejectsMissingRoute(t *testing.T) {
	s, a := synthesized(t)
	mut := *a
	mut.Routes = a.Routes[:len(a.Routes)-1]
	wantClass(t, verify.Check(s, &mut), verify.InvRouteCover)
}

func TestCheckRejectsDetachedPath(t *testing.T) {
	s, a := synthesized(t)
	mut := *a
	mut.Routes = append([]arch.Route(nil), a.Routes...)
	for i, route := range mut.Routes {
		if len(route.OutEdges) == 0 {
			continue
		}
		r := route
		r.OutEdges = append([]arch.EdgeID(nil), route.OutEdges...)
		r.OutEdges[0] = (r.OutEdges[0] + 1) % arch.EdgeID(a.Grid.NumEdges())
		mut.Routes[i] = r
		break
	}
	wantClass(t, verify.Check(s, &mut), verify.InvRoutePath)
}

func TestCheckRejectsMissingStorageSegment(t *testing.T) {
	s, a := synthesized(t)
	mut := *a
	mut.Routes = append([]arch.Route(nil), a.Routes...)
	found := false
	for i, route := range mut.Routes {
		if route.Task.Kind == sched.Stored {
			r := route
			r.StorageEdge = -1
			mut.Routes[i] = r
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no stored route to mutate")
	}
	wantClass(t, verify.Check(s, &mut), verify.InvStorage)
}

func TestCheckRejectsSharedStorageSegment(t *testing.T) {
	s, a := synthesized(t)
	mut := *a
	mut.Routes = append([]arch.Route(nil), a.Routes...)
	// Force the second cached fluid onto the first one's storage segment:
	// their caching windows overlap, so the segment would hold two distinct
	// fluids at once.
	var storedIdx []int
	for i, route := range mut.Routes {
		if route.Task.Kind == sched.Stored {
			storedIdx = append(storedIdx, i)
		}
	}
	if len(storedIdx) < 2 {
		t.Fatalf("want 2 stored routes, got %d", len(storedIdx))
	}
	r := mut.Routes[storedIdx[1]]
	r.StorageEdge = mut.Routes[storedIdx[0]].StorageEdge
	mut.Routes[storedIdx[1]] = r
	wantClass(t, verify.Check(s, &mut), verify.InvChannelExclusive)
}

// crossingChip hand-routes two direct transports, d0->d1 during [10,12) and
// d2->d3 during [bStart, bStart+2), through the same middle row of a 3x3
// grid: both paths use segments 3-4 and 4-5 and switches 3, 4 and 5.
func crossingChip(t *testing.T, bStart int) (*sched.Schedule, *arch.Result) {
	t.Helper()
	g := seqgraph.New("cross")
	a1 := g.MustAddOperation("a1", seqgraph.Mix, 10, 1)
	a2 := g.MustAddOperation("a2", seqgraph.Mix, 10, 0)
	b1 := g.MustAddOperation("b1", seqgraph.Mix, bStart, 1)
	b2 := g.MustAddOperation("b2", seqgraph.Mix, 10, 0)
	g.MustAddDependency(a1, a2)
	g.MustAddDependency(b1, b2)
	s := &sched.Schedule{
		Graph:     g,
		Devices:   4,
		Transport: 2,
		Assignments: []sched.Assignment{
			{Op: a1, Device: 0, Start: 0, End: 10},
			{Op: a2, Device: 1, Start: 12, End: 22},
			{Op: b1, Device: 2, Start: 0, End: bStart},
			{Op: b2, Device: 3, Start: bStart + 2, End: bStart + 12},
		},
		Makespan: bStart + 12,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	grid, err := arch.NewGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := func(nodes ...arch.NodeID) arch.Route {
		r := arch.Route{OutNodes: nodes, StorageEdge: -1}
		for i := 1; i < len(nodes); i++ {
			r.OutEdges = append(r.OutEdges, grid.EdgeBetween(nodes[i-1], nodes[i]))
		}
		return r
	}
	ra, rb := path(0, 3, 4, 5, 2), path(6, 3, 4, 5, 8)
	tasks := s.Tasks()
	if len(tasks) != 2 || tasks[0].Depart != 10 || tasks[1].Depart != bStart {
		t.Fatalf("unexpected transport workload %v", tasks)
	}
	ra.Task, rb.Task = tasks[0], tasks[1]
	a := &arch.Result{Grid: grid, DevicePos: []arch.NodeID{0, 2, 6, 8}, StorageUnit: -1, Routes: []arch.Route{ra, rb}}
	for e := range grid.NumEdges() {
		if slices.Contains(ra.OutEdges, arch.EdgeID(e)) || slices.Contains(rb.OutEdges, arch.EdgeID(e)) {
			a.UsedEdges = append(a.UsedEdges, arch.EdgeID(e))
		}
	}
	return s, a
}

// TestCheckChannelExclusivityAtOneSecond pins the exclusivity sweep at its
// boundary: transports overlapping for one second clash on both shared
// segments and all three shared switches, and transports that merely abut
// do not clash at all.
func TestCheckChannelExclusivityAtOneSecond(t *testing.T) {
	for _, tc := range []struct {
		bStart, clashes int
	}{{11, 5}, {12, 0}} {
		s, a := crossingChip(t, tc.bStart)
		clashes := 0
		for _, v := range verify.Check(s, a).Violations {
			if v.Invariant == verify.InvChannelExclusive {
				clashes++
			}
		}
		if clashes != tc.clashes {
			t.Errorf("second transport from t=%d: %d channel-exclusivity violations, want %d",
				tc.bStart, clashes, tc.clashes)
		}
	}
}

func TestCheckRejectsWrongMetrics(t *testing.T) {
	s, a := synthesized(t)

	mut := *a
	mut.NumEdges++
	wantClass(t, verify.Check(s, &mut), verify.InvMetrics)

	mut = *a
	mut.NumValves--
	wantClass(t, verify.Check(s, &mut), verify.InvMetrics)

	mut = *a
	mut.EdgeRatio += 0.25
	wantClass(t, verify.Check(s, &mut), verify.InvMetrics)

	mut = *a
	mut.UsedEdges = append(append([]arch.EdgeID(nil), a.UsedEdges...), arch.EdgeID(0))
	wantClass(t, verify.Check(s, &mut), verify.InvMetrics)
}

func TestErrorRendering(t *testing.T) {
	err := &verify.Error{Violations: []verify.Violation{
		{Invariant: verify.InvPrecedence, Detail: "x"},
		{Invariant: verify.InvMetrics, Detail: "y"},
	}}
	msg := err.Error()
	if !strings.Contains(msg, "2 invariant violation(s)") ||
		!strings.Contains(msg, verify.InvPrecedence) ||
		!strings.Contains(msg, verify.InvMetrics) {
		t.Errorf("unhelpful error message: %q", msg)
	}
}

func TestHorizonCoversUnloadTail(t *testing.T) {
	// With I/O modeled, the final product ships after the last operation
	// ends, so the verification horizon must extend past the makespan.
	b := assay.MustGet("IVD")
	res, err := core.Synthesize(b.Graph, core.Options{
		Devices:   b.Devices,
		Transport: b.Transport,
		GridRows:  b.GridRows,
		GridCols:  b.GridCols,
		ModelIO:   true,
		Engine:    core.Heuristic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h := verify.Horizon(res.Schedule, res.Architecture); h <= res.Schedule.Makespan {
		t.Errorf("horizon %d does not extend past makespan %d despite unload tasks", h, res.Schedule.Makespan)
	}
	if err := verify.CheckSim(res.Schedule, res.Architecture); err != nil {
		t.Fatal(err)
	}
}

func TestStatesAtMatchesLifecycle(t *testing.T) {
	_, a := synthesized(t)
	var stored *arch.Route
	for i := range a.Routes {
		if a.Routes[i].Task.Kind == sched.Stored {
			stored = &a.Routes[i]
			break
		}
	}
	if stored == nil {
		t.Fatal("no stored route")
	}
	tk := stored.Task
	mid := (tk.OutEnd + tk.FetchStart) / 2
	ac := verify.NewAccounting(a)
	states, cached := ac.At(mid)
	if states[stored.StorageEdge] != verify.RoleCaching {
		t.Errorf("storage segment is %v mid-cache, want caching", states[stored.StorageEdge])
	}
	if cached == 0 {
		t.Error("no cached fluid counted mid-cache")
	}
	states, _ = ac.At(tk.OutStart)
	if len(stored.OutEdges) > 0 && states[stored.OutEdges[0]] != verify.RoleTransporting {
		t.Errorf("move-out segment is %v at departure, want transporting", states[stored.OutEdges[0]])
	}
}
