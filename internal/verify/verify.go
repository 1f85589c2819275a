// Package verify is an independent, solver-agnostic checker for synthesis
// results. It re-derives the correctness of a scheduled-and-routed biochip
// from first principles — the paper's constraint system (Table 1 and Section
// 3.2 of "Transport or Store?", DAC 2017) — without trusting any bookkeeping
// of the engine that produced the result:
//
//   - precedence: every dependency edge is respected, including the
//     cross-device transport latency u_c;
//   - device exclusivity: no two operations bound to one device overlap;
//   - task windows: the transportation workload derived from the schedule is
//     internally consistent (move-out before caching before fetch, arrivals
//     aligned with consumer starts);
//   - route cover: the architecture realizes exactly the schedule's
//     transportation workload, task by task, between the right device nodes;
//   - route paths: every routed path is a connected walk on the grid whose
//     segments are all part of the built chip;
//   - storage: every cached fluid owns a storage segment for its whole
//     caching window, and no segment caches two fluids at once;
//   - channel exclusivity: no grid segment or switch carries two distinct
//     fluids in overlapping time windows (a segment never simultaneously
//     transports and caches different fluids);
//   - metrics: reported makespan, edge/valve counts and ratios match
//     recomputation from scratch.
//
// The checker deliberately re-implements this accounting instead of calling
// sched.Schedule.Validate or arch.Result.Validate, so that a bug shared by an
// engine and its own validation cannot hide. A companion cross-check,
// CheckSim, replays the result through the execution simulator
// (internal/sim) and asserts that the simulator's per-instant segment states
// agree with the checker's own accounting at every instant.
package verify

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"flowsyn/internal/arch"
	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
)

// Invariant classes, used to label violations.
const (
	InvAssignment       = "assignment"
	InvPrecedence       = "precedence"
	InvDeviceExclusive  = "device-exclusivity"
	InvTaskWindows      = "task-windows"
	InvRouteCover       = "route-cover"
	InvRoutePath        = "route-path"
	InvStorage          = "storage"
	InvChannelExclusive = "channel-exclusivity"
	InvMetrics          = "metrics"
	InvSimAgreement     = "sim-agreement"
	InvRecovery         = "recovery"
	InvStorageStrategy  = "storage-strategy"
)

// Violation is one broken invariant.
type Violation struct {
	// Invariant is the Inv* class of the broken rule.
	Invariant string
	// Detail describes the specific failure.
	Detail string
}

// Error renders the violation.
func (v Violation) Error() string { return v.Invariant + ": " + v.Detail }

// Error aggregates every violation found by a check. It is the error type
// returned from Report.Err and the verify pipeline stage, so callers can
// distinguish "the result is wrong" from "synthesis failed" with errors.As.
type Error struct {
	// Violations lists every broken invariant, in detection order.
	Violations []Violation
}

// Error renders the first violations (all of them when few).
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d invariant violation(s)", len(e.Violations))
	for i, v := range e.Violations {
		if i == 5 {
			fmt.Fprintf(&b, "; ... %d more", len(e.Violations)-i)
			break
		}
		b.WriteString("; ")
		b.WriteString(v.Error())
	}
	return b.String()
}

// Report is the outcome of a Check: the violations found plus the quantities
// the checker recomputed from first principles, for callers that want to
// compare them against an engine's reported metrics.
type Report struct {
	// Violations lists every broken invariant (empty for a correct result).
	Violations []Violation

	// Makespan is the recomputed t^E: the latest operation end time.
	Makespan int
	// Transports and Stored count the recomputed transportation workload
	// (internal tasks only, matching core's Binding summary).
	Transports, Stored int
	// PeakStorage is the recomputed maximum number of simultaneously cached
	// fluids (channel segments only; unit residents are counted separately).
	PeakStorage int
	// UnitStored counts the Stored tasks routed through the dedicated storage
	// unit; PeakUnit is the recomputed maximum number of simultaneous unit
	// residents (the cell count the unit's multiplexer must address).
	UnitStored, PeakUnit int
	// NumEdges and NumValves are the recomputed architecture metrics (zero
	// when no architecture was checked).
	NumEdges, NumValves int
}

// Err returns nil when the report holds no violation, and an *Error carrying
// all of them otherwise.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return &Error{Violations: r.Violations}
}

func (r *Report) addf(invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// Check re-derives every invariant of a synthesis result from first
// principles. a may be nil, in which case only the schedule-level invariants
// are checked (useful for schedule-only engines and tests).
func Check(s *sched.Schedule, a *arch.Result) *Report {
	r, _ := check(s, a)
	return r
}

// check is Check, also returning the schedule's transportation workload
// (s.Tasks()) when the schedule was sound enough to derive it, so the rest
// of a verification derives it once.
func check(s *sched.Schedule, a *arch.Result) (*Report, []sched.Task) {
	r := &Report{}
	if s == nil {
		r.addf(InvAssignment, "no schedule to check")
		return r, nil
	}
	// The transportation workload is only meaningful for a structurally sound
	// schedule; deriving tasks from a corrupt assignment table could panic.
	if !r.checkSchedule(s) {
		return r, nil
	}
	tasks := s.Tasks()
	r.checkTasks(s, tasks)
	if a != nil {
		r.checkArchitecture(s, a, tasks)
	}
	return r, tasks
}

// checkSchedule verifies the scheduling-and-binding invariants (the paper's
// Table 1 constraints) and recomputes the makespan. It reports whether the
// assignment table is structurally sound.
func (r *Report) checkSchedule(s *sched.Schedule) bool {
	g := s.Graph
	if g == nil {
		r.addf(InvAssignment, "schedule has no graph")
		return false
	}
	if len(s.Assignments) != g.NumOps() {
		r.addf(InvAssignment, "%d assignments for %d operations", len(s.Assignments), g.NumOps())
		return false
	}
	if s.Devices < 1 {
		r.addf(InvAssignment, "schedule claims %d devices", s.Devices)
		return false
	}
	sound := true
	for i, a := range s.Assignments {
		if int(a.Op) != i {
			r.addf(InvAssignment, "assignment table corrupt at index %d (holds op %d)", i, a.Op)
			sound = false
			continue
		}
		op := g.Op(a.Op)
		if a.Device < 0 || a.Device >= s.Devices {
			r.addf(InvAssignment, "op %s bound to invalid device %d of %d", op.Name, a.Device, s.Devices)
			// Deriving the transportation workload would index devices out
			// of range.
			sound = false
		}
		if a.Start < 0 {
			r.addf(InvAssignment, "op %s starts at negative time %d", op.Name, a.Start)
		}
		if a.End-a.Start != op.Duration {
			r.addf(InvAssignment, "op %s has window [%d,%d) but duration %d", op.Name, a.Start, a.End, op.Duration)
		}
	}
	if !sound {
		return false
	}

	// Precedence with transport latency: a child on another device can start
	// only after the parent's product has travelled u_c seconds.
	for _, e := range g.Edges() {
		p, c := s.Assignments[e.Parent], s.Assignments[e.Child]
		need := 0
		if p.Device != c.Device {
			need = s.Transport
		}
		if c.Start < p.End+need {
			r.addf(InvPrecedence, "edge %s->%s: parent ends %d, child starts %d, need gap %d",
				g.Op(e.Parent).Name, g.Op(e.Child).Name, p.End, c.Start, need)
		}
	}

	// Device exclusivity: sweep each device's assignments by start time.
	perDevice := make([][]sched.Assignment, s.Devices)
	for _, a := range s.Assignments {
		if a.Device >= 0 && a.Device < s.Devices {
			perDevice[a.Device] = append(perDevice[a.Device], a)
		}
	}
	for d, list := range perDevice {
		slices.SortFunc(list, func(a, b sched.Assignment) int { return cmp.Compare(a.Start, b.Start) })
		for i := 1; i < len(list); i++ {
			if list[i].Start < list[i-1].End {
				r.addf(InvDeviceExclusive, "device %d runs %s and %s concurrently",
					d, g.Op(list[i-1].Op).Name, g.Op(list[i].Op).Name)
			}
		}
	}

	// Recompute the makespan and compare with the reported one.
	for _, a := range s.Assignments {
		if a.End > r.Makespan {
			r.Makespan = a.End
		}
	}
	if s.Makespan != r.Makespan {
		r.addf(InvMetrics, "reported makespan %d, recomputed %d", s.Makespan, r.Makespan)
	}
	return true
}

// taskName names a task by its edge, for violation details.
func taskName(g *seqgraph.Graph, t sched.Task) string {
	return g.Op(t.Edge.Parent).Name + "->" + g.Op(t.Edge.Child).Name
}

// cacheEvent is a change in the number of cached fluids at instant t.
type cacheEvent struct{ t, delta int }

// peakOf returns the peak of the running event sum, fetches releasing before
// stores claim at equal instants (as in the paper's accounting).
func peakOf(evs []cacheEvent) int {
	slices.SortFunc(evs, func(a, b cacheEvent) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		return cmp.Compare(a.delta, b.delta)
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// checkTasks verifies the internal transportation workload derived from the
// schedule (tasks, which is s.Tasks()) and recomputes the
// Transports/Stored/PeakStorage metrics.
func (r *Report) checkTasks(s *sched.Schedule, tasks []sched.Task) {
	g := s.Graph
	var events, unitEvents []cacheEvent
	for _, t := range tasks {
		r.Transports++
		p, c := s.Assignments[t.Edge.Parent], s.Assignments[t.Edge.Child]
		if t.From != p.Device || t.To != c.Device {
			r.addf(InvTaskWindows, "task %s travels %d->%d but ops are bound to %d->%d",
				taskName(g, t), t.From, t.To, p.Device, c.Device)
		}
		switch t.Kind {
		case sched.Direct:
			if t.Depart >= t.Arrive {
				r.addf(InvTaskWindows, "direct task %s has empty window [%d,%d)", taskName(g, t), t.Depart, t.Arrive)
			}
			if t.Depart < p.End-1 {
				// The departure may be clamped one second before the consumer
				// starts, but never earlier than just before the parent ends.
				r.addf(InvTaskWindows, "direct task %s departs at %d before its parent ends at %d",
					taskName(g, t), t.Depart, p.End)
			}
			if t.Arrive != c.Start {
				r.addf(InvTaskWindows, "direct task %s arrives at %d but its consumer starts at %d",
					taskName(g, t), t.Arrive, c.Start)
			}
			if t.Arrive-t.Depart > s.Transport {
				r.addf(InvTaskWindows, "direct task %s occupies its path %d s, longer than u_c=%d plus waiting at the consumer is not modeled",
					taskName(g, t), t.Arrive-t.Depart, s.Transport)
			}
		case sched.Stored:
			r.Stored++
			if !(t.OutStart <= t.OutEnd && t.OutEnd <= t.FetchStart && t.FetchStart <= t.FetchEnd) {
				r.addf(InvTaskWindows, "stored task %s has disordered windows out[%d,%d) cache[%d,%d) fetch[%d,%d)",
					taskName(g, t), t.OutStart, t.OutEnd, t.OutEnd, t.FetchStart, t.FetchStart, t.FetchEnd)
				continue
			}
			if t.OutStart < p.End-1 {
				r.addf(InvTaskWindows, "stored task %s moves out at %d before its parent ends at %d",
					taskName(g, t), t.OutStart, p.End)
			}
			if t.FetchEnd > c.Start {
				r.addf(InvTaskWindows, "stored task %s finishes fetching at %d after its consumer starts at %d",
					taskName(g, t), t.FetchEnd, c.Start)
			}
			if t.OutStart >= t.FetchEnd {
				r.addf(InvTaskWindows, "stored task %s has an empty live span [%d,%d)", taskName(g, t), t.OutStart, t.FetchEnd)
			}
			if t.Unit {
				// The fluid waits inside the dedicated unit, not in a channel:
				// it counts toward unit residency, not channel storage.
				r.UnitStored++
				unitEvents = append(unitEvents, cacheEvent{t.OutEnd, +1}, cacheEvent{t.FetchStart, -1})
				continue
			}
			events = append(events, cacheEvent{t.OutEnd, +1}, cacheEvent{t.FetchStart, -1})
		default:
			r.addf(InvTaskWindows, "task %s has unknown kind %d", taskName(g, t), t.Kind)
		}
	}

	// Peak storage demand, recomputed with an event sweep.
	r.PeakStorage = peakOf(events)
	r.PeakUnit = peakOf(unitEvents)
}

// unitValves recomputes the mux-tree valve cost of a dedicated unit with the
// given cell count: two log₂-depth multiplexer trees at two valves per level
// plus the two port valves (re-implemented here, independent of
// internal/dedicated, per this package's philosophy).
func unitValves(cells int) int {
	if cells < 1 {
		return 0
	}
	if cells == 1 {
		return 2
	}
	levels := 0
	for n := 1; n < cells; n *= 2 {
		levels++
	}
	return 4*levels + 2
}

// checkArchitecture verifies that the routed architecture realizes exactly
// the schedule's transportation workload under the paper's exclusivity
// constraints, and recomputes the reported metrics.
//
// Every per-resource table is a slice indexed by EdgeID or NodeID; paths
// must stay on the grid before their resources are looked up.
func (r *Report) checkArchitecture(s *sched.Schedule, a *arch.Result, tasks []sched.Task) {
	grid := a.Grid
	if grid.Rows < 2 || grid.Cols < 2 {
		r.addf(InvMetrics, "degenerate %s grid", grid)
		return
	}

	// Device placement sanity: every device (and port) on a distinct node.
	wantPlaced := s.Devices + a.Ports
	if len(a.DevicePos) != wantPlaced {
		r.addf(InvRouteCover, "%d placed nodes for %d devices and %d ports", len(a.DevicePos), s.Devices, a.Ports)
		return
	}
	seenNode := make(map[arch.NodeID]int, len(a.DevicePos))
	for d, n := range a.DevicePos {
		if int(n) < 0 || int(n) >= grid.NumNodes() {
			r.addf(InvRouteCover, "device %d placed outside the %s grid (node %d)", d, grid, n)
			return
		}
		if prev, dup := seenNode[n]; dup {
			r.addf(InvRouteCover, "devices %d and %d share grid node %d", prev, d, n)
		}
		seenNode[n] = d
	}
	if a.StorageUnit >= 0 {
		if int(a.StorageUnit) >= grid.NumNodes() {
			r.addf(InvStorage, "storage unit placed outside the %s grid (node %d)", grid, a.StorageUnit)
			return
		}
		if d, dup := seenNode[a.StorageUnit]; dup {
			r.addf(InvStorage, "storage unit shares grid node %d with device %d", a.StorageUnit, d)
		}
	}

	// Route cover: the routes must realize the expected workload one-to-one,
	// in order, between the right device nodes.
	expected := arch.ExpectedTasks(s, tasks, a.Ports)
	if len(a.Routes) != len(expected) {
		r.addf(InvRouteCover, "%d routes for %d transportation tasks", len(a.Routes), len(expected))
		return
	}
	nEdges, nNodes := grid.NumEdges(), grid.NumNodes()
	onGrid := func(n arch.NodeID) bool { return n >= 0 && int(n) < nNodes }
	used := make([]bool, nEdges)
	for _, e := range a.UsedEdges {
		// A listed id outside the grid names no segment a path can use.
		if e >= 0 && int(e) < nEdges {
			used[e] = true
		}
	}
	isUsed := func(e arch.EdgeID) bool { return e >= 0 && int(e) < nEdges && used[e] }
	isDevice := make([]bool, nNodes)
	for _, n := range a.DevicePos {
		isDevice[n] = true
	}
	if a.StorageUnit >= 0 {
		// The unit node is device-like: routes terminate at it and its
		// occupancy is governed by the unit's port windows, not switch claims.
		isDevice[a.StorageUnit] = true
	}

	// Claims gather every (resource, window, fluid) reservation for the
	// exclusivity sweep below.
	type claim struct {
		start, end int
		route      int
		caching    bool
	}
	edgeClaims := make([][]claim, nEdges)
	nodeClaims := make([][]claim, nNodes)
	addEdgeClaim := func(e arch.EdgeID, c claim) {
		// Empty windows occupy nothing (a fetch leg has zero length when
		// u_c is 1, matching the router's own reservation rule).
		if c.start < c.end {
			edgeClaims[e] = append(edgeClaims[e], c)
		}
	}
	claimPath := func(route int, nodes []arch.NodeID, edges []arch.EdgeID, start, end int) {
		if start >= end {
			return
		}
		for _, e := range edges {
			edgeClaims[e] = append(edgeClaims[e], claim{start, end, route, false})
		}
		for _, n := range nodes {
			if !isDevice[n] {
				nodeClaims[n] = append(nodeClaims[n], claim{start, end, route, false})
			}
		}
	}
	checkPath := func(route int, what string, nodes []arch.NodeID, edges []arch.EdgeID) bool {
		if len(nodes) == 0 || len(nodes) != len(edges)+1 {
			r.addf(InvRoutePath, "route %d %s path has %d nodes for %d edges", route, what, len(nodes), len(edges))
			return false
		}
		for _, n := range nodes {
			if !onGrid(n) {
				r.addf(InvRoutePath, "route %d %s path leaves the %s grid at node %d", route, what, grid, n)
				return false
			}
		}
		for i, e := range edges {
			if grid.EdgeBetween(nodes[i], nodes[i+1]) != e {
				r.addf(InvRoutePath, "route %d %s path: edge %d does not join nodes %d and %d",
					route, what, e, nodes[i], nodes[i+1])
				return false
			}
			if !isUsed(e) {
				r.addf(InvRoutePath, "route %d %s path uses segment %d that is not part of the chip", route, what, e)
				return false
			}
		}
		return true
	}

	for i, route := range a.Routes {
		t := route.Task
		if t != expected[i] {
			r.addf(InvRouteCover, "route %d realizes task %v, expected %v", i, t, expected[i])
			continue
		}
		src, dst := a.DevicePos[t.From], a.DevicePos[t.To]
		if t.Kind == sched.Direct {
			if route.StorageEdge != -1 {
				r.addf(InvRoutePath, "direct route %d carries storage segment %d", i, route.StorageEdge)
			}
			if len(route.FetchNodes) != 0 || len(route.FetchEdges) != 0 {
				r.addf(InvRoutePath, "direct route %d carries a fetch path", i)
			}
			if !checkPath(i, "transport", route.OutNodes, route.OutEdges) {
				continue
			}
			if route.OutNodes[0] != src || route.OutNodes[len(route.OutNodes)-1] != dst {
				r.addf(InvRouteCover, "route %d runs %d->%d, expected device nodes %d->%d",
					i, route.OutNodes[0], route.OutNodes[len(route.OutNodes)-1], src, dst)
			}
			claimPath(i, route.OutNodes, route.OutEdges, t.Depart, t.Arrive)
			continue
		}

		if t.Unit {
			// Unit-stored route: store leg into the unit node, residency off
			// the grid, fetch leg out of it. No storage segment may be claimed.
			if route.StorageEdge != -1 {
				r.addf(InvStorage, "unit route %d claims storage segment %d", i, route.StorageEdge)
			}
			if a.StorageUnit < 0 {
				r.addf(InvStorage, "route %d stores in the unit but the chip has no storage unit", i)
				continue
			}
			okOut := checkPath(i, "store", route.OutNodes, route.OutEdges)
			okFetch := checkPath(i, "fetch", route.FetchNodes, route.FetchEdges)
			if !okOut || !okFetch {
				continue
			}
			if route.OutNodes[0] != src {
				r.addf(InvRouteCover, "route %d stores from node %d, expected device node %d", i, route.OutNodes[0], src)
			}
			if end := route.OutNodes[len(route.OutNodes)-1]; end != a.StorageUnit {
				r.addf(InvStorage, "route %d store leg ends at node %d, not the storage unit %d", i, end, a.StorageUnit)
			}
			if route.FetchNodes[0] != a.StorageUnit {
				r.addf(InvStorage, "route %d fetch leg starts at node %d, not the storage unit %d",
					i, route.FetchNodes[0], a.StorageUnit)
			}
			if route.FetchNodes[len(route.FetchNodes)-1] != dst {
				r.addf(InvRouteCover, "route %d fetches to node %d, expected device node %d",
					i, route.FetchNodes[len(route.FetchNodes)-1], dst)
			}
			claimPath(i, route.OutNodes, route.OutEdges, t.OutStart, t.OutEnd)
			claimPath(i, route.FetchNodes, route.FetchEdges, t.FetchStart, t.FetchEnd)
			continue
		}

		// Stored route: move-out path, caching segment, fetch path.
		if route.StorageEdge < 0 || int(route.StorageEdge) >= grid.NumEdges() {
			r.addf(InvStorage, "stored route %d has no storage segment", i)
			continue
		}
		if !used[route.StorageEdge] {
			r.addf(InvStorage, "stored route %d caches on segment %d that is not part of the chip", i, route.StorageEdge)
		}
		okOut := checkPath(i, "move-out", route.OutNodes, route.OutEdges)
		okFetch := checkPath(i, "fetch", route.FetchNodes, route.FetchEdges)
		if !okOut || !okFetch {
			continue
		}
		if route.OutNodes[0] != src {
			r.addf(InvRouteCover, "route %d moves out from node %d, expected device node %d", i, route.OutNodes[0], src)
		}
		if route.FetchNodes[len(route.FetchNodes)-1] != dst {
			r.addf(InvRouteCover, "route %d fetches to node %d, expected device node %d",
				i, route.FetchNodes[len(route.FetchNodes)-1], dst)
		}
		u, v := grid.Endpoints(route.StorageEdge)
		if outEnd := route.OutNodes[len(route.OutNodes)-1]; outEnd != u && outEnd != v {
			r.addf(InvStorage, "route %d move-out ends at node %d, not an endpoint of storage segment %d",
				i, outEnd, route.StorageEdge)
		}
		if fetchStart := route.FetchNodes[0]; fetchStart != u && fetchStart != v {
			r.addf(InvStorage, "route %d fetch starts at node %d, not an endpoint of storage segment %d",
				i, fetchStart, route.StorageEdge)
		}
		claimPath(i, route.OutNodes, route.OutEdges, t.OutStart, t.OutEnd)
		claimPath(i, route.FetchNodes, route.FetchEdges, t.FetchStart, t.FetchEnd)
		// The storage segment is held for the whole live span: feeding,
		// caching, fetching. Its end switches stay usable by other paths
		// during the caching window (the paper's exception to constraint
		// (10)), which the claims model exactly by not claiming them.
		addEdgeClaim(route.StorageEdge, claim{t.OutStart, t.OutEnd, i, false})
		addEdgeClaim(route.StorageEdge, claim{t.OutEnd, t.FetchStart, i, true})
		addEdgeClaim(route.StorageEdge, claim{t.FetchStart, t.FetchEnd, i, false})
	}

	// Channel exclusivity: per resource, no two claims of distinct fluids may
	// overlap in time — a segment never simultaneously transports and caches
	// distinct fluids, and a switch never carries two fluids at once.
	// Claims are sorted by start and never empty, so the later claims that
	// overlap cx are exactly those that start before cx ends.
	sweep := func(kind string, id int, claims []claim) {
		slices.SortFunc(claims, func(x, y claim) int {
			if x.start != y.start {
				return cmp.Compare(x.start, y.start)
			}
			return cmp.Compare(x.route, y.route)
		})
		for x := 0; x < len(claims); x++ {
			for y := x + 1; y < len(claims) && claims[y].start < claims[x].end; y++ {
				cx, cy := claims[x], claims[y]
				if cx.route == cy.route {
					continue
				}
				rx, ry := "transport", "transport"
				if cx.caching {
					rx = "cache"
				}
				if cy.caching {
					ry = "cache"
				}
				r.addf(InvChannelExclusive,
					"%s %d carries fluids of routes %d (%s, [%d,%d)) and %d (%s, [%d,%d)) simultaneously",
					kind, id, cx.route, rx, cx.start, cx.end, cy.route, ry, cy.start, cy.end)
			}
		}
	}
	for e, claims := range edgeClaims {
		sweep("segment", e, claims)
	}
	for n, claims := range nodeClaims {
		sweep("switch", n, claims)
	}

	// Metrics: the built chip is exactly the union of segments the routes
	// touch, and the reported counts and ratios match recomputation.
	touched := make([]bool, nEdges)
	var offGrid []arch.EdgeID // touched ids outside the grid (corrupt routes)
	nTouched := 0
	touch := func(e arch.EdgeID) {
		switch {
		case e >= 0 && int(e) < nEdges:
			if !touched[e] {
				touched[e] = true
				nTouched++
			}
		case !slices.Contains(offGrid, e):
			offGrid = append(offGrid, e)
			nTouched++
		}
	}
	wasTouched := func(e arch.EdgeID) bool {
		if e >= 0 && int(e) < nEdges {
			return touched[e]
		}
		return slices.Contains(offGrid, e)
	}
	for i := range a.Routes {
		route := &a.Routes[i]
		for _, e := range route.OutEdges {
			touch(e)
		}
		if route.StorageEdge >= 0 {
			touch(route.StorageEdge)
		}
		for _, e := range route.FetchEdges {
			touch(e)
		}
	}
	if nTouched != len(a.UsedEdges) {
		r.addf(InvMetrics, "chip keeps %d segments but routes touch %d", len(a.UsedEdges), nTouched)
	} else {
		for _, e := range a.UsedEdges {
			if !wasTouched(e) {
				r.addf(InvMetrics, "chip keeps segment %d that no route touches", e)
			}
		}
	}
	r.NumEdges = nTouched
	if a.NumEdges != r.NumEdges {
		r.addf(InvMetrics, "reported %d segments, recomputed %d", a.NumEdges, r.NumEdges)
	}

	// Valve count: one valve per used-segment endpoint terminating at a
	// switch or port; only endpoints inside true devices (and the storage
	// unit, whose internal valves are priced separately) carry no counted
	// valve (the paper's n_v accounting).
	trueDevice := make([]bool, nNodes)
	for _, n := range a.DevicePos[:len(a.DevicePos)-a.Ports] {
		trueDevice[n] = true
	}
	if a.StorageUnit >= 0 {
		trueDevice[a.StorageUnit] = true
	}
	countValves := func(edges []arch.EdgeID) int {
		n := 0
		for _, e := range edges {
			u, v := grid.Endpoints(e)
			if !onGrid(u) || !trueDevice[u] {
				n++
			}
			if !onGrid(v) || !trueDevice[v] {
				n++
			}
		}
		return n
	}
	r.NumValves = countValves(a.UsedEdges)
	if a.NumValves != r.NumValves {
		r.addf(InvMetrics, "reported %d valves, recomputed %d", a.NumValves, r.NumValves)
	}
	all := make([]arch.EdgeID, grid.NumEdges())
	for i := range all {
		all[i] = arch.EdgeID(i)
	}
	if want := ratio(r.NumEdges, grid.NumEdges()); !closeEnough(a.EdgeRatio, want) {
		r.addf(InvMetrics, "reported edge ratio %.4f, recomputed %.4f", a.EdgeRatio, want)
	}
	if totalValves := countValves(all); totalValves > 0 {
		if want := ratio(r.NumValves, totalValves); !closeEnough(a.ValveRatio, want) {
			r.addf(InvMetrics, "reported valve ratio %.4f, recomputed %.4f", a.ValveRatio, want)
		}
	}

	// Unit metrics: the reported cell count must match the recomputed peak
	// residency, and the unit's valve cost must follow the mux-tree formula.
	if r.UnitStored > 0 && a.StorageUnit < 0 {
		r.addf(InvStorage, "%d unit-stored tasks but no storage unit placed", r.UnitStored)
	}
	if a.StorageUnit >= 0 {
		if a.UnitCells != r.PeakUnit {
			r.addf(InvMetrics, "reported %d unit cells, recomputed %d", a.UnitCells, r.PeakUnit)
		}
		if want := unitValves(r.PeakUnit); a.UnitValves != want {
			r.addf(InvMetrics, "reported %d unit valves, recomputed %d", a.UnitValves, want)
		}
	}
}

func ratio(a, b int) float64 { return float64(a) / float64(b) }

func closeEnough(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
