package arch

import (
	"context"
	"fmt"
	"sort"
	"time"

	"flowsyn/internal/dedicated"
	"flowsyn/internal/sched"
)

// Options configures heuristic architectural synthesis.
type Options struct {
	// Strategy selects the device placement algorithm.
	Strategy PlacementStrategy
	// ReuseCost and NewCost price edge traversals during routing; a new
	// (never used) segment should cost more than reusing one so the total
	// number of built segments — the paper's objective (12) — stays small.
	// Zero values default to 10 and 30.
	ReuseCost, NewCost int
	// FixedPlacement, if non-nil, bypasses placement (used by ablations and
	// the ILP cross-check). With I/O modeled it must also cover the two
	// ports (schedule devices first, then input port, then output port).
	FixedPlacement []NodeID
	// ModelIO routes the chip-boundary transports (reagent loading and
	// product shipping) through two boundary I/O ports, so even an assay of
	// independent operations builds a routable channel network (the paper's
	// IVD row). Dense assays that already saturate their grid should leave
	// it off; the paper models no I/O transport.
	ModelIO bool
	// PinnedRoutes installs prior routes verbatim for the tasks they serve
	// (matched exactly by task) instead of re-routing them: the executed
	// prefix of a faulted run. Pinned routes are exempt from rip-up and from
	// the forbidden-edge masks below — they were legal when they ran, before
	// the fault existed. Requires FixedPlacement (the routes name concrete
	// grid nodes).
	PinnedRoutes []Route
	// ForbiddenEdges closes channel segments to all new routing and storage
	// (a failed valve pair).
	ForbiddenEdges []EdgeID
	// ForbiddenStorage closes channel segments to storage candidacy only (a
	// degraded segment still transports but cannot hold a cache).
	ForbiddenStorage []EdgeID
}

// Result is a synthesized chip architecture: the planar connection graph of
// devices, switches and channel segments, plus every routed transportation
// path.
type Result struct {
	// Grid is the connection grid used.
	Grid Grid
	// DevicePos maps device index -> grid node. When Ports is 2, the last
	// two entries are the chip's input and output ports.
	DevicePos []NodeID
	// Ports is the number of I/O port pseudo-devices at the tail of
	// DevicePos (0 or 2).
	Ports int
	// Routes realizes every transportation task of the schedule, in task
	// order.
	Routes []Route
	// UsedEdges lists the channel segments kept in the chip, ascending.
	UsedEdges []EdgeID
	// NumEdges is n_e of Table 2: len(UsedEdges).
	NumEdges int
	// NumValves is n_v of Table 2: one valve per used-segment endpoint that
	// terminates at a switch (device-internal valves are not counted,
	// matching the paper's accounting).
	NumValves int
	// StorageUnit is the grid node hosting the dedicated storage unit, or -1
	// when the schedule stores nothing in a unit (distributed strategy, or a
	// strategy schedule that never overflowed). The unit node is device-like:
	// routes terminate at it but never pass through it, and its segment
	// endpoints carry no counted network valve — the unit's own valve cost is
	// reported separately in UnitValves.
	StorageUnit NodeID
	// UnitCells is the peak number of fluids resident in the unit at once
	// (the cell count its multiplexer must address); zero without a unit.
	UnitCells int
	// UnitValves is the mux-tree valve cost of the unit itself (two log₂
	// trees plus the port pair), reported separately from NumValves.
	UnitValves int
	// EdgeRatio and ValveRatio compare against the full connection grid
	// (Fig. 8).
	EdgeRatio, ValveRatio float64
	// Runtime is the synthesis wall-clock time (t_r in Table 2).
	Runtime time.Duration
}

// UsedEdgeSet returns the used edges as a set.
func (r *Result) UsedEdgeSet() map[EdgeID]bool {
	set := make(map[EdgeID]bool, len(r.UsedEdges))
	for _, e := range r.UsedEdges {
		set[e] = true
	}
	return set
}

// IsDeviceNode reports whether n hosts a device (or the dedicated storage
// unit, which is device-like for routing and valve accounting).
func (r *Result) IsDeviceNode(n NodeID) bool {
	for _, p := range r.DevicePos {
		if p == n {
			return true
		}
	}
	return r.StorageUnit >= 0 && n == r.StorageUnit
}

// Switches returns the used grid nodes that act as switches (touched by at
// least one used edge and not hosting a device), ascending.
func (r *Result) Switches() []NodeID {
	seen := make(map[NodeID]bool)
	for _, e := range r.UsedEdges {
		u, v := r.Grid.Endpoints(e)
		seen[u] = true
		seen[v] = true
	}
	var out []NodeID
	for n := range seen {
		if !r.IsDeviceNode(n) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Synthesize places the schedule's devices on the grid and routes every
// transportation task with time multiplexing, then reports the pruned
// connection graph (only segments used at least once are kept, the paper's
// constraint (11) and objective (12)).
func Synthesize(s *sched.Schedule, grid Grid, opts Options) (*Result, error) {
	return SynthesizeContext(context.Background(), s, grid, opts)
}

// SynthesizeContext is Synthesize bounded by a context: cancellation is
// observed before every routed task, so congested instances abort promptly
// with ctx.Err().
func SynthesizeContext(ctx context.Context, s *sched.Schedule, grid Grid, opts Options) (*Result, error) {
	start := time.Now()
	if opts.ReuseCost == 0 {
		opts.ReuseCost = 10
	}
	if opts.NewCost == 0 {
		opts.NewCost = 30
	}
	internalTasks := s.Tasks()
	nPlaced := s.Devices
	ports := 0
	if opts.ModelIO {
		ports = 2
		nPlaced += ports
	}
	tasks := expectedTasks(s, internalTasks, ports)

	// A schedule that routed fluids through the dedicated unit (dedicated or
	// hybrid storage strategy) needs a unit node on the chip; the need is
	// derived from the tasks themselves, so no extra option exists to get out
	// of sync with the schedule.
	needUnit := false
	for _, t := range tasks {
		if t.Unit {
			needUnit = true
			break
		}
	}

	pinnedByTask := make(map[sched.Task]Route, len(opts.PinnedRoutes))
	for _, pr := range opts.PinnedRoutes {
		pinnedByTask[pr.Task] = pr
	}
	// Pinned unit routes name the concrete unit node they already used; the
	// re-synthesis must keep the unit there so history stays valid.
	pinnedUnit := NodeID(-1)
	for _, pr := range opts.PinnedRoutes {
		if pr.Task.Unit && len(pr.OutNodes) > 0 {
			pinnedUnit = pr.OutNodes[len(pr.OutNodes)-1]
			break
		}
	}
	if len(pinnedByTask) > 0 {
		if opts.FixedPlacement == nil {
			return nil, fmt.Errorf("arch: pinned routes require a fixed placement")
		}
		found := 0
		for _, t := range tasks {
			if _, ok := pinnedByTask[t]; ok {
				found++
			}
		}
		if found != len(pinnedByTask) {
			return nil, fmt.Errorf("arch: %d pinned route(s) serve no task of the schedule",
				len(pinnedByTask)-found)
		}
		for _, pr := range opts.PinnedRoutes {
			if !pr.onGrid(grid) {
				return nil, fmt.Errorf("arch: pinned route for task %v leaves the %s grid", pr.Task.Edge, grid)
			}
		}
	}

	// Candidate placements: the requested one, then fallbacks (a different
	// strategy often unblocks a congested instance).
	var placements [][]NodeID
	if opts.FixedPlacement != nil {
		if len(opts.FixedPlacement) != nPlaced {
			return nil, fmt.Errorf("arch: fixed placement has %d nodes for %d devices+ports",
				len(opts.FixedPlacement), nPlaced)
		}
		pos := append([]NodeID(nil), opts.FixedPlacement...)
		for _, p := range pos {
			if int(p) < 0 || int(p) >= grid.NumNodes() {
				return nil, fmt.Errorf("arch: fixed placement node %d outside %s grid", p, grid)
			}
		}
		placements = append(placements, pos)
	} else {
		// Devices are placed from the internal (device-to-device) traffic;
		// the two I/O ports then take boundary nodes.
		withPorts := func(devs []NodeID, err error) ([]NodeID, error) {
			if err != nil {
				return nil, err
			}
			if ports == 0 {
				return devs, nil
			}
			in, out, err := PlacePorts(grid, devs)
			if err != nil {
				return nil, err
			}
			return append(devs, in, out), nil
		}
		primary, err := withPorts(Place(grid, s.Devices, internalTasks, opts.Strategy))
		if err != nil {
			return nil, err
		}
		placements = append(placements, primary)
		// Fallback A: ignore communication weights (pure spread).
		if spread, err := withPorts(Place(grid, s.Devices, nil, opts.Strategy)); err == nil {
			placements = append(placements, spread)
		}
		// Fallback B: the other strategy.
		alt := RowMajor
		if opts.Strategy == RowMajor {
			alt = CommWeighted
		}
		if altPos, err := withPorts(Place(grid, s.Devices, internalTasks, alt)); err == nil {
			placements = append(placements, altPos)
		}
	}

	var (
		routes   []Route
		pos      []NodeID
		unitNode NodeID
		r        *router
		lastErr  error
		routedOK bool
	)
	for _, candidate := range placements {
		pos = candidate
		unitNode = -1
		if needUnit {
			if pinnedUnit >= 0 {
				unitNode = pinnedUnit
			} else {
				un, err := PlaceUnit(grid, pos)
				if err != nil {
					if lastErr == nil {
						lastErr = err
					}
					continue
				}
				unitNode = un
			}
		}
		r = newRouter(grid, pos, unitNode, opts)
		routes = make([]Route, 0, len(tasks))
		routedOK = true
		for i, t := range tasks {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if pr, ok := pinnedByTask[t]; ok {
				// An executed route survives the fault verbatim: reserve its
				// resources so nothing re-planned collides with history, and
				// shield it from rip-up.
				r.applyReservations(i, pr)
				r.pinned[i] = true
				routes = append(routes, pr)
				continue
			}
			src, dst := pos[t.From], pos[t.To]
			route, err := r.routeTask(i, t, src, dst)
			if err != nil {
				// Evict blocking cached samples and retry before giving up.
				route, err = r.ripUpAndRetry(i, t, src, dst, routes)
			}
			if err != nil {
				if lastErr == nil {
					lastErr = fmt.Errorf("arch: routing task %v->%v (%v, placement %v): %w",
						s.Graph.Op(t.Edge.Parent).Name, s.Graph.Op(t.Edge.Child).Name, t.Kind, pos, err)
				}
				routedOK = false
				break
			}
			routes = append(routes, route)
		}
		if routedOK {
			break
		}
	}
	if !routedOK {
		return nil, lastErr
	}

	res := &Result{
		Grid:        grid,
		DevicePos:   pos,
		Ports:       ports,
		Routes:      routes,
		StorageUnit: unitNode,
		Runtime:     time.Since(start),
	}
	if unitNode >= 0 {
		res.UnitCells = s.UnitCells()
		res.UnitValves = dedicated.UnitValves(res.UnitCells)
	}
	// Used edges come from the final routes (rip-up may orphan edges the
	// router touched transiently).
	r.rebuildUsed(routes)
	for e, used := range r.used {
		if used {
			res.UsedEdges = append(res.UsedEdges, EdgeID(e))
		}
	}
	res.NumEdges = len(res.UsedEdges)
	// Port endpoints carry valves (a port is a gated opening); only valves
	// inside true devices are excluded from n_v, as in the paper. The storage
	// unit is device-like too: its internal mux valves are priced separately
	// in UnitValves, not double-counted as network valves.
	trueDevices := make(map[NodeID]bool, s.Devices+1)
	for _, p := range pos[:s.Devices] {
		trueDevices[p] = true
	}
	if unitNode >= 0 {
		trueDevices[unitNode] = true
	}
	res.NumValves = countValves(grid, res.UsedEdges, trueDevices)

	totalEdges := grid.NumEdges()
	all := make([]EdgeID, totalEdges)
	for i := range all {
		all[i] = EdgeID(i)
	}
	totalValves := countValves(grid, all, trueDevices)
	res.EdgeRatio = float64(res.NumEdges) / float64(totalEdges)
	if totalValves > 0 {
		res.ValveRatio = float64(res.NumValves) / float64(totalValves)
	}
	return res, nil
}

// ExpectedTasks returns the complete transportation workload of the schedule
// in routing order: the internal device-to-device tasks plus, when ports is
// 2, the chip-boundary I/O tasks (input port at pseudo-device s.Devices,
// output port at s.Devices+1), merged by the time their first movement
// starts. It is the exact task list SynthesizeContext routes, exposed so an
// independent checker (internal/verify) can re-derive it.
func ExpectedTasks(s *sched.Schedule, ports int) []sched.Task {
	return expectedTasks(s, s.Tasks(), ports)
}

// expectedTasks merges the precomputed internal workload with the I/O tasks,
// letting SynthesizeContext reuse the task list it already derived.
func expectedTasks(s *sched.Schedule, internal []sched.Task, ports int) []sched.Task {
	if ports == 0 {
		return internal
	}
	tasks := append(append([]sched.Task(nil), internal...), s.IOTasks(s.Devices, s.Devices+1)...)
	sort.SliceStable(tasks, func(i, j int) bool {
		si, sj := taskStart(tasks[i]), taskStart(tasks[j])
		if si != sj {
			return si < sj
		}
		return tasks[i].Edge.Parent < tasks[j].Edge.Parent
	})
	return tasks
}

// countValves counts one valve per (edge, endpoint) incidence whose endpoint
// is a switch node; valves inside devices are excluded, matching the paper's
// note that mixer-internal valves are not counted in n_v.
func countValves(g Grid, edges []EdgeID, isDevice map[NodeID]bool) int {
	n := 0
	for _, e := range edges {
		u, v := g.Endpoints(e)
		if !isDevice[u] {
			n++
		}
		if !isDevice[v] {
			n++
		}
	}
	return n
}
