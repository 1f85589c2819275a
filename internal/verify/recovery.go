package verify

import (
	"flowsyn/internal/arch"
	"flowsyn/internal/sched"
	"flowsyn/internal/sim"
)

// sameRoute reports whether two routes realize the same task over the same
// grid resources, path for path.
func sameRoute(a, b arch.Route) bool {
	if a.Task != b.Task || a.StorageEdge != b.StorageEdge {
		return false
	}
	eqN := func(x, y []arch.NodeID) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	eqE := func(x, y []arch.EdgeID) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eqN(a.OutNodes, b.OutNodes) && eqE(a.OutEdges, b.OutEdges) &&
		eqN(a.FetchNodes, b.FetchNodes) && eqE(a.FetchEdges, b.FetchEdges)
}

// routeSpanEnd returns the last instant a route occupies the grid.
func routeSpanEnd(r arch.Route) int {
	if r.Task.Kind == sched.Stored {
		return r.Task.FetchEnd
	}
	return r.Task.Arrive
}

// CheckRecovery replays a faulted execution end to end: the original plan up
// to the fault instant, the recovered plan from it. On top of the full
// invariant suite on the recovered result under the storage model it was
// synthesized under (CheckAllStrategy; nil means distributed channel
// storage), it re-derives the splice-point guarantees from first principles:
//
//   - the executed prefix (every operation started before the fault) is
//     preserved verbatim — same device, same window, zero re-executed work —
//     including the departure slots its input transports used;
//   - nothing re-planned starts before the fault instant;
//   - the failed resource is honored: no re-planned operation runs on a
//     failed device, no re-planned route touches a failed channel segment,
//     no re-planned cache sits on a degraded segment (prefix routes may —
//     they completed before the fault existed, which the span check below
//     re-confirms);
//   - the internal routes that fed the prefix are carried over verbatim and
//     ended strictly before the fault;
//   - devices stayed where they were (recovery cannot teleport hardware).
//
// orig/origArch describe the faulted execution, rec/recArch the recovered
// one. The returned report carries every violation found.
func CheckRecovery(orig *sched.Schedule, origArch *arch.Result, rec *sched.Schedule, recArch *arch.Result, fault sim.Fault, m sched.StorageModel) (*Report, error) {
	rep, _ := CheckAllStrategy(rec, recArch, m)

	g := orig.Graph
	if rec.Graph != g {
		rep.addf(InvRecovery, "recovered schedule is for a different graph")
		return rep, rep.Err()
	}
	t := fault.Time

	// Prefix preservation and suffix floor.
	prefix := make([]bool, len(orig.Assignments))
	for _, a := range orig.Assignments {
		name := g.Op(a.Op).Name
		ra := rec.Assignments[a.Op]
		if a.Start < t {
			prefix[a.Op] = true
			if ra != a {
				rep.addf(InvRecovery, "executed op %s re-planned: was d%d [%d,%d), now d%d [%d,%d)",
					name, a.Device, a.Start, a.End, ra.Device, ra.Start, ra.End)
			}
			continue
		}
		if ra.Start < t {
			rep.addf(InvRecovery, "re-planned op %s starts at %d, before the fault at %d",
				name, ra.Start, t)
		}
		if fault.Kind == sim.FaultDevice && ra.Device == fault.Device {
			rep.addf(InvRecovery, "re-planned op %s runs on failed device %d", name, fault.Device)
		}
	}
	for e, off := range orig.DepartOffsets {
		if prefix[e.Child] && rec.DepartOffset(e) != off {
			rep.addf(InvRecovery, "executed transport %s->%s changed departure slot: %d -> %d",
				g.Op(e.Parent).Name, g.Op(e.Child).Name, off, rec.DepartOffset(e))
		}
	}

	if origArch == nil || recArch == nil {
		return rep, rep.Err()
	}

	// Placement stability.
	if len(recArch.DevicePos) != len(origArch.DevicePos) {
		rep.addf(InvRecovery, "recovery changed the device count: %d -> %d",
			len(origArch.DevicePos), len(recArch.DevicePos))
	} else {
		for d, p := range origArch.DevicePos {
			if recArch.DevicePos[d] != p {
				rep.addf(InvRecovery, "recovery moved device %d: node %d -> %d",
					d, p, recArch.DevicePos[d])
			}
		}
	}

	// Executed internal routes carried over verbatim, and already drained
	// when the fault hit.
	recByTask := make(map[sched.Task]arch.Route, len(recArch.Routes))
	for _, r := range recArch.Routes {
		recByTask[r.Task] = r
	}
	preservedTasks := make(map[sched.Task]bool)
	for _, r := range origArch.Routes {
		if r.Task.IO != sched.Internal || !prefix[r.Task.Edge.Child] {
			continue
		}
		preservedTasks[r.Task] = true
		if end := routeSpanEnd(r); end > t {
			rep.addf(InvRecovery, "executed route for %s->%s still live at the fault (ends %d > %d)",
				g.Op(r.Task.Edge.Parent).Name, g.Op(r.Task.Edge.Child).Name, end, t)
		}
		rr, ok := recByTask[r.Task]
		if !ok {
			rep.addf(InvRecovery, "executed route for %s->%s missing from the recovered architecture",
				g.Op(r.Task.Edge.Parent).Name, g.Op(r.Task.Edge.Child).Name)
			continue
		}
		if !sameRoute(r, rr) {
			rep.addf(InvRecovery, "executed route for %s->%s re-routed",
				g.Op(r.Task.Edge.Parent).Name, g.Op(r.Task.Edge.Child).Name)
		}
	}

	// Fault masks on everything re-planned.
	for _, r := range recArch.Routes {
		if preservedTasks[r.Task] {
			continue
		}
		switch fault.Kind {
		case sim.FaultChannel:
			for _, e := range r.Edges() {
				if e == fault.Edge {
					rep.addf(InvRecovery, "re-planned route for %s->%s uses failed segment %d",
						g.Op(r.Task.Edge.Parent).Name, g.Op(r.Task.Edge.Child).Name, fault.Edge)
					break
				}
			}
		case sim.FaultStorage:
			if r.Task.Kind == sched.Stored && r.StorageEdge == fault.Edge {
				rep.addf(InvRecovery, "re-planned route for %s->%s caches on degraded segment %d",
					g.Op(r.Task.Edge.Parent).Name, g.Op(r.Task.Edge.Child).Name, fault.Edge)
			}
		}
	}

	return rep, rep.Err()
}
