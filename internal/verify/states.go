package verify

import (
	"slices"

	"flowsyn/internal/arch"
	"flowsyn/internal/sched"
	"flowsyn/internal/sim"
)

// SegmentRole is the checker's classification of a channel segment at one
// instant. It mirrors sim.SegmentState for built segments, but is computed
// by a structurally different algorithm — the routes' task windows are
// flattened once into per-segment interval claims, which are then evaluated
// per instant — so drift in either implementation shows up as disagreement.
type SegmentRole int

const (
	// RoleIdle means the segment is built but carries nothing at the instant.
	RoleIdle SegmentRole = iota
	// RoleTransporting means a fluid moves through the segment.
	RoleTransporting
	// RoleCaching means the segment holds a stored fluid.
	RoleCaching
)

// String names the role.
func (r SegmentRole) String() string {
	switch r {
	case RoleTransporting:
		return "transporting"
	case RoleCaching:
		return "caching"
	default:
		return "idle"
	}
}

// roleWindow claims one segment for [start, end) in the given role.
type roleWindow struct {
	start, end int
	role       SegmentRole
}

// Accounting is the checker's per-instant view of a synthesized chip: every
// route's task windows flattened into per-segment interval claims, built
// once and evaluated at any instant.
type Accounting struct {
	edges   []arch.EdgeID
	windows map[arch.EdgeID][]roleWindow
	// caches holds every caching window, for the cached-fluid count.
	caches []roleWindow
	// unitCaches holds every unit-residency window (fluids waiting inside the
	// dedicated storage unit, off the grid), for the unit-resident count.
	unitCaches []roleWindow
	// horizon is the last instant anything can still be live on the chip:
	// the end of the latest claim (transports may outlive the makespan, e.g.
	// product unloading).
	horizon int
}

// NewAccounting flattens the architecture's routes into interval claims.
// Claims are recorded in route order, later routes after earlier ones, so
// evaluation resolves overlaps exactly like the simulator's route replay.
func NewAccounting(a *arch.Result) *Accounting {
	ac := &Accounting{
		edges:   a.UsedEdges,
		windows: make(map[arch.EdgeID][]roleWindow, len(a.UsedEdges)),
	}
	add := func(e arch.EdgeID, w roleWindow) {
		if w.start < w.end {
			ac.windows[e] = append(ac.windows[e], w)
			if w.end > ac.horizon {
				ac.horizon = w.end
			}
		}
	}
	for _, route := range a.Routes {
		t := route.Task
		if t.Kind == sched.Direct {
			for _, e := range route.OutEdges {
				add(e, roleWindow{t.Depart, t.Arrive, RoleTransporting})
			}
			continue
		}
		if t.Unit {
			// Unit-stored: two transport legs, residency inside the unit (off
			// the grid, so no segment ever shows RoleCaching for it).
			for _, e := range route.OutEdges {
				add(e, roleWindow{t.OutStart, t.OutEnd, RoleTransporting})
			}
			for _, e := range route.FetchEdges {
				add(e, roleWindow{t.FetchStart, t.FetchEnd, RoleTransporting})
			}
			if t.OutEnd < t.FetchStart {
				ac.unitCaches = append(ac.unitCaches, roleWindow{t.OutEnd, t.FetchStart, RoleCaching})
			}
			continue
		}
		for _, e := range route.OutEdges {
			add(e, roleWindow{t.OutStart, t.OutEnd, RoleTransporting})
		}
		add(route.StorageEdge, roleWindow{t.OutStart, t.OutEnd, RoleTransporting})
		add(route.StorageEdge, roleWindow{t.OutEnd, t.FetchStart, RoleCaching})
		if t.OutEnd < t.FetchStart {
			ac.caches = append(ac.caches, roleWindow{t.OutEnd, t.FetchStart, RoleCaching})
		}
		add(route.StorageEdge, roleWindow{t.FetchStart, t.FetchEnd, RoleTransporting})
		for _, e := range route.FetchEdges {
			add(e, roleWindow{t.FetchStart, t.FetchEnd, RoleTransporting})
		}
	}
	return ac
}

// At evaluates the claims at time t: the role of every built segment plus
// the number of cached fluids.
func (ac *Accounting) At(t int) (states map[arch.EdgeID]SegmentRole, cached int) {
	states = make(map[arch.EdgeID]SegmentRole, len(ac.edges))
	for _, e := range ac.edges {
		role := RoleIdle
		// Later claims win, mirroring the simulator's route-order replay;
		// on a valid chip the claims are disjoint anyway.
		for _, w := range ac.windows[e] {
			if t >= w.start && t < w.end {
				role = w.role
			}
		}
		states[e] = role
	}
	for _, w := range ac.caches {
		if t >= w.start && t < w.end {
			cached++
		}
	}
	return states, cached
}

// UnitAt returns the number of fluids resident in the dedicated storage unit
// at time t.
func (ac *Accounting) UnitAt(t int) int {
	n := 0
	for _, w := range ac.unitCaches {
		if t >= w.start && t < w.end {
			n++
		}
	}
	return n
}

// StatesAt recomputes the role of every built channel segment at time t,
// plus the number of cached fluids. One-shot convenience around Accounting.
func StatesAt(a *arch.Result, t int) (states map[arch.EdgeID]SegmentRole, cached int) {
	return NewAccounting(a).At(t)
}

// Horizon returns the last instant at which anything can still be live on
// the chip: the makespan, extended by transports that outlive it (e.g.
// product unloading).
func Horizon(s *sched.Schedule, a *arch.Result) int {
	h := s.Makespan
	if ah := NewAccounting(a).horizon; ah > h {
		h = ah
	}
	return h
}

// changePoints returns, ascending and without repeats, instant 0 plus every
// time field of every routed task that lies in [0, horizon]. The points come
// from the raw routes, not from either side of CheckSim, and every window of
// both sides opens and closes at one of these fields.
func changePoints(a *arch.Result, horizon int) []int {
	pts := make([]int, 1, 1+6*len(a.Routes))
	for i := range a.Routes {
		t := &a.Routes[i].Task
		for _, p := range [...]int{t.Depart, t.Arrive, t.OutStart, t.OutEnd, t.FetchStart, t.FetchEnd} {
			if p > 0 && p <= horizon {
				pts = append(pts, p)
			}
		}
	}
	slices.Sort(pts)
	return slices.Compact(pts)
}

// CheckSim replays the result through the execution simulator (internal/sim)
// and asserts that the simulator's snapshot agrees with the checker's
// interval accounting — segment by segment, cached-fluid count and unit
// residents — at every change point from 0 through the horizon. No window on
// either side opens or closes between two consecutive change points, so both
// sides are constant there and checking the points is equivalent to checking
// every instant. The two sides read the same routed tasks but evaluate them
// with different algorithms (per-route window replay vs. flattened interval
// claims), so an off-by-one or semantic drift in either one surfaces as a
// sim-agreement violation.
func CheckSim(s *sched.Schedule, a *arch.Result) error {
	r := &Report{}
	simulator := sim.New(a, s)
	ac := NewAccounting(a)
	horizon := s.Makespan
	if ac.horizon > horizon {
		horizon = ac.horizon
	}
	for _, t := range changePoints(a, horizon) {
		snap := simulator.At(t)
		states, cached := ac.At(t)
		if snap.CachedSamples != cached {
			r.addf(InvSimAgreement, "t=%d: simulator reports %d cached fluids, checker %d",
				t, snap.CachedSamples, cached)
		}
		if unit := ac.UnitAt(t); snap.UnitSamples != unit {
			r.addf(InvSimAgreement, "t=%d: simulator reports %d unit residents, checker %d",
				t, snap.UnitSamples, unit)
		}
		if len(snap.Segment) != len(states) {
			r.addf(InvSimAgreement, "t=%d: simulator tracks %d segments, checker %d",
				t, len(snap.Segment), len(states))
		}
		for e, role := range states {
			simState, ok := snap.Segment[e]
			if !ok {
				r.addf(InvSimAgreement, "t=%d: segment %d missing from the simulator snapshot", t, e)
				continue
			}
			if simState.String() != role.String() {
				r.addf(InvSimAgreement, "t=%d: segment %d is %v in the simulator but %v for the checker",
					t, e, simState, role)
			}
		}
		// A handful of disagreements pins the bug; a full horizon of them
		// would bury it.
		if len(r.Violations) > 20 {
			r.addf(InvSimAgreement, "stopping after %d disagreements (t=%d of %d)", len(r.Violations), t, horizon)
			break
		}
	}
	return r.Err()
}

// CheckAll runs the full verification: every structural invariant (Check)
// plus the simulator cross-check (CheckSim) when an architecture is present.
// Reported counts can be compared by the caller via the returned report.
func CheckAll(s *sched.Schedule, a *arch.Result) (*Report, error) {
	rep := Check(s, a)
	if err := rep.Err(); err != nil {
		return rep, err
	}
	if a != nil {
		if err := CheckSim(s, a); err != nil {
			if verr, ok := err.(*Error); ok {
				rep.Violations = append(rep.Violations, verr.Violations...)
			}
			return rep, err
		}
	}
	return rep, nil
}
