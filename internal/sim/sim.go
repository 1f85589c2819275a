// Package sim replays a synthesized biochip executing its schedule,
// reporting which channel segments transport or cache fluids at any moment —
// the information behind the paper's Fig. 11 execution snapshots — together
// with channel-utilization statistics.
package sim

import (
	"fmt"
	"slices"

	"flowsyn/internal/arch"
	"flowsyn/internal/sched"
)

// SegmentState is the role of a channel segment at one instant.
type SegmentState int

const (
	// Unused means the segment was pruned from the chip.
	Unused SegmentState = iota
	// Idle means the segment is built but carries nothing right now.
	Idle
	// Transporting means a fluid is moving through the segment.
	Transporting
	// Caching means the segment holds a stored fluid (distributed storage).
	Caching
)

// String names the state.
func (s SegmentState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Transporting:
		return "transporting"
	case Caching:
		return "caching"
	default:
		return "unused"
	}
}

// Simulator replays a synthesis result over time.
type Simulator struct {
	res     *arch.Result
	sched   *sched.Schedule
	horizon int
}

// New builds a simulator for the given architecture and schedule.
func New(res *arch.Result, s *sched.Schedule) *Simulator {
	h := s.Makespan
	for i := range res.Routes {
		t := &res.Routes[i].Task
		end := t.Arrive
		if t.Kind == sched.Stored {
			end = t.FetchEnd
		}
		if end > h {
			h = end
		}
	}
	return &Simulator{res: res, sched: s, horizon: h}
}

// Snapshot is the chip state at one instant.
type Snapshot struct {
	// Time is the snapshot instant in seconds.
	Time int
	// OutOfRange marks snapshots taken before the execution starts (t < 0)
	// or after it fully drains (t > Horizon()): the segment map is still
	// rendered (all idle) but carries no execution state, and
	// callers should not mistake it for a quiet moment mid-run.
	OutOfRange bool
	// Segment maps every built segment (the chip's UsedEdges) to its state
	// at Time. A pruned edge is absent and reads as the zero value Unused,
	// which the renderers rely on.
	Segment map[arch.EdgeID]SegmentState
	// RunningOps lists operations executing at Time, in OpID order.
	RunningOps []string
	// ActiveRoutes indexes the routes with live transports at Time.
	ActiveRoutes []int
	// CachedSamples counts fluids held in channel storage at Time.
	CachedSamples int
	// UnitSamples counts fluids resident in the dedicated storage unit at
	// Time (always zero for distributed-strategy schedules).
	UnitSamples int
}

// Horizon is the instant the chip fully drains: the schedule makespan
// extended by any route still moving fluid past it (with boundary I/O
// modeled, the last product's move-out completes after its operation — and
// with it the makespan — ends). Utilization integrates to the horizon, not
// the makespan, so those tail seconds are not silently diluted out of its
// denominator.
func (sim *Simulator) Horizon() int { return sim.horizon }

// At computes the chip state at time t.
func (sim *Simulator) At(t int) *Snapshot {
	snap := &Snapshot{}
	sim.Fill(snap, t)
	return snap
}

// Fill computes the chip state at time t into snap, reusing its storage: the
// segment map is cleared and the slices truncated. A caller replaying many
// instants fills one snapshot instead of allocating one per instant.
func (sim *Simulator) Fill(snap *Snapshot, t int) {
	if snap.Segment == nil {
		snap.Segment = make(map[arch.EdgeID]SegmentState, len(sim.res.UsedEdges))
	} else {
		clear(snap.Segment)
	}
	*snap = Snapshot{
		Time:         t,
		OutOfRange:   t < 0 || t > sim.horizon,
		Segment:      snap.Segment,
		RunningOps:   snap.RunningOps[:0],
		ActiveRoutes: snap.ActiveRoutes[:0],
	}
	for _, e := range sim.res.UsedEdges {
		snap.Segment[e] = Idle
	}
	in := func(start, end int) bool { return t >= start && t < end }
	for i := range sim.res.Routes {
		route := &sim.res.Routes[i]
		task := &route.Task
		active := false
		if task.Kind == sched.Direct {
			if in(task.Depart, task.Arrive) {
				active = true
				for _, e := range route.OutEdges {
					snap.Segment[e] = Transporting
				}
			}
		} else if task.Unit {
			// The fluid waits in the dedicated unit between its two transport
			// legs; no channel segment caches it.
			if in(task.OutStart, task.OutEnd) {
				active = true
				for _, e := range route.OutEdges {
					snap.Segment[e] = Transporting
				}
			}
			if in(task.OutEnd, task.FetchStart) {
				active = true
				snap.UnitSamples++
			}
			if in(task.FetchStart, task.FetchEnd) {
				active = true
				for _, e := range route.FetchEdges {
					snap.Segment[e] = Transporting
				}
			}
		} else {
			if in(task.OutStart, task.OutEnd) {
				active = true
				for _, e := range route.OutEdges {
					snap.Segment[e] = Transporting
				}
				snap.Segment[route.StorageEdge] = Transporting
			}
			if in(task.OutEnd, task.FetchStart) {
				active = true
				snap.Segment[route.StorageEdge] = Caching
				snap.CachedSamples++
			}
			if in(task.FetchStart, task.FetchEnd) {
				active = true
				snap.Segment[route.StorageEdge] = Transporting
				for _, e := range route.FetchEdges {
					snap.Segment[e] = Transporting
				}
			}
		}
		if active {
			snap.ActiveRoutes = append(snap.ActiveRoutes, i)
		}
	}
	for _, a := range sim.sched.Assignments {
		if in(a.Start, a.End) {
			snap.RunningOps = append(snap.RunningOps, sim.sched.Graph.Op(a.Op).Name)
		}
	}
	slices.Sort(snap.RunningOps)
}

// Utilization summarizes how efficiently the built channel segments are
// used over the whole execution — the efficiency argument of the paper's
// Section 1 ("the efficiency of channels and valves is improved").
type Utilization struct {
	// Makespan is the schedule makespan t^E.
	Makespan int
	// Horizon is the instant the chip fully drains — at least Makespan, and
	// later when boundary I/O keeps moving the last product out past it. It
	// is the denominator of MeanUtilization: dividing by the makespan alone
	// over-counted executions whose busy seconds extend beyond it.
	Horizon int
	// BusySeconds maps each used edge to its total busy time.
	BusySeconds map[arch.EdgeID]int
	// TransportSeconds and CacheSeconds split the busy time by role.
	TransportSeconds, CacheSeconds int
	// UnitSeconds is the total fluid-seconds spent inside the dedicated
	// storage unit (not channel time — the unit is off the grid).
	UnitSeconds int
	// MeanUtilization is mean(busy)/horizon over used edges, in [0,1].
	MeanUtilization float64
}

// Utilization integrates segment business over the execution.
func (sim *Simulator) Utilization() *Utilization {
	u := &Utilization{
		Makespan:    sim.sched.Makespan,
		Horizon:     sim.Horizon(),
		BusySeconds: make(map[arch.EdgeID]int, len(sim.res.UsedEdges)),
	}
	add := func(e arch.EdgeID, secs int) {
		if secs > 0 {
			u.BusySeconds[e] += secs
		}
	}
	for _, route := range sim.res.Routes {
		t := route.Task
		if t.Kind == sched.Direct {
			for _, e := range route.OutEdges {
				add(e, t.Arrive-t.Depart)
			}
			u.TransportSeconds += (t.Arrive - t.Depart) * len(route.OutEdges)
			continue
		}
		outD := t.OutEnd - t.OutStart
		fetchD := t.FetchEnd - t.FetchStart
		cacheD := t.FetchStart - t.OutEnd
		for _, e := range route.OutEdges {
			add(e, outD)
		}
		for _, e := range route.FetchEdges {
			add(e, fetchD)
		}
		if t.Unit {
			// The waiting happens inside the unit; no channel holds the fluid.
			u.TransportSeconds += outD*len(route.OutEdges) + fetchD*len(route.FetchEdges)
			u.UnitSeconds += cacheD
			continue
		}
		add(route.StorageEdge, outD+cacheD+fetchD)
		u.TransportSeconds += outD*(len(route.OutEdges)+1) + fetchD*(len(route.FetchEdges)+1)
		u.CacheSeconds += cacheD
	}
	if len(sim.res.UsedEdges) > 0 && u.Horizon > 0 {
		total := 0
		for _, e := range sim.res.UsedEdges {
			total += u.BusySeconds[e]
		}
		u.MeanUtilization = float64(total) / float64(len(sim.res.UsedEdges)*u.Horizon)
	}
	return u
}

// InterestingTimes returns the moments when caching activity changes — good
// candidates for Fig. 11-style snapshots.
func (sim *Simulator) InterestingTimes() []int {
	set := map[int]bool{}
	for _, route := range sim.res.Routes {
		t := route.Task
		if t.Kind == sched.Stored {
			set[t.OutStart] = true
			set[t.OutEnd] = true
			set[t.FetchStart] = true
		} else {
			set[t.Depart] = true
		}
	}
	out := make([]int, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// Describe renders a compact textual summary of a snapshot.
func (s *Snapshot) Describe() string {
	transporting, caching := 0, 0
	for _, st := range s.Segment {
		switch st {
		case Transporting:
			transporting++
		case Caching:
			caching++
		}
	}
	return fmt.Sprintf("t=%ds: ops %v, %d segment(s) transporting, %d caching",
		s.Time, s.RunningOps, transporting, caching)
}
