package sim

import (
	"testing"

	"flowsyn/internal/sched"
)

// The half-open interval semantics of At: every phase owns its start instant
// and has released its end instant. These boundaries are exactly where the
// replay, the scheduler's exclusivity argument and the utilization integral
// must agree — an off-by-one here double-counts a segment at a phase handoff
// or drops a cached sample for one second.

// TestSnapshotStoredBoundaries walks a stored route's three phase boundaries.
func TestSnapshotStoredBoundaries(t *testing.T) {
	sim, _, res := simulatorFor(t, "RA30")
	idx := -1
	for i, r := range res.Routes {
		task := r.Task
		if task.Kind == sched.Stored && task.OutStart < task.OutEnd &&
			task.OutEnd < task.FetchStart && task.FetchStart < task.FetchEnd {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("RA30 has no stored route with three distinct phases")
	}
	route := res.Routes[idx]
	task := route.Task
	active := func(at int) bool {
		for _, r := range sim.At(at).ActiveRoutes {
			if r == idx {
				return true
			}
		}
		return false
	}

	cases := []struct {
		name    string
		at      int
		active  bool
		storage SegmentState
	}{
		// The move-out owns its start: fluid is on the channel at OutStart.
		{"OutStart", task.OutStart, true, Transporting},
		// At OutEnd the move-out has released the channel and the cache
		// phase owns the instant: the sample sits on the storage edge.
		{"OutEnd", task.OutEnd, true, Caching},
		// At FetchStart the cache phase has ended and the fetch owns the
		// instant: the storage edge transports again.
		{"FetchStart", task.FetchStart, true, Transporting},
		// At FetchEnd the route is fully drained and inactive.
		{"FetchEnd", task.FetchEnd, false, Idle},
	}
	for _, c := range cases {
		if got := active(c.at); got != c.active {
			t.Errorf("%s (t=%d): route active = %v, want %v", c.name, c.at, got, c.active)
		}
		if !c.active {
			continue // a released edge may be claimed by another route
		}
		if st := sim.At(c.at).Segment[route.StorageEdge]; st != c.storage {
			t.Errorf("%s (t=%d): storage edge %v, want %v", c.name, c.at, st, c.storage)
		}
	}

	// CachedSamples must flip exactly at the boundaries: counted at OutEnd,
	// gone at FetchStart (relative to a probe inside the cache window).
	mid := (task.OutEnd + task.FetchStart) / 2
	if sim.At(mid).CachedSamples < 1 {
		t.Errorf("no cached sample mid-cache at t=%d", mid)
	}
}

// TestSnapshotDirectBoundaries checks a direct transport's [Depart, Arrive)
// window.
func TestSnapshotDirectBoundaries(t *testing.T) {
	sim, _, res := simulatorFor(t, "RA30")
	idx := -1
	for i, r := range res.Routes {
		if r.Task.Kind == sched.Direct && r.Task.Depart < r.Task.Arrive {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("RA30 has no direct route")
	}
	task := res.Routes[idx].Task
	active := func(at int) bool {
		for _, r := range sim.At(at).ActiveRoutes {
			if r == idx {
				return true
			}
		}
		return false
	}
	if !active(task.Depart) {
		t.Errorf("direct route inactive at its departure t=%d", task.Depart)
	}
	if active(task.Arrive) {
		t.Errorf("direct route still active at its arrival t=%d", task.Arrive)
	}
	if task.Depart > 0 && active(task.Depart-1) {
		t.Errorf("direct route active before departure at t=%d", task.Depart-1)
	}
}

// TestFaultRendering covers the fault log/labels and the prefix membership
// helper.
func TestFaultRendering(t *testing.T) {
	for _, c := range []struct {
		fault Fault
		want  string
	}{
		{Fault{Kind: FaultDevice, Device: 2, Time: 130}, "device 2 fails at t=130"},
		{Fault{Kind: FaultChannel, Edge: 5, Time: 40}, "channel segment 5 fails at t=40"},
		{Fault{Kind: FaultStorage, Edge: 5, Time: 40}, "storage on segment 5 degrades at t=40"},
		{Fault{Kind: FaultKind(9), Time: 7}, "unknown fault at t=7"},
	} {
		if got := c.fault.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.fault, got, c.want)
		}
	}
	for k, want := range map[FaultKind]string{
		FaultDevice: "device", FaultChannel: "channel", FaultStorage: "degraded-storage",
		FaultKind(9): "fault-kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}

	sim, s, _ := simulatorFor(t, "PCR")
	prefix := sim.ExecutionPrefix(s.Makespan / 2)
	for _, a := range s.Assignments {
		if got, want := prefix.Pinned(a.Op), a.Start < s.Makespan/2; got != want {
			t.Errorf("Pinned(%d) = %v, want %v (start %d, cut %d)", a.Op, got, want, a.Start, s.Makespan/2)
		}
	}
}

// TestSnapshotOutOfRange probes At outside [0, Horizon]: the segment map is
// rendered and no execution state leaks in — the regression was
// MeanUtilization trusting sched.Makespan while boundary I/O kept draining
// past it.
func TestSnapshotOutOfRange(t *testing.T) {
	sim, s, res := simulatorFor(t, "RA30")
	h := sim.Horizon()
	if h < s.Makespan {
		t.Fatalf("horizon %d < makespan %d", h, s.Makespan)
	}
	for _, c := range []struct {
		at  int
		out bool
	}{
		{-1, true}, {0, false}, {h, false}, {h + 1, true}, {h + 1000, true},
	} {
		if snap := sim.At(c.at); snap.OutOfRange != c.out {
			t.Errorf("At(%d).OutOfRange = %v, want %v", c.at, snap.OutOfRange, c.out)
		}
	}
	for _, at := range []int{-5, h + 7} {
		snap := sim.At(at)
		if len(snap.RunningOps) != 0 || len(snap.ActiveRoutes) != 0 || snap.CachedSamples != 0 {
			t.Errorf("out-of-range snapshot at t=%d carries execution state: %+v", at, snap)
		}
		if len(snap.Segment) != len(res.UsedEdges) {
			t.Errorf("t=%d: %d segment states for %d used edges", at, len(snap.Segment), len(res.UsedEdges))
		}
		for e, st := range snap.Segment {
			if st != Idle {
				t.Errorf("t=%d: edge %d is %v, want idle", at, e, st)
			}
		}
	}

	// Utilization integrates to the horizon, not the makespan.
	if u := sim.Utilization(); u.Horizon != h {
		t.Errorf("utilization horizon %d, want %d", u.Horizon, h)
	}
}
