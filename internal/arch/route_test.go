package arch

import (
	"testing"

	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
)

func TestOccupancyReserveAndRelease(t *testing.T) {
	grid, _ := NewGrid(3, 3)
	o := newOccupancy(grid)
	e := EdgeID(3)
	if !o.edgeFree(e, interval{0, 10}) {
		t.Fatal("fresh edge not free")
	}
	o.reserveEdge(7, e, interval{5, 15})
	if o.edgeFree(e, interval{0, 10}) {
		t.Error("overlapping window reported free")
	}
	if !o.edgeFree(e, interval{15, 20}) {
		t.Error("adjacent window reported busy (half-open intervals)")
	}
	if !o.edgeFree(e, interval{0, 5}) {
		t.Error("preceding window reported busy")
	}
	o.release(7)
	if !o.edgeFree(e, interval{5, 15}) {
		t.Error("release did not free the edge")
	}

	n := NodeID(4)
	o.reserveNode(1, n, interval{0, 5})
	o.reserveNode(2, n, interval{5, 10})
	o.release(1)
	if !o.nodeFree(n, interval{0, 5}) {
		t.Error("release removed wrong reservation")
	}
	if o.nodeFree(n, interval{5, 10}) {
		t.Error("release removed another route's reservation")
	}
}

func TestZeroWidthReservationsIgnored(t *testing.T) {
	grid, _ := NewGrid(3, 3)
	o := newOccupancy(grid)
	o.reserveEdge(0, EdgeID(1), interval{5, 5})
	if !o.edgeFree(EdgeID(1), interval{0, 100}) {
		t.Error("empty window reserved")
	}
}

func TestPlacePortsBoundaryNonCorner(t *testing.T) {
	grid, _ := NewGrid(4, 4)
	devices := []NodeID{grid.Node(1, 1), grid.Node(2, 2)}
	in, out, err := PlacePorts(grid, devices)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []NodeID{in, out} {
		r, c := grid.Coords(p)
		onBoundary := r == 0 || r == grid.Rows-1 || c == 0 || c == grid.Cols-1
		corner := (r == 0 || r == grid.Rows-1) && (c == 0 || c == grid.Cols-1)
		if !onBoundary || corner {
			t.Errorf("port at (%d,%d) is not a non-corner boundary node", r, c)
		}
		for _, d := range devices {
			if p == d {
				t.Error("port placed on a device")
			}
		}
	}
	if in == out {
		t.Error("both ports on one node")
	}
	// Input should sit left of output.
	_, ci := grid.Coords(in)
	_, co := grid.Coords(out)
	if ci >= co {
		t.Errorf("input port column %d not left of output column %d", ci, co)
	}
}

func TestPlacePortsAvoidsDeviceNeighbours(t *testing.T) {
	grid, _ := NewGrid(5, 5)
	devices := []NodeID{grid.Node(2, 2)}
	in, out, err := PlacePorts(grid, devices)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []NodeID{in, out} {
		if grid.Manhattan(p, devices[0]) == 1 {
			t.Errorf("port %d adjacent to device", p)
		}
	}
}

func TestRipUpEvictsBlockingCache(t *testing.T) {
	// Construct the textbook rip-up case on a 1x-wide corridor: a cache
	// occupies the only segment between two devices, then a direct task
	// needs exactly that corridor. Rip-up must relocate the cache.
	grid, _ := NewGrid(3, 3)
	a, b := grid.Node(1, 0), grid.Node(1, 2)
	r := newRouter(grid, []NodeID{a, b}, -1, Options{ReuseCost: 10, NewCost: 30})
	storedTask := sched.Task{
		Kind: sched.Stored, From: 0, To: 1,
		OutStart: 0, OutEnd: 5, FetchStart: 100, FetchEnd: 105,
	}
	route0, err := r.routeStored(0, storedTask, a, b)
	if err != nil {
		t.Fatal(err)
	}
	routes := []Route{route0}

	directTask := sched.Task{
		Kind: sched.Direct, From: 0, To: 1,
		Depart: 40, Arrive: 50,
	}
	// Route the direct task; if the cache blocks it, rip-up must save us.
	route1, err := r.routeTask(1, directTask, a, b)
	if err != nil {
		route1, err = r.ripUpAndRetry(1, directTask, a, b, routes)
	}
	if err != nil {
		t.Fatalf("rip-up failed: %v", err)
	}
	if len(route1.OutEdges) == 0 {
		t.Error("empty direct route")
	}
	// The relocated (or original) cache must still be a valid stored route.
	if routes[0].StorageEdge < 0 {
		t.Error("victim lost its storage segment")
	}
}

func TestSpanAndTaskStart(t *testing.T) {
	d := sched.Task{Kind: sched.Direct, Depart: 3, Arrive: 9}
	if span(d) != (interval{3, 9}) || taskStart(d) != 3 {
		t.Error("direct span wrong")
	}
	s := sched.Task{Kind: sched.Stored, OutStart: 2, FetchEnd: 20}
	if span(s) != (interval{2, 20}) || taskStart(s) != 2 {
		t.Error("stored span wrong")
	}
}

// TestILPMatchesHeuristicEdgeCount: one transport on an empty grid has the
// architecture ILP's optimum in closed form, a shortest path of Manhattan
// length, and the heuristic router must find it.
func TestILPMatchesHeuristicEdgeCount(t *testing.T) {
	grid, _ := NewGrid(2, 3)
	fixed := []NodeID{grid.Node(0, 0), grid.Node(0, 2)}
	task := sched.Task{
		Edge: seqgraph.Edge{Parent: 0, Child: 1},
		From: 0, To: 1,
		Kind:   sched.Direct,
		Depart: 0, Arrive: 10,
	}
	r := newRouter(grid, fixed, -1, Options{ReuseCost: 10, NewCost: 30})
	route, err := r.routeDirect(0, task, fixed[0], fixed[1])
	if err != nil {
		t.Fatal(err)
	}
	if want := grid.Manhattan(fixed[0], fixed[1]); len(route.OutEdges) != want {
		t.Errorf("heuristic path %d edges, exact optimum %d", len(route.OutEdges), want)
	}
}
