package arch

import (
	"testing"
	"time"

	"flowsyn/internal/milp"
	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
)

func directTask(from, to, depart, arrive int) sched.Task {
	return sched.Task{
		Edge: seqgraph.Edge{Parent: 0, Child: 1},
		From: from, To: to,
		Kind:   sched.Direct,
		Depart: depart, Arrive: arrive,
	}
}

func TestILPSinglePathFixedPlacement(t *testing.T) {
	grid, _ := NewGrid(2, 3)
	// Devices at opposite ends of the top row; shortest path uses 2 edges.
	fixed := []NodeID{grid.Node(0, 0), grid.Node(0, 2)}
	res, err := SynthesizeILP(grid, 2, []sched.Task{directTask(0, 1, 0, 10)},
		ILPOptions{FixedPlacement: fixed, TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if len(res.UsedEdges) != 2 {
		t.Errorf("used edges = %d, want 2 (objective %g)", len(res.UsedEdges), res.Objective)
	}
}

func TestILPTwoOverlappingPathsAreDisjoint(t *testing.T) {
	grid, _ := NewGrid(3, 3)
	// Two concurrent transports between the same device pair must use
	// disjoint edge sets (constraint (10)).
	fixed := []NodeID{grid.Node(0, 0), grid.Node(0, 2)}
	tasks := []sched.Task{
		directTask(0, 1, 0, 10),
		directTask(1, 0, 5, 15),
	}
	res, err := SynthesizeILP(grid, 2, tasks,
		ILPOptions{FixedPlacement: fixed, TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible() {
		t.Fatalf("status = %v", res.Status)
	}
	seen := map[EdgeID]bool{}
	for _, e := range res.PathEdges[0] {
		seen[e] = true
	}
	for _, e := range res.PathEdges[1] {
		if seen[e] {
			t.Errorf("edge %d shared by overlapping paths", e)
		}
	}
	// Minimum: 2 edges one way + 4 the other (disjoint detour) = 6.
	if len(res.UsedEdges) < 6 {
		t.Errorf("used edges = %d, want >= 6 for two disjoint paths", len(res.UsedEdges))
	}
}

func TestILPSequentialPathsShareEdges(t *testing.T) {
	grid, _ := NewGrid(3, 3)
	fixed := []NodeID{grid.Node(0, 0), grid.Node(0, 2)}
	tasks := []sched.Task{
		directTask(0, 1, 0, 10),
		directTask(1, 0, 20, 30), // disjoint in time: may reuse edges
	}
	res, err := SynthesizeILP(grid, 2, tasks,
		ILPOptions{FixedPlacement: fixed, TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if len(res.UsedEdges) != 2 {
		t.Errorf("used edges = %d, want 2 (time multiplexing reuses the channel)", len(res.UsedEdges))
	}
}

func TestILPFreePlacement(t *testing.T) {
	grid, _ := NewGrid(2, 2)
	res, err := SynthesizeILP(grid, 2, []sched.Task{directTask(0, 1, 0, 10)},
		ILPOptions{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible() {
		t.Fatalf("status = %v", res.Status)
	}
	// Free placement should put the devices adjacent: one edge suffices.
	if len(res.UsedEdges) != 1 {
		t.Errorf("used edges = %d, want 1 with free placement", len(res.UsedEdges))
	}
	if res.DevicePos[0] == res.DevicePos[1] {
		t.Error("both devices on one node")
	}
}

func TestILPRejectsStoredTasks(t *testing.T) {
	grid, _ := NewGrid(2, 2)
	stored := sched.Task{Kind: sched.Stored, From: 0, To: 1}
	if _, err := SynthesizeILP(grid, 2, []sched.Task{stored}, ILPOptions{}); err == nil {
		t.Error("stored task accepted by exact mode")
	}
	same := directTask(0, 0, 0, 10)
	if _, err := SynthesizeILP(grid, 1, []sched.Task{same}, ILPOptions{}); err == nil {
		t.Error("same-device task accepted by exact mode")
	}
}

func TestILPMatchesHeuristicEdgeCount(t *testing.T) {
	// On a tiny instance the heuristic router should match the exact
	// optimum (one shortest path, no conflicts).
	grid, _ := NewGrid(2, 3)
	fixed := []NodeID{grid.Node(0, 0), grid.Node(0, 2)}
	task := directTask(0, 1, 0, 10)

	exact, err := SynthesizeILP(grid, 2, []sched.Task{task},
		ILPOptions{FixedPlacement: fixed, TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	r := newRouter(grid, fixed, -1, Options{ReuseCost: 10, NewCost: 30})
	route, err := r.routeDirect(0, task, fixed[0], fixed[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(route.OutEdges) != len(exact.UsedEdges) {
		t.Errorf("heuristic path %d edges, exact optimum %d", len(route.OutEdges), len(exact.UsedEdges))
	}
}
