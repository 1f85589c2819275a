package arch

import (
	"testing"

	"flowsyn/internal/assay"
	"flowsyn/internal/sched"
)

func scheduleFor(t *testing.T, name string) (*sched.Schedule, assay.Benchmark) {
	t.Helper()
	b := assay.MustGet(name)
	s, err := sched.ListSchedule(b.Graph, sched.ListOptions{
		Devices: b.Devices, Transport: b.Transport, Mode: sched.TimeAndStorage,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

func synthesizeBenchmark(t *testing.T, name string) (*Result, *sched.Schedule) {
	t.Helper()
	s, b := scheduleFor(t, name)
	grid, err := NewGrid(b.GridRows, b.GridCols)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(s, grid, Options{ModelIO: b.ModelIO})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, s
}

func TestExpectedTasksMatchesRoutedWorkload(t *testing.T) {
	for _, name := range assay.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, s := synthesizeBenchmark(t, name)
			tasks := ExpectedTasks(s, res.Ports)
			if len(tasks) != len(res.Routes) {
				t.Fatalf("ExpectedTasks returns %d tasks, synthesis routed %d", len(tasks), len(res.Routes))
			}
			for i, task := range tasks {
				if res.Routes[i].Task != task {
					t.Fatalf("task %d: expected %v, routed %v", i, task, res.Routes[i].Task)
				}
			}
			// Without ports the workload is exactly the internal task list.
			if res.Ports == 0 {
				internal := s.Tasks()
				for i, task := range tasks {
					if internal[i] != task {
						t.Fatalf("portless task %d diverges from Schedule.Tasks", i)
					}
				}
			}
		})
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, _ := synthesizeBenchmark(t, "RA30")
	b, _ := synthesizeBenchmark(t, "RA30")
	if a.NumEdges != b.NumEdges || a.NumValves != b.NumValves {
		t.Errorf("non-deterministic synthesis: (%d,%d) vs (%d,%d)",
			a.NumEdges, a.NumValves, b.NumEdges, b.NumValves)
	}
	for i := range a.DevicePos {
		if a.DevicePos[i] != b.DevicePos[i] {
			t.Errorf("placement differs at device %d", i)
		}
	}
}

func TestValveAccounting(t *testing.T) {
	res, _ := synthesizeBenchmark(t, "PCR")
	// Valves are between 1 and 2 per used edge (endpoints at devices are
	// excluded).
	if res.NumValves > 2*res.NumEdges {
		t.Errorf("valves %d exceed 2 per edge (%d edges)", res.NumValves, res.NumEdges)
	}
	if res.NumValves <= 0 {
		t.Errorf("no valves counted")
	}
}

func TestPlaceErrors(t *testing.T) {
	grid, _ := NewGrid(2, 2)
	if _, err := Place(grid, 0, nil, CommWeighted); err == nil {
		t.Error("zero devices accepted")
	}
	if _, err := Place(grid, 3, nil, CommWeighted); err == nil {
		t.Error("overfull grid accepted")
	}
}

func TestPlaceDistinctNodes(t *testing.T) {
	grid, _ := NewGrid(4, 4)
	s, _ := scheduleFor(t, "RA30")
	pos, err := Place(grid, 5, s.Tasks(), CommWeighted)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[NodeID]bool{}
	for _, p := range pos {
		if seen[p] {
			t.Fatalf("two devices on node %d", p)
		}
		seen[p] = true
	}
}

func TestFixedPlacement(t *testing.T) {
	s, b := scheduleFor(t, "IVD")
	grid, _ := NewGrid(b.GridRows, b.GridCols)
	fixed := []NodeID{grid.Node(1, 1), grid.Node(2, 2)}
	res, err := Synthesize(s, grid, Options{FixedPlacement: fixed})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.DevicePos {
		if p != fixed[i] {
			t.Errorf("device %d at %d, want %d", i, p, fixed[i])
		}
	}
	// With I/O modeled the placement must also cover the two ports.
	withPorts := []NodeID{grid.Node(1, 1), grid.Node(2, 2), grid.Node(0, 0), grid.Node(3, 3)}
	io, err := Synthesize(s, grid, Options{FixedPlacement: withPorts, ModelIO: true})
	if err != nil {
		t.Fatalf("fixed placement with ports: %v", err)
	}
	// Pinned routes must lie on the grid; forbidden IDs off the grid name no
	// segment.
	off := io.Routes[0]
	off.OutEdges = append([]EdgeID{EdgeID(grid.NumEdges())}, off.OutEdges[1:]...)
	if _, err := Synthesize(s, grid, Options{FixedPlacement: withPorts, ModelIO: true, PinnedRoutes: []Route{off}}); err == nil {
		t.Error("off-grid pinned route accepted")
	}
	offGrid := []EdgeID{-1, EdgeID(grid.NumEdges())}
	if _, err := Synthesize(s, grid, Options{FixedPlacement: withPorts, ModelIO: true,
		ForbiddenEdges: offGrid, ForbiddenStorage: offGrid}); err != nil {
		t.Errorf("off-grid forbidden segments: %v", err)
	}
	if _, err := Synthesize(s, grid, Options{FixedPlacement: fixed, ModelIO: true}); err == nil {
		t.Error("placement without port nodes accepted while I/O is modeled")
	}
	if _, err := Synthesize(s, grid, Options{FixedPlacement: []NodeID{0}}); err == nil {
		t.Error("short fixed placement accepted")
	}
	if _, err := Synthesize(s, grid, Options{FixedPlacement: []NodeID{0, 99}}); err == nil {
		t.Error("out-of-grid fixed placement accepted")
	}
}

func TestEdgeReuseLowersEdgeCount(t *testing.T) {
	// Reuse-preferring costs must never use more edges than plain shortest
	// path on the same instance (ablation for the paper's objective (12)).
	s, b := scheduleFor(t, "RA30")
	grid, _ := NewGrid(b.GridRows, b.GridCols)
	reuse, err := Synthesize(s, grid, Options{ReuseCost: 10, NewCost: 30})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Synthesize(s, grid, Options{ReuseCost: 10, NewCost: 10})
	if err != nil {
		t.Fatal(err)
	}
	if reuse.NumEdges > flat.NumEdges {
		t.Errorf("reuse-aware routing used %d edges, flat-cost %d", reuse.NumEdges, flat.NumEdges)
	}
}

func TestSwitchesExcludeDevices(t *testing.T) {
	res, _ := synthesizeBenchmark(t, "RA30")
	for _, sw := range res.Switches() {
		if res.IsDeviceNode(sw) {
			t.Errorf("switch list contains device node %d", sw)
		}
	}
}
