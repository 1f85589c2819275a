package arch_test

import (
	"testing"
	"testing/quick"

	"flowsyn/internal/arch"
	"flowsyn/internal/assay"
	"flowsyn/internal/sched"
	"flowsyn/internal/verify"
)

// These tests check synthesized architectures with the independent checker
// in internal/verify, which imports arch and so needs this external test
// package.

func listSchedule(t *testing.T, name string) (*sched.Schedule, assay.Benchmark) {
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

func TestSynthesizeAllBenchmarks(t *testing.T) {
	for _, name := range assay.Names() {
		t.Run(name, func(t *testing.T) {
			s, b := listSchedule(t, name)
			grid, err := arch.NewGrid(b.GridRows, b.GridCols)
			if err != nil {
				t.Fatal(err)
			}
			res, err := arch.Synthesize(s, grid, arch.Options{ModelIO: b.ModelIO})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Check(s, res).Err(); err != nil {
				t.Fatalf("invalid architecture: %v", err)
			}
			wantRoutes := len(s.Tasks())
			wantPorts := 0
			if b.ModelIO {
				wantRoutes += len(s.IOTasks(s.Devices, s.Devices+1))
				wantPorts = 2
			}
			if len(res.Routes) != wantRoutes {
				t.Errorf("routes = %d, tasks = %d", len(res.Routes), wantRoutes)
			}
			if res.Ports != wantPorts || len(res.DevicePos) != s.Devices+wantPorts {
				t.Errorf("expected %d I/O ports, got %d (placements %d)", wantPorts, res.Ports, len(res.DevicePos))
			}
			if res.NumEdges == 0 && len(s.Tasks()) > 0 {
				t.Error("no edges used despite transport tasks")
			}
			// Fig 8: all ratios strictly below 1.
			if res.EdgeRatio >= 1 || res.ValveRatio >= 1 {
				t.Errorf("ratios not below 1: edge %.2f valve %.2f", res.EdgeRatio, res.ValveRatio)
			}
			if res.NumEdges > res.Grid.NumEdges() {
				t.Error("more used edges than grid edges")
			}
		})
	}
}

func TestPlacementStrategies(t *testing.T) {
	s, b := listSchedule(t, "RA30")
	grid, _ := arch.NewGrid(b.GridRows, b.GridCols)
	for _, strat := range []arch.PlacementStrategy{arch.CommWeighted, arch.RowMajor} {
		res, err := arch.Synthesize(s, grid, arch.Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if err := verify.Check(s, res).Err(); err != nil {
			t.Errorf("%v: %v", strat, err)
		}
	}
}

// TestSynthesizeRandomProperty: random schedules on random grids synthesize
// into valid, conflict-free architectures.
func TestSynthesizeRandomProperty(t *testing.T) {
	prop := func(seed int64) bool {
		g := assay.Random(8+int(seed%13+13)%13, 3, seed)
		s, err := sched.ListSchedule(g, sched.ListOptions{Devices: 3, Transport: 10, Mode: sched.TimeAndStorage})
		if err != nil {
			return false
		}
		grid, err := arch.NewGrid(4, 4)
		if err != nil {
			return false
		}
		res, err := arch.Synthesize(s, grid, arch.Options{})
		if err != nil {
			return false
		}
		return verify.Check(s, res).Err() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
