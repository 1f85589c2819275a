package sim

import (
	"strings"
	"testing"

	"flowsyn/internal/arch"
	"flowsyn/internal/assay"
	"flowsyn/internal/sched"
)

func simulatorFor(t *testing.T, name string) (*Simulator, *sched.Schedule, *arch.Result) {
	t.Helper()
	b := assay.MustGet(name)
	s, err := sched.ListSchedule(b.Graph, sched.ListOptions{
		Devices: b.Devices, Transport: b.Transport, Mode: sched.TimeAndStorage,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := arch.NewGrid(b.GridRows, b.GridCols)
	if err != nil {
		t.Fatal(err)
	}
	res, err := arch.Synthesize(s, grid, arch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return New(res, s), s, res
}

func TestSnapshotStates(t *testing.T) {
	sim, s, res := simulatorFor(t, "RA30")
	// At every interesting moment the snapshot must be internally
	// consistent: used edges have states, unused edges have none.
	usedSet := res.UsedEdgeSet()
	for _, ts := range sim.InterestingTimes() {
		snap := sim.At(ts)
		if len(snap.Segment) != len(res.UsedEdges) {
			t.Fatalf("t=%d: %d segment states for %d used edges", ts, len(snap.Segment), len(res.UsedEdges))
		}
		for e, st := range snap.Segment {
			if !usedSet[e] {
				t.Fatalf("t=%d: state %v for unused edge %d", ts, st, e)
			}
		}
		if snap.Time < 0 || snap.Time > s.Makespan {
			t.Fatalf("snapshot outside execution window: %d", snap.Time)
		}
	}
}

func TestSnapshotCaching(t *testing.T) {
	sim, s, _ := simulatorFor(t, "RA30")
	// Peak cached samples over the timeline equals the schedule's storage
	// capacity.
	peak := 0
	for ts := 0; ts <= s.Makespan; ts++ {
		if c := sim.At(ts).CachedSamples; c > peak {
			peak = c
		}
	}
	if want := s.StorageCapacity(); peak != want {
		t.Errorf("peak cached samples = %d, want %d", peak, want)
	}
}

func TestSnapshotRunningOps(t *testing.T) {
	sim, s, _ := simulatorFor(t, "PCR")
	// Each operation must be visible as running at its midpoint.
	for _, a := range s.Assignments {
		mid := (a.Start + a.End) / 2
		snap := sim.At(mid)
		name := s.Graph.Op(a.Op).Name
		found := false
		for _, op := range snap.RunningOps {
			if op == name {
				found = true
			}
		}
		if !found {
			t.Errorf("op %s not running at its midpoint %d: %v", name, mid, snap.RunningOps)
		}
	}
}

func TestUtilization(t *testing.T) {
	sim, s, res := simulatorFor(t, "RA30")
	u := sim.Utilization()
	if u.Makespan != s.Makespan {
		t.Errorf("makespan = %d, want %d", u.Makespan, s.Makespan)
	}
	if u.MeanUtilization <= 0 || u.MeanUtilization > 1 {
		t.Errorf("mean utilization = %v, want in (0,1]", u.MeanUtilization)
	}
	if u.CacheSeconds <= 0 {
		t.Error("RA30 must cache fluids")
	}
	for e, busy := range u.BusySeconds {
		if busy > u.Makespan {
			t.Errorf("edge %d busy %d s > makespan %d", e, busy, u.Makespan)
		}
		if !res.UsedEdgeSet()[e] {
			t.Errorf("busy seconds recorded for unused edge %d", e)
		}
	}
}

func TestRenderASCII(t *testing.T) {
	sim, _, res := simulatorFor(t, "RA30")
	var caching *Snapshot
	for _, ts := range sim.InterestingTimes() {
		snap := sim.At(ts)
		if snap.CachedSamples > 0 {
			caching = snap
			break
		}
	}
	if caching == nil {
		t.Fatal("no caching moment found in RA30")
	}
	out := RenderASCII(res, caching)
	if !strings.Contains(out, "[d1]") {
		t.Error("ASCII render missing device label")
	}
	if !strings.Contains(out, "#") {
		t.Error("ASCII render missing caching segment")
	}
	if !strings.Contains(out, "legend") {
		t.Error("ASCII render missing legend")
	}
}

func TestRenderSVG(t *testing.T) {
	sim, _, res := simulatorFor(t, "RA30")
	snap := sim.At(sim.InterestingTimes()[0])
	svg := RenderSVG(res, snap)
	for _, want := range []string{"<svg", "</svg>", "<line", "<rect"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestDescribe(t *testing.T) {
	sim, _, _ := simulatorFor(t, "PCR")
	if d := sim.At(0).Describe(); !strings.Contains(d, "t=0s") {
		t.Errorf("Describe = %q", d)
	}
}
