package sched

import (
	"testing"
	"time"

	"flowsyn/internal/seqgraph"
)

// chainAssay builds a simple two-branch assay for retime tests.
func chainAssay(durA, durB int) *seqgraph.Graph {
	g := seqgraph.New("retime")
	a := g.MustAddOperation("a", seqgraph.Mix, durA, 2)
	b := g.MustAddOperation("b", seqgraph.Mix, durB, 1)
	c := g.MustAddOperation("c", seqgraph.Mix, 40, 1)
	d := g.MustAddOperation("d", seqgraph.Detect, 15, 0)
	g.MustAddDependency(a, b)
	g.MustAddDependency(a, c)
	g.MustAddDependency(b, d)
	g.MustAddDependency(c, d)
	return g
}

func TestRetimeLikeReusesBinding(t *testing.T) {
	g := chainAssay(30, 20)
	prior, err := ListSchedule(g, ListOptions{Devices: 2, Transport: 10})
	if err != nil {
		t.Fatal(err)
	}

	// Same graph: the retimed schedule must be valid and keep the binding.
	same, err := Retime(g, prior, 2, 10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range same.Assignments {
		if same.Assignments[i].Device != prior.Assignments[i].Device {
			t.Errorf("op %d rebound %d -> %d on the unedited graph",
				i, prior.Assignments[i].Device, same.Assignments[i].Device)
		}
	}

	// Edited durations: still valid, binding reused for matching names.
	edited := chainAssay(55, 20)
	re, err := Retime(edited, prior, 2, 10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range re.Assignments {
		if re.Assignments[i].Device != prior.Assignments[i].Device {
			t.Errorf("op %d lost its prior binding after a duration edit", i)
		}
	}

	// New operation: appended, on some valid device, schedule still valid.
	grown := chainAssay(30, 20)
	e := grown.MustAddOperation("e", seqgraph.Heat, 25, 0)
	grown.MustAddDependency(3, e)
	re2, err := Retime(grown, prior, 2, 10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := re2.Validate(); err != nil {
		t.Fatal(err)
	}

	// Fewer devices than the prior schedule used: bindings above the budget
	// are reassigned, result still valid.
	shrunk, err := Retime(g, prior, 1, 10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Devices != 1 {
		t.Errorf("devices = %d, want 1", shrunk.Devices)
	}

	if _, err := Retime(g, prior, 0, 10, nil, nil); err == nil {
		t.Error("zero devices accepted")
	}
	if _, err := Retime(g, prior, 2, 0, nil, nil); err == nil {
		t.Error("zero transport accepted")
	}
}

// TestILPWarmSeedsSolve solves an assay, perturbs it, and re-solves with the
// prior schedule as the Warm hook: the result must stay optimal (identical to
// a cold solve) and valid.
func TestILPWarmSeedsSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("exact solve in -short mode")
	}
	g := chainAssay(30, 20)
	opts := ILPOptions{Devices: 2, Transport: 10, WarmStart: true, TimeLimit: 10 * time.Second}
	prior, _, err := ILPSchedule(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	edited := chainAssay(45, 20)
	cold, coldInfo, err := ILPSchedule(edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := opts
	warmOpts.Warm = prior
	warm, warmInfo, err := ILPSchedule(edited, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Validate(); err != nil {
		t.Fatal(err)
	}
	if warm.Makespan != cold.Makespan {
		t.Errorf("warm-started makespan %d != cold %d (status %v vs %v)",
			warm.Makespan, cold.Makespan, warmInfo.Status, coldInfo.Status)
	}
}

// TestILPProgressEvents checks the incumbent hook fires with plausible data.
func TestILPProgressEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("exact solve in -short mode")
	}
	g := chainAssay(30, 20)
	var events []ProgressEvent
	_, _, err := ILPSchedule(g, ILPOptions{
		Devices: 2, Transport: 10, WarmStart: true, TimeLimit: 10 * time.Second,
		Progress: func(e ProgressEvent) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events from an exact solve")
	}
	for _, e := range events {
		if e.Makespan <= 0 {
			t.Errorf("event without makespan: %+v", e)
		}
	}
	// Incumbents only improve: objectives are non-increasing.
	for i := 1; i < len(events); i++ {
		if events[i].Objective > events[i-1].Objective+1e-6 {
			t.Errorf("incumbent %d worsened: %.3f after %.3f", i, events[i].Objective, events[i-1].Objective)
		}
	}
}
