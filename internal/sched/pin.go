package sched

import (
	"fmt"

	"flowsyn/internal/seqgraph"
)

// Pin freezes the executed prefix of a running assay for online recovery:
// operations already started keep their exact devices and time windows, the
// departure slots their inputs used are kept verbatim, no re-planned work may
// start before the fault-detection instant, and forbidden (failed) devices
// accept no new operations. Both scheduling engines honor a Pin — the list
// scheduler and the MILP formulation — so recovery keeps the full engine
// portfolio.
type Pin struct {
	// Time is the fault-detection instant: no re-planned operation starts,
	// and no re-planned sample departs its producer, before it.
	Time int
	// Assignments fixes the executed operations verbatim. The set must be
	// ancestor-closed (every parent of a pinned operation is pinned) — true
	// by construction for any prefix cut at a start-time threshold, since
	// parents start before their children.
	Assignments []Assignment
	// DepartOffsets preserves the departure slots of edges into pinned
	// consumers: those transports completed before Time, so re-deriving the
	// schedule's task set must reproduce them byte-identically.
	DepartOffsets map[seqgraph.Edge]int
	// UnitWindows preserves the dedicated-unit port grants of edges into
	// pinned consumers (dedicated/hybrid storage strategies): those
	// store/fetch transports completed before Time, so the re-planned
	// schedule reproduces them verbatim and keeps their port time reserved.
	UnitWindows map[seqgraph.Edge]UnitWindow
	// Forbidden marks devices that accept no re-planned operations (a failed
	// chamber). Pinned assignments on a forbidden device stay: the fault
	// cannot undo work the device already did.
	Forbidden map[int]bool
}

// pinned returns a per-op membership table for the pinned set.
func (p *Pin) pinned(n int) []bool {
	out := make([]bool, n)
	for _, a := range p.Assignments {
		if int(a.Op) >= 0 && int(a.Op) < n {
			out[a.Op] = true
		}
	}
	return out
}

// Validate checks the pin against the graph it will constrain.
func (p *Pin) Validate(g *seqgraph.Graph, devices int) error {
	if p.Time < 0 {
		return fmt.Errorf("sched: pin time %d is negative", p.Time)
	}
	n := g.NumOps()
	seen := make([]bool, n)
	for _, a := range p.Assignments {
		if int(a.Op) < 0 || int(a.Op) >= n {
			return fmt.Errorf("sched: pin names unknown op %d", a.Op)
		}
		op := g.Op(a.Op)
		if seen[a.Op] {
			return fmt.Errorf("sched: op %s pinned twice", op.Name)
		}
		seen[a.Op] = true
		if a.Device < 0 || a.Device >= devices {
			return fmt.Errorf("sched: op %s pinned to invalid device %d", op.Name, a.Device)
		}
		if a.Start < 0 || a.Start >= p.Time {
			return fmt.Errorf("sched: op %s pinned at start %d outside executed prefix [0,%d)",
				op.Name, a.Start, p.Time)
		}
		if a.End-a.Start != op.Duration {
			return fmt.Errorf("sched: op %s pinned with window %d..%d but duration %d",
				op.Name, a.Start, a.End, op.Duration)
		}
	}
	for _, e := range g.Edges() {
		if seen[e.Child] && !seen[e.Parent] {
			return fmt.Errorf("sched: pin not ancestor-closed: %s pinned but parent %s is not",
				g.Op(e.Child).Name, g.Op(e.Parent).Name)
		}
	}
	for e := range p.DepartOffsets {
		if int(e.Parent) < 0 || int(e.Parent) >= n || int(e.Child) < 0 || int(e.Child) >= n {
			return fmt.Errorf("sched: pin departure offset on unknown edge %d->%d", e.Parent, e.Child)
		}
		if !seen[e.Child] {
			return fmt.Errorf("sched: pin departure offset on edge %s->%s whose consumer is not pinned",
				g.Op(e.Parent).Name, g.Op(e.Child).Name)
		}
	}
	for e := range p.UnitWindows {
		if int(e.Parent) < 0 || int(e.Parent) >= n || int(e.Child) < 0 || int(e.Child) >= n {
			return fmt.Errorf("sched: pin unit window on unknown edge %d->%d", e.Parent, e.Child)
		}
		if !seen[e.Child] {
			return fmt.Errorf("sched: pin unit window on edge %s->%s whose consumer is not pinned",
				g.Op(e.Parent).Name, g.Op(e.Child).Name)
		}
	}
	free := 0
	for k := 0; k < devices; k++ {
		if !p.Forbidden[k] {
			free++
		}
	}
	if free == 0 {
		return fmt.Errorf("sched: pin forbids all %d devices", devices)
	}
	return nil
}
