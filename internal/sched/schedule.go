// Package sched implements scheduling and binding of bioassay sequencing
// graphs onto a limited set of devices, with storage minimization — Section
// 3.1 of "Transport or Store?" (DAC 2017).
//
// Two engines produce schedules:
//
//   - an exact ILP per the paper's Table 1 and objective (6), solved with the
//     in-repo branch-and-bound solver (internal/milp), time-limited exactly
//     like the paper's 30-minute Gurobi runs; and
//   - a storage-aware list scheduler that serves as warm start, as the
//     scalable engine for the larger benchmarks, and as the β=0 baseline for
//     the paper's Fig. 9 comparison.
//
// A Schedule also knows how to extract its transportation and storage tasks
// (direct transports and store/cache/fetch triples), which drive
// architectural synthesis (internal/arch) and the dedicated-storage baseline
// (internal/dedicated).
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"flowsyn/internal/seqgraph"
)

// Assignment places one operation on a device in a time window.
type Assignment struct {
	// Op is the operation this assignment schedules.
	Op seqgraph.OpID
	// Device is the index of the executing device in [0, Devices).
	Device int
	// Start and End delimit execution: End = Start + duration (t^s_i and
	// t^e_i in the paper).
	Start, End int
}

// Schedule is a complete scheduling-and-binding result for one assay.
type Schedule struct {
	// Graph is the scheduled assay.
	Graph *seqgraph.Graph
	// Devices is the number of devices available (|D|).
	Devices int
	// Transport is u_c, the pure device-to-device transport time in seconds.
	Transport int
	// Assignments is indexed by OpID.
	Assignments []Assignment
	// Makespan is t^E, the latest ending time over all operations.
	Makespan int
	// DepartOffsets serializes fan-out: when one operation's product feeds
	// several consumers, the sub-samples leave the device one move-out slot
	// apart rather than simultaneously (a device has few ports and the
	// channels around it are exclusive). The map holds, per transported
	// edge, the departure delay in seconds after the parent's end; missing
	// edges depart immediately. Populated by the schedulers.
	DepartOffsets map[seqgraph.Edge]int
	// UnitWindows holds, per edge stored in the dedicated storage unit, the
	// granted port windows (dedicated and hybrid storage strategies; empty
	// for distributed channel storage). Populated by the schedulers when a
	// StorageModel routes fluids through the unit.
	UnitWindows map[seqgraph.Edge]UnitWindow
	// UnitQueueDelay is the total time fluids waited for the dedicated
	// unit's port beyond their earliest possible store/fetch instants — the
	// contention cost the distributed strategy avoids by construction.
	UnitQueueDelay int
}

// DepartOffset returns the departure delay of edge e after its parent ends.
func (s *Schedule) DepartOffset(e seqgraph.Edge) int {
	if s.DepartOffsets == nil {
		return 0
	}
	return s.DepartOffsets[e]
}

// Start returns the scheduled start of op.
func (s *Schedule) Start(op seqgraph.OpID) int { return s.Assignments[op].Start }

// End returns the scheduled end of op.
func (s *Schedule) End(op seqgraph.OpID) int { return s.Assignments[op].End }

// Device returns the device executing op.
func (s *Schedule) Device(op seqgraph.OpID) int { return s.Assignments[op].Device }

// computeMakespan refreshes Makespan from the assignments.
func (s *Schedule) computeMakespan() {
	m := 0
	for _, a := range s.Assignments {
		if a.End > m {
			m = a.End
		}
	}
	s.Makespan = m
}

// byDevice returns, per device, its assignments sorted by start time.
func (s *Schedule) byDevice() [][]Assignment {
	count := make([]int, s.Devices)
	for _, a := range s.Assignments {
		count[a.Device]++
	}
	out := make([][]Assignment, s.Devices)
	buf := make([]Assignment, len(s.Assignments))
	off := 0
	for d, n := range count {
		out[d] = buf[off : off : off+n]
		off += n
	}
	for _, a := range s.Assignments {
		out[a.Device] = append(out[a.Device], a)
	}
	for _, list := range out {
		slices.SortFunc(list, cmpStart)
	}
	return out
}

// cmpStart orders assignments by start time.
func cmpStart(a, b Assignment) int { return cmp.Compare(a.Start, b.Start) }

// Validate checks the schedule against the paper's constraints (Table 1):
// uniqueness (every op assigned to a valid device exactly once), duration,
// precedence with cross-device transport time, and per-device non-overlap.
func (s *Schedule) Validate() error {
	g := s.Graph
	if len(s.Assignments) != g.NumOps() {
		return fmt.Errorf("sched: %d assignments for %d operations", len(s.Assignments), g.NumOps())
	}
	for _, a := range s.Assignments {
		op := g.Op(a.Op)
		if a.Device < 0 || a.Device >= s.Devices {
			return fmt.Errorf("sched: op %s bound to invalid device %d", op.Name, a.Device)
		}
		if a.Start < 0 {
			return fmt.Errorf("sched: op %s starts at negative time %d", op.Name, a.Start)
		}
		if a.End-a.Start != op.Duration {
			return fmt.Errorf("sched: op %s has window %d..%d but duration %d",
				op.Name, a.Start, a.End, op.Duration)
		}
		if int(a.Op) >= len(s.Assignments) || s.Assignments[a.Op].Op != a.Op {
			return fmt.Errorf("sched: assignment table corrupt at op %s", op.Name)
		}
	}
	for _, e := range g.Edges() {
		p, c := s.Assignments[e.Parent], s.Assignments[e.Child]
		need := 0
		if p.Device != c.Device {
			need = s.Transport
		}
		if c.Start < p.End+need {
			return fmt.Errorf("sched: precedence violated on edge %s->%s: parent ends %d, child starts %d (need gap %d)",
				g.Op(e.Parent).Name, g.Op(e.Child).Name, p.End, c.Start, need)
		}
	}
	for d, list := range s.byDevice() {
		for i := 1; i < len(list); i++ {
			if list[i].Start < list[i-1].End {
				return fmt.Errorf("sched: device %d executes %s and %s concurrently",
					d, g.Op(list[i-1].Op).Name, g.Op(list[i].Op).Name)
			}
		}
	}
	if err := s.validateUnitWindows(); err != nil {
		return err
	}
	return nil
}

// validateUnitWindows checks the dedicated-unit side of the schedule: every
// unit-stored edge's store must start after its parent ends, its fetch must
// fit a full transport before the consumer starts with a full store transport
// before it, and all port windows must be pairwise disjoint (one port).
func (s *Schedule) validateUnitWindows() error {
	if len(s.UnitWindows) == 0 {
		return nil
	}
	g := s.Graph
	uc := s.Transport
	var wins [][2]int
	for e, w := range s.UnitWindows {
		if int(e.Parent) >= len(s.Assignments) || int(e.Child) >= len(s.Assignments) {
			return fmt.Errorf("sched: unit window on unknown edge %d->%d", e.Parent, e.Child)
		}
		p, c := s.Assignments[e.Parent], s.Assignments[e.Child]
		if w.StoreStart < p.End {
			return fmt.Errorf("sched: unit store of %s->%s starts %d before parent ends %d",
				g.Op(e.Parent).Name, g.Op(e.Child).Name, w.StoreStart, p.End)
		}
		if w.FetchStart < w.StoreStart+uc {
			return fmt.Errorf("sched: unit fetch of %s->%s at %d overlaps its store at %d (u_c %d)",
				g.Op(e.Parent).Name, g.Op(e.Child).Name, w.FetchStart, w.StoreStart, uc)
		}
		if w.FetchStart+uc > c.Start {
			return fmt.Errorf("sched: unit fetch of %s->%s ends %d after child starts %d",
				g.Op(e.Parent).Name, g.Op(e.Child).Name, w.FetchStart+uc, c.Start)
		}
		wins = append(wins, [2]int{w.StoreStart, w.StoreStart + uc}, [2]int{w.FetchStart, w.FetchStart + uc})
	}
	slices.SortFunc(wins, func(a, b [2]int) int { return cmp.Compare(a[0], b[0]) })
	for i := 1; i < len(wins); i++ {
		if wins[i][0] < wins[i-1][1] {
			return fmt.Errorf("sched: unit port windows [%d,%d) and [%d,%d) overlap",
				wins[i-1][0], wins[i-1][1], wins[i][0], wins[i][1])
		}
	}
	return nil
}

// StorageTime returns Σ u_{i,j} over cross-device edges: the storage term of
// the paper's objective (6), with u_{i,j} = t^s_j − t^e_i.
func (s *Schedule) StorageTime() int {
	total := 0
	for _, e := range s.Graph.Edges() {
		p, c := s.Assignments[e.Parent], s.Assignments[e.Child]
		if p.Device != c.Device {
			total += c.Start - p.End
		}
	}
	return total
}

// Clone returns a deep copy of the schedule (the underlying graph is shared:
// schedules never mutate their graph). Useful for what-if edits, e.g. the
// mutation tests of internal/verify.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{
		Graph:          s.Graph,
		Devices:        s.Devices,
		Transport:      s.Transport,
		Assignments:    append([]Assignment(nil), s.Assignments...),
		Makespan:       s.Makespan,
		UnitQueueDelay: s.UnitQueueDelay,
	}
	if s.DepartOffsets != nil {
		out.DepartOffsets = make(map[seqgraph.Edge]int, len(s.DepartOffsets))
		for e, d := range s.DepartOffsets {
			out.DepartOffsets[e] = d
		}
	}
	if s.UnitWindows != nil {
		out.UnitWindows = make(map[seqgraph.Edge]UnitWindow, len(s.UnitWindows))
		for e, w := range s.UnitWindows {
			out.UnitWindows[e] = w
		}
	}
	return out
}

// String summarizes the schedule.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule of %s on %d devices: makespan %d", s.Graph.Name, s.Devices, s.Makespan)
}

// Gantt renders a per-device text timeline, useful in examples and debugging.
func (s *Schedule) Gantt() string {
	var b []byte
	for d, list := range s.byDevice() {
		b = append(b, fmt.Sprintf("d%d:", d+1)...)
		for _, a := range list {
			b = append(b, fmt.Sprintf(" %s[%d,%d)", s.Graph.Op(a.Op).Name, a.Start, a.End)...)
		}
		b = append(b, '\n')
	}
	return string(b)
}
