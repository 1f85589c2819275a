// Package dedicated models the baseline the paper compares against in
// Fig. 10: a chip whose intermediate fluids are parked in a dedicated
// storage unit (Fig. 1(c) and Fig. 3(a)) instead of distributed channel
// segments.
//
// The unit has side-by-side storage cells behind a multiplexer-like port.
// The port is the bottleneck: it admits one fluid at a time, so simultaneous
// store/fetch accesses queue and the assay's execution is prolonged —
// exactly the paper's experimental assumption ("when storage requirements
// appear, they are assumed to queue at the entrance of a dedicated storage
// unit"). Store and fetch accesses also pay the full device↔unit transport
// time u_c, whereas distributed caching pays only the on-the-spot move-out
// and fetch halves.
package dedicated

import (
	"fmt"
	"math"
	"sort"

	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
)

// UnitValves returns the valve cost of a dedicated storage unit with the
// given number of cells: two log₂-depth multiplexer trees (one per side of
// the cell array, as in the paper's Fig. 1(c)) at two valves per tree level,
// plus the two port valves.
func UnitValves(cells int) int {
	if cells < 1 {
		return 0
	}
	if cells == 1 {
		return 2
	}
	levels := int(math.Ceil(math.Log2(float64(cells))))
	return 4*levels + 2
}

// Result reports the dedicated-storage execution of a schedule.
type Result struct {
	// Makespan is the prolonged execution time with port queueing.
	Makespan int
	// PortBusy is the total seconds the unit's port was occupied.
	PortBusy int
	// QueueDelay is the total seconds accesses waited for the port.
	QueueDelay int
	// Cells is the storage-cell count the unit needed (max simultaneous
	// residents).
	Cells int
	// UnitValves is the valve cost of the unit itself.
	UnitValves int
	// Accesses counts port uses (stores + fetches).
	Accesses int
	// Starts holds the re-timed start of every operation, indexed by OpID.
	Starts []int
}

// Execute re-times the given schedule as if all cached fluids lived in a
// dedicated storage unit: same binding, same per-device operation order,
// but every store and every fetch is a full-u_c transport that must win the
// unit's single port. The returned makespan is therefore never smaller than
// the distributed schedule's.
//
// Determinism of simultaneous accesses: the replay processes operations in
// original start order (ties by OpID), places each operation's flush before
// its fetches, and walks fetches in the graph's parent order. A store and a
// fetch requested at the same instant therefore serialize in that fixed
// order through the earliest-fit port grants — two replays of the same
// schedule always produce identical timings.
//
// Cell accounting tracks actual unit residency during the replay: a fluid
// occupies a cell from the instant it arrives in the unit until its last
// fetch departs (or the makespan, for flushed fluids nobody fetches). A
// schedule with no stored fluids therefore reports 0 cells and 0 unit
// valves.
func Execute(s *sched.Schedule) (*Result, error) {
	g := s.Graph
	n := g.NumOps()
	if n == 0 {
		return nil, fmt.Errorf("dedicated: empty schedule")
	}
	uc := s.Transport

	// Process operations in original start order (preserving per-device
	// sequences), re-timing with port serialization.
	order := make([]seqgraph.OpID, n)
	for i := range order {
		order[i] = seqgraph.OpID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := s.Start(order[a]), s.Start(order[b])
		if sa != sb {
			return sa < sb
		}
		return order[a] < order[b]
	})

	var prt sched.PortTimeline
	res := &Result{Starts: make([]int, n)}
	deviceFree := make([]int, s.Devices)
	lastOp := make([]seqgraph.OpID, s.Devices)
	for d := range lastOp {
		lastOp[d] = -1
	}
	end := make([]int, n)
	done := make([]bool, n)
	pending := append([]seqgraph.OpID(nil), order...)

	// Unit residency per product: enter is the instant the fluid arrives in
	// its cell, exit the instant its last fetch departs.
	type residency struct {
		enter, exit      int
		entered, fetched bool
	}
	resid := make([]residency, n)

	for len(pending) > 0 {
		pick := -1
		for idx, op := range pending {
			ready := true
			for _, p := range g.Parents(op) {
				if !done[p] {
					ready = false
					break
				}
			}
			if ready {
				pick = idx
				break
			}
		}
		op := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)

		k := s.Device(op)
		start := deviceFree[k]

		// Flush the previous result on this device into the unit unless the
		// current op consumes it directly.
		direct := seqgraph.OpID(-1)
		if last := lastOp[k]; last >= 0 {
			for _, p := range g.Parents(op) {
				if p == last {
					direct = p
					break
				}
			}
			if direct < 0 {
				grantT := prt.Grant(end[last], uc)
				res.PortBusy += uc
				res.QueueDelay += grantT - end[last]
				res.Accesses++
				if v := grantT + uc; v > start {
					start = v
				}
				if r := &resid[last]; !r.entered {
					r.entered = true
					r.enter = grantT + uc
				}
			}
		}

		// Fetch every non-direct parent from the unit through the port.
		for _, p := range g.Parents(op) {
			if p == direct {
				if end[p] > start {
					start = end[p]
				}
				continue
			}
			earliest := end[p]
			if s.Device(p) != k {
				// Result first travels from its device into the unit.
				earliest += uc
			}
			// A fetch delivers fluid into the device, so it can only start
			// once the device is empty and idle.
			if earliest < start {
				earliest = start
			}
			grantT := prt.Grant(earliest, uc)
			res.PortBusy += uc
			res.QueueDelay += grantT - earliest
			res.Accesses++
			if v := grantT + uc; v > start {
				start = v
			}
			r := &resid[p]
			if !r.entered {
				// Never flushed: the fluid traveled straight from its device
				// into the unit after its producer finished.
				r.entered = true
				r.enter = end[p] + uc
			}
			r.fetched = true
			if grantT > r.exit {
				r.exit = grantT
			}
		}

		dur := g.Op(op).Duration
		res.Starts[op] = start
		end[op] = start + dur
		deviceFree[k] = end[op]
		lastOp[k] = op
		done[op] = true
		if end[op] > res.Makespan {
			res.Makespan = end[op]
		}
	}

	// Peak simultaneous residents over the tracked residency intervals. A
	// flushed fluid nobody fetches (a displaced final product) occupies its
	// cell until the end of the replay.
	type event struct{ t, delta int }
	var evs []event
	for i := range resid {
		r := resid[i]
		if !r.entered {
			continue
		}
		exit := r.exit
		if !r.fetched {
			exit = res.Makespan
		}
		if exit <= r.enter {
			// A fetch the port happened to grant before the fluid's arrival
			// window: the model's store side never held it, so it occupies
			// no cell.
			continue
		}
		evs = append(evs, event{r.enter, +1}, event{exit, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta // exits before entries at ties
	})
	cur := 0
	for _, e := range evs {
		cur += e.delta
		if cur > res.Cells {
			res.Cells = cur
		}
	}
	res.UnitValves = UnitValves(res.Cells)
	return res, nil
}

// Comparison bundles the Fig. 10 ratios for one assay: distributed channel
// storage (the paper's method) versus the dedicated storage unit.
type Comparison struct {
	// DistributedMakespan and DedicatedMakespan are the two execution times.
	DistributedMakespan, DedicatedMakespan int
	// DistributedValves counts the synthesized chip's valves;
	// DedicatedValves adds the unit's internal valves to the transport
	// valves the dedicated design still needs.
	DistributedValves, DedicatedValves int
	// ExecRatio = distributed / dedicated (< 1 means the paper's method is
	// faster); ValveRatio likewise.
	ExecRatio, ValveRatio float64
}

// Compare computes the Fig. 10 ratios given the distributed design's valve
// count and the schedule both designs execute.
func Compare(s *sched.Schedule, distributedValves int) (*Comparison, error) {
	ded, err := Execute(s)
	if err != nil {
		return nil, err
	}
	// The dedicated design still needs channels from every device to the
	// unit; its transport valve cost is at least the distributed network's
	// (the unit does not remove any device-to-device path, it adds the
	// unit's port fan-in). We charge the same transport valves plus the
	// unit's internals — a deliberately conservative baseline.
	c := &Comparison{
		DistributedMakespan: s.Makespan,
		DedicatedMakespan:   ded.Makespan,
		DistributedValves:   distributedValves,
		DedicatedValves:     distributedValves + ded.UnitValves,
	}
	if ded.Makespan > 0 {
		c.ExecRatio = float64(s.Makespan) / float64(ded.Makespan)
	}
	if c.DedicatedValves > 0 {
		c.ValveRatio = float64(c.DistributedValves) / float64(c.DedicatedValves)
	}
	return c, nil
}
