package sched

import (
	"context"
	"fmt"
	"sort"

	"flowsyn/internal/seqgraph"
)

// Mode selects the scheduling objective, matching the two configurations the
// paper compares in Fig. 9.
type Mode int

const (
	// TimeAndStorage is the paper's objective (6) with β > 0: minimize
	// makespan while keeping intermediate fluids stored as briefly as
	// possible (schedule children soon after their parents).
	TimeAndStorage Mode = iota
	// TimeOnly is the β = 0 baseline: minimize makespan alone.
	TimeOnly
)

// String names the mode.
func (m Mode) String() string {
	if m == TimeOnly {
		return "time-only"
	}
	return "time+storage"
}

// ListOptions configures the list scheduler.
type ListOptions struct {
	// Devices is the number of identical devices available (must be >= 1).
	Devices int
	// Transport is u_c in seconds (must be >= 1).
	Transport int
	// Mode selects the optimization objective.
	Mode Mode
	// Pin, if non-nil, freezes an executed prefix for online recovery:
	// pinned operations keep their windows, devices and departure slots
	// verbatim, forbidden devices accept nothing new, and no re-planned
	// operation starts (or sample departs) before the fault instant.
	Pin *Pin
	// Storage selects where intermediate fluids wait (nil = the paper's
	// distributed channel storage, bit-identical to the historical
	// behavior). Dedicated/hybrid models route stored fluids through a
	// port-serialized storage unit, and the scheduler optimizes placements
	// under that contention instead of degrading a distributed schedule
	// after the fact.
	Storage StorageModel
}

// ListSchedule builds a schedule with a storage-aware list scheduler.
//
// Operations are kept in a ready list (all parents scheduled) and picked by:
//
//   - TimeAndStorage: the operation whose parents finished most recently
//     first (a depth-first tendency that consumes intermediate products
//     while they are fresh — this reproduces the paper's Fig. 2(c) order for
//     PCR), tie-broken by critical-path priority;
//   - TimeOnly: classic highest-level-first (critical-path priority), which
//     tends breadth-first and parks many intermediates in storage — the
//     paper's Fig. 2(b) order.
//
// Device timing models the paper's transport semantics: a result consumed by
// the immediately-next operation on the same device passes directly (no
// cost); otherwise the device is blocked for the move-out time after the
// producer ends, cross-device arrivals take u_c, and each cached input
// requires a fetch slot immediately before the consumer starts.
func ListSchedule(g *seqgraph.Graph, opts ListOptions) (*Schedule, error) {
	return ListScheduleContext(context.Background(), g, opts)
}

// ListScheduleContext is ListSchedule bounded by a context: cancellation is
// observed once per scheduled operation, so even very large assays abort
// promptly with ctx.Err().
func ListScheduleContext(ctx context.Context, g *seqgraph.Graph, opts ListOptions) (*Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.Devices < 1 {
		return nil, fmt.Errorf("sched: need at least one device, got %d", opts.Devices)
	}
	if opts.Transport < 1 {
		return nil, fmt.Errorf("sched: transport time must be >= 1, got %d", opts.Transport)
	}

	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	// Downstream critical path (including own duration and transport hops).
	prio := make([]int, g.NumOps())
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0
		for _, c := range g.Children(id) {
			if v := prio[c] + opts.Transport; v > best {
				best = v
			}
		}
		prio[id] = best + g.Op(id).Duration
	}

	pinnedCount := 0
	if opts.Pin != nil {
		if err := opts.Pin.Validate(g, opts.Devices); err != nil {
			return nil, err
		}
		pinnedCount = len(opts.Pin.Assignments)
	}
	pl := newPlacer(g, opts.Devices, opts.Transport, opts.Pin, opts.Storage)
	s := pl.s

	remainingParents := make([]int, g.NumOps())
	for _, e := range g.Edges() {
		if !pl.done[e.Parent] {
			remainingParents[e.Child]++
		}
	}
	var ready []seqgraph.OpID
	for id, done := range pl.done {
		if !done && remainingParents[id] == 0 {
			ready = append(ready, seqgraph.OpID(id))
		}
	}

	freshness := func(op seqgraph.OpID) int {
		f := -1
		for _, p := range g.Parents(op) {
			if e := s.Assignments[p].End; e > f {
				f = e
			}
		}
		return f
	}

	for scheduledCount := pinnedCount; scheduledCount < g.NumOps(); scheduledCount++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(ready) == 0 {
			return nil, fmt.Errorf("sched: internal error: no ready operations with %d unscheduled",
				g.NumOps()-scheduledCount)
		}
		// Pick the next operation.
		sort.Slice(ready, func(i, j int) bool {
			a, b := ready[i], ready[j]
			if opts.Mode == TimeAndStorage {
				fa, fb := freshness(a), freshness(b)
				if fa != fb {
					return fa > fb // freshest parents first
				}
			}
			if prio[a] != prio[b] {
				return prio[a] > prio[b]
			}
			return a < b
		})
		op := ready[0]
		ready = ready[1:]

		// Pick its device. In storage mode a device that avoids transports
		// (direct pass from a parent) is worth a modest start-time delay:
		// every avoided fetch removes a store/fetch pair and its channel
		// occupancy, which is exactly the trade the paper's objective (6)
		// encodes with β.
		bestDev, bestScore := -1, 0
		for k := 0; k < opts.Devices; k++ {
			if opts.Pin != nil && opts.Pin.Forbidden[k] {
				continue
			}
			est, fe := pl.place(op, k, false)
			score := est
			if opts.Mode == TimeAndStorage {
				score = est + fe*opts.Transport
			}
			if bestDev == -1 || score < bestScore {
				bestDev, bestScore = k, score
			}
		}
		pl.commit(op, bestDev)
		for _, c := range g.Children(op) {
			remainingParents[c]--
			if remainingParents[c] == 0 {
				ready = append(ready, c)
			}
		}
	}

	pl.finish()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sched: list scheduler produced invalid schedule: %w", err)
	}
	return s, nil
}
