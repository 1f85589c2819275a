package sched

import "flowsyn/internal/seqgraph"

// placer is the frontier of a schedule under construction. The list
// scheduler and the binding re-timer both build their schedules through it,
// one operation at a time, with the paper's transport semantics: a result
// consumed by the immediately-next operation on the same device passes
// directly (no cost); otherwise the device is blocked for the move-out time
// after the producer ends, cross-device arrivals take u_c (or the unit
// port's store+fetch grants under a serialized storage model), and each
// channel-cached input requires a fetch slot immediately before the consumer
// starts.
type placer struct {
	g   *seqgraph.Graph
	s   *Schedule
	pin *Pin
	// outLen and fetchLen split u_c into the producer-side move-out and the
	// consumer-side fetch slot.
	transport, outLen, fetchLen int
	done                        []bool
	// nextDepart[p] is the absolute instant the next sub-sample may leave
	// p's device: p's end, then one move-out slot later per transported
	// consumer already placed (the serialized fan-out the paper's channel
	// exclusivity forces). The recorded offset is nextDepart − end, which
	// reduces to the classic k·u_c ladder when nothing is pinned.
	nextDepart []int
	// deviceFree and lastOp are each device's frontier: the instant it comes
	// free and the operation it ran last (-1 for none).
	deviceFree []int
	lastOp     []seqgraph.OpID
	st         *storageState
}

// newPlacer starts a schedule of g. A non-nil pin (already validated) is
// installed verbatim and floors every later placement at the pin time.
func newPlacer(g *seqgraph.Graph, devices, transport int, pin *Pin, storage StorageModel) *placer {
	n := g.NumOps()
	outLen := (transport + 1) / 2
	pl := &placer{
		g: g,
		s: &Schedule{
			Graph:         g,
			Devices:       devices,
			Transport:     transport,
			Assignments:   make([]Assignment, n),
			DepartOffsets: make(map[seqgraph.Edge]int),
		},
		pin:        pin,
		transport:  transport,
		outLen:     outLen,
		fetchLen:   transport - outLen,
		done:       make([]bool, n),
		nextDepart: make([]int, n),
		deviceFree: make([]int, devices),
		lastOp:     make([]seqgraph.OpID, devices),
		st:         newStorageState(storage, transport),
	}
	for d := range pl.lastOp {
		pl.lastOp[d] = -1
	}
	if pin != nil {
		pl.seed()
	}
	return pl
}

// seed installs the pinned prefix and initializes the frontier around it:
// done flags, per-device free time and last-executed op, and the next
// departure instant per pinned producer — floored at the pin time, since any
// re-planned sample leaves its device only after the fault was detected.
// Pinned unit port grants keep their port time reserved.
func (pl *placer) seed() {
	p, s := pl.pin, pl.s
	lastStart := make([]int, len(pl.deviceFree))
	for d := range lastStart {
		lastStart[d] = -1
	}
	for _, a := range p.Assignments {
		s.Assignments[a.Op] = a
		pl.done[a.Op] = true
		pl.nextDepart[a.Op] = a.End
		if a.End > pl.deviceFree[a.Device] {
			pl.deviceFree[a.Device] = a.End
		}
		if a.Start > lastStart[a.Device] {
			lastStart[a.Device] = a.Start
			pl.lastOp[a.Device] = a.Op
		}
	}
	for e, off := range p.DepartOffsets {
		s.DepartOffsets[e] = off
		// The slot after this preserved departure completes.
		if v := s.Assignments[e.Parent].End + off + pl.transport; v > pl.nextDepart[e.Parent] {
			pl.nextDepart[e.Parent] = v
		}
	}
	for _, a := range p.Assignments {
		if pl.nextDepart[a.Op] < p.Time {
			pl.nextDepart[a.Op] = p.Time
		}
	}
	if pl.st.active() {
		for e, w := range p.UnitWindows {
			pl.st.seedUnit(e, w)
		}
	}
}

// directParent returns the parent of op that device k ran last — its result
// passes to op directly, without a transport — or -1.
func (pl *placer) directParent(op seqgraph.OpID, k int) seqgraph.OpID {
	if last := pl.lastOp[k]; last >= 0 {
		for _, p := range pl.g.Parents(op) {
			if p == last {
				return p
			}
		}
	}
	return -1
}

// ready reports whether every parent of op is placed.
func (pl *placer) ready(op seqgraph.OpID) bool {
	for _, p := range pl.g.Parents(op) {
		if !pl.done[p] {
			return false
		}
	}
	return true
}

// place computes the earliest start of op on device k and the number of
// channel-cached inputs that need a fetch slot there. With commit set it also
// books the storage side (unit port windows, channel residents) under the
// storage model; estimates only peek. For the distributed model both paths
// reduce to the same arithmetic.
func (pl *placer) place(op seqgraph.OpID, k int, commit bool) (start, fetches int) {
	start = pl.deviceFree[k]
	direct := pl.directParent(op, k)
	if last := pl.lastOp[k]; last >= 0 && direct < 0 {
		// The previous result must be flushed out of the device.
		start = max(start, pl.s.Assignments[last].End+pl.outLen)
	}
	if pl.pin != nil {
		// Recovery: nothing re-planned starts before the fault instant.
		start = max(start, pl.pin.Time)
	}
	maxArrival := 0
	var plans []parentPlan
	for _, p := range pl.g.Parents(op) {
		arrival := pl.s.Assignments[p].End
		if p != direct {
			// The sub-sample departs after the parent's earlier consumers
			// (serialized fan-out), then travels u_c — or, on the unit path,
			// waits for the port's store+fetch grants.
			plan := pl.st.planParent(seqgraph.Edge{Parent: p, Child: op}, pl.nextDepart[p], start)
			if commit {
				plan = pl.st.commitParent(plan, start)
				plans = append(plans, plan)
			}
			arrival = plan.arrival
			if !plan.unit {
				fetches++
			}
		}
		maxArrival = max(maxArrival, arrival)
	}
	start = max(start+fetches*pl.fetchLen, maxArrival)
	if commit {
		start = pl.st.commitResidents(plans, start)
	}
	return start, fetches
}

// commit places op on device k at its earliest start and advances the
// frontier: the assignment, the device's free time and last op, and the
// departure slot each transported input used.
func (pl *placer) commit(op seqgraph.OpID, k int) {
	start, _ := pl.place(op, k, true)
	end := start + pl.g.Op(op).Duration
	pl.s.Assignments[op] = Assignment{Op: op, Device: k, Start: start, End: end}
	pl.done[op] = true
	pl.deviceFree[k] = end
	pl.nextDepart[op] = end
	direct := pl.directParent(op, k)
	for _, p := range pl.g.Parents(op) {
		if p == direct {
			continue
		}
		pl.s.DepartOffsets[seqgraph.Edge{Parent: p, Child: op}] = pl.nextDepart[p] - pl.s.Assignments[p].End
		pl.nextDepart[p] += pl.transport
	}
	pl.lastOp[k] = op
}

// finish completes the schedule: it attaches the storage side and the
// makespan, then pushes operations late to shrink storage lifetimes (the
// heuristic counterpart of the paper's β·Σu objective term). Compacting would
// move pinned windows, or slide a producer past its granted unit store
// window, so recovery and strategy schedules keep the greedy placement.
func (pl *placer) finish() *Schedule {
	pl.st.install(pl.s)
	pl.s.computeMakespan()
	if pl.pin == nil && !pl.st.active() {
		Compact(pl.s)
	}
	return pl.s
}
