package sched

import (
	"fmt"
	"sort"

	"flowsyn/internal/seqgraph"
)

// Retime re-schedules g by reusing a prior schedule's device binding and
// execution order, with timing re-derived from scratch under the exact
// transport semantics, so the result is valid for the current graph. It is
// the re-synthesis primitive behind warm starts: the exact engines feed the
// result to the MILP as a warm start (ILPOptions.Warm) and the heuristic
// engine races it against the list scheduler.
//
// Without a pin, operations are matched to the prior schedule by name: the
// unchanged part of an edited assay keeps its proven binding, while edited or
// new operations are appended after it, bound to a parent's device when one
// is known — durations, dependencies, additions and removals included.
//
// With a pin (online recovery), prior must be a schedule of g itself: pinned
// operations keep their windows and devices verbatim, every other operation
// keeps its prior device (unless that device is now forbidden — then it
// moves to a parent's allowed device, or round-robin over the allowed set)
// and its prior relative order. The prior plan's proven structure survives
// the fault wherever it legally can.
//
// A non-nil storage model routes stored fluids per the model (unit port
// grants, bounded channel cache), so the result is feasible for that
// strategy; nil is distributed channel storage.
func Retime(g *seqgraph.Graph, prior *Schedule, devices, transport int, pin *Pin, storage StorageModel) (*Schedule, error) {
	if devices < 1 {
		return nil, fmt.Errorf("sched: need at least one device, got %d", devices)
	}
	if transport < 1 {
		return nil, fmt.Errorf("sched: transport time must be >= 1, got %d", transport)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	var binding, ids []int
	var err error
	if pin != nil {
		binding, ids, err = pinnedBinding(g, prior, pin, devices)
	} else {
		binding, ids, err = namedBinding(g, prior, devices)
	}
	if err != nil {
		return nil, err
	}
	s := retimeBinding(g, devices, transport, binding, ids, pin, storage)
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sched: retimed schedule invalid: %w", err)
	}
	return s, nil
}

// namedBinding derives Retime's unpinned binding and placement order: each
// operation of g takes the device and start rank of the prior operation of
// the same name; the rest follow the reused prefix.
func namedBinding(g *seqgraph.Graph, prior *Schedule, devices int) (binding, ids []int, err error) {
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	priorByName := make(map[string]Assignment, len(prior.Assignments))
	for _, a := range prior.Assignments {
		priorByName[prior.Graph.Op(a.Op).Name] = a
	}
	n := g.NumOps()
	binding = make([]int, n)
	prio := make([]int, n)
	known := make([]bool, n)
	maxPrio := 0
	for i := 0; i < n; i++ {
		if pa, ok := priorByName[g.Op(seqgraph.OpID(i)).Name]; ok && pa.Device < devices {
			binding[i], prio[i], known[i] = pa.Device, pa.Start, true
			if pa.Start > maxPrio {
				maxPrio = pa.Start
			}
		}
	}
	// New or re-deviced operations: schedule after the reused prefix, on a
	// parent's device when one is bound (avoiding a gratuitous transport),
	// else spread round-robin.
	next := 0
	for _, id := range topo {
		i := int(id)
		if known[i] {
			continue
		}
		prio[i] = maxPrio + 1
		binding[i] = -1
		for _, p := range g.Parents(id) {
			if binding[p] >= 0 {
				binding[i] = binding[p]
				break
			}
		}
		if binding[i] < 0 {
			binding[i] = next % devices
			next++
		}
	}
	ids = make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if prio[ids[a]] != prio[ids[b]] {
			return prio[ids[a]] < prio[ids[b]]
		}
		return ids[a] < ids[b]
	})
	return binding, ids, nil
}

// pinnedBinding derives Retime's binding and placement order around a pin:
// prior devices wherever still allowed, and only the unpinned operations in
// the order, by prior start.
func pinnedBinding(g *seqgraph.Graph, prior *Schedule, pin *Pin, devices int) (binding, ids []int, err error) {
	if err := pin.Validate(g, devices); err != nil {
		return nil, nil, err
	}
	n := g.NumOps()
	if len(prior.Assignments) != n {
		return nil, nil, fmt.Errorf("sched: prior schedule has %d assignments for %d operations",
			len(prior.Assignments), n)
	}
	var allowed []int
	for k := 0; k < devices; k++ {
		if !pin.Forbidden[k] {
			allowed = append(allowed, k)
		}
	}
	isPinned := pin.pinned(n)
	binding = make([]int, n)
	next := 0
	for i := 0; i < n; i++ {
		if isPinned[i] {
			binding[i] = prior.Assignments[i].Device
			continue
		}
		ids = append(ids, i)
		d := prior.Assignments[i].Device
		if d >= 0 && d < devices && !pin.Forbidden[d] {
			binding[i] = d
			continue
		}
		// Evicted from a failed device: prefer a parent's surviving device
		// (saves a transport), else spread over the allowed set.
		binding[i] = -1
		for _, p := range g.Parents(seqgraph.OpID(i)) {
			pd := prior.Assignments[p].Device
			if pd >= 0 && pd < devices && !pin.Forbidden[pd] {
				binding[i] = pd
				break
			}
		}
		if binding[i] < 0 {
			binding[i] = allowed[next%len(allowed)]
			next++
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		sa, sb := prior.Assignments[ids[a]].Start, prior.Assignments[ids[b]].Start
		if sa != sb {
			return sa < sb
		}
		return ids[a] < ids[b]
	})
	return binding, ids, nil
}

// retimeBinding greedily re-times a complete device binding along a global
// priority order through the placer the list scheduler uses. Operations are
// placed first-ready-first along ids, so any order is safe even when it
// interleaves devices non-topologically (the ILP order is topological on
// each device only). With a non-nil pin, ids must cover exactly the unpinned
// operations. With a non-distributed storage model, stored fluids are routed
// per the model — this is what makes ILP reconstruction and warm-start
// retiming honor the strategy.
func retimeBinding(g *seqgraph.Graph, devices, transport int, binding []int, ids []int, pin *Pin, storage StorageModel) *Schedule {
	pl := newPlacer(g, devices, transport, pin, storage)
	pending := append([]int(nil), ids...)
	for len(pending) > 0 {
		pick := 0
		for !pl.ready(seqgraph.OpID(pending[pick])) {
			pick++
		}
		op := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)
		pl.commit(seqgraph.OpID(op), binding[op])
	}
	return pl.finish()
}
