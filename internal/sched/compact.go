package sched

import (
	"cmp"
	"slices"

	"flowsyn/internal/seqgraph"
)

// Compact pushes every operation as late as possible without changing the
// makespan, the per-device operation order, or any precedence slack that a
// consumer depends on. Delaying a producer shrinks the storage lifetime
// u_{i,j} = t^s_j − t^e_i of each of its products — this post-pass is the
// heuristic counterpart of the β·Σu term in the paper's objective (6), and
// it directly shortens channel-cache occupancy, freeing segments for
// transport.
//
// Bounds honoured when delaying an operation:
//
//   - every transported edge (op, c) keeps t^s_c ≥ t^e_op + offset + u_c;
//   - every direct-pass edge keeps t^s_c ≥ t^e_op;
//   - the next operation on the same device keeps its move-out gap
//     (t^s_next ≥ t^e_op + ⌈u_c/2⌉, or ≥ t^e_op for a direct pass);
//   - sink operations do not move (the makespan is preserved).
func Compact(s *Schedule) {
	g := s.Graph
	outLen := (s.Transport + 1) / 2

	// Device successor of every op.
	successor := make([]seqgraph.OpID, g.NumOps())
	for i := range successor {
		successor[i] = -1
	}
	for _, list := range s.byDevice() {
		for i := 0; i+1 < len(list); i++ {
			successor[list[i].Op] = list[i+1].Op
		}
	}

	transported := func(e seqgraph.Edge) bool {
		if s.DepartOffsets != nil {
			_, ok := s.DepartOffsets[e]
			return ok
		}
		return s.Assignments[e.Parent].Device != s.Assignments[e.Child].Device
	}

	// Process in descending end time so every consumer and successor is
	// final before its producers move.
	order := make([]seqgraph.OpID, g.NumOps())
	for i := range order {
		order[i] = seqgraph.OpID(i)
	}
	slices.SortFunc(order, func(a, b seqgraph.OpID) int {
		if ea, eb := s.Assignments[a].End, s.Assignments[b].End; ea != eb {
			return cmp.Compare(eb, ea)
		}
		return cmp.Compare(b, a)
	})

	const inf = 1 << 30
	for _, op := range order {
		a := &s.Assignments[op]
		bound := inf
		isSink := len(g.Children(op)) == 0
		if isSink {
			continue
		}
		for _, c := range g.Children(op) {
			e := seqgraph.Edge{Parent: op, Child: c}
			ca := s.Assignments[c]
			if transported(e) {
				if v := ca.Start - s.Transport - s.DepartOffset(e); v < bound {
					bound = v
				}
			} else if ca.Start < bound {
				bound = ca.Start
			}
		}
		if next := successor[op]; next >= 0 {
			gap := outLen
			// A direct pass to the device successor needs no move-out gap.
			for _, c := range g.Children(op) {
				if c == next && !transported(seqgraph.Edge{Parent: op, Child: c}) {
					gap = 0
					break
				}
			}
			if v := s.Assignments[next].Start - gap; v < bound {
				bound = v
			}
		}
		if bound > a.End && bound < inf {
			dur := a.End - a.Start
			a.End = bound
			a.Start = bound - dur
		}
	}
	s.computeMakespan()
}
