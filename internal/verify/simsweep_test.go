package verify_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"flowsyn/internal/arch"
	"flowsyn/internal/assay"
	"flowsyn/internal/core"
	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
	"flowsyn/internal/sim"
	"flowsyn/internal/storage"
	"flowsyn/internal/verify"
)

// referenceSim is the reference CheckSim: it compares the simulator with the
// checker's interval accounting at every integer instant from 0 through the
// horizon, and returns the instants at which they disagree. CheckSim must
// fail exactly when this finds a disagreement.
func referenceSim(s *sched.Schedule, a *arch.Result) []int {
	simulator := sim.New(a, s)
	ac := verify.NewAccounting(a)
	var bad []int
	for t := 0; t <= verify.Horizon(s, a); t++ {
		states, cached := ac.At(t)
		if !agree(simulator.At(t), states, cached, ac.UnitAt(t)) {
			bad = append(bad, t)
		}
	}
	return bad
}

// agree reports whether a simulator snapshot matches the checker's view of
// the same instant.
func agree(snap *sim.Snapshot, states map[arch.EdgeID]verify.SegmentRole, cached, unit int) bool {
	if snap.CachedSamples != cached || snap.UnitSamples != unit || len(snap.Segment) != len(states) {
		return false
	}
	for e, role := range states {
		st, ok := snap.Segment[e]
		if !ok || st.String() != role.String() {
			return false
		}
	}
	return true
}

// mutations returns broken copies of a: a used segment dropped, a route
// re-pointed at an arbitrary grid segment, and a route's task shifted in
// time. Some break the agreement between simulator and checker for a few
// seconds, some for none; a is left untouched.
func mutations(a *arch.Result, r *rand.Rand) []*arch.Result {
	var out []*arch.Result
	if len(a.UsedEdges) > 0 {
		m := *a
		i := r.Intn(len(a.UsedEdges))
		m.UsedEdges = slices.Delete(slices.Clone(a.UsedEdges), i, i+1)
		out = append(out, &m)
	}
	if len(a.Routes) == 0 {
		return out
	}
	m := *a
	m.Routes = slices.Clone(a.Routes)
	route := &m.Routes[r.Intn(len(m.Routes))]
	e := arch.EdgeID(r.Intn(a.Grid.NumEdges()))
	if route.StorageEdge >= 0 {
		route.StorageEdge = e
	} else if len(route.OutEdges) > 0 {
		route.OutEdges = slices.Clone(route.OutEdges)
		route.OutEdges[r.Intn(len(route.OutEdges))] = e
	}
	out = append(out, &m)

	m = *a
	m.Routes = slices.Clone(a.Routes)
	route = &m.Routes[r.Intn(len(m.Routes))]
	shift := r.Intn(41) - 20
	route.Task.Depart += shift
	route.Task.Arrive += shift
	route.Task.OutStart += shift
	route.Task.OutEnd += shift
	route.Task.FetchStart += shift
	route.Task.FetchEnd += shift
	return append(out, &m)
}

// TestCheckSimMatchesPerInstantReference synthesizes random assays under
// every storage strategy, then checks that CheckSim and the per-instant
// reference agree on the result and on mutated copies of its chip.
func TestCheckSimMatchesPerInstantReference(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 3
	}
	r := rand.New(rand.NewSource(1))
	checked, rejected := 0, 0
	for seed := 1; seed <= seeds; seed++ {
		for _, n := range []int{6, 12, 24} {
			for _, policy := range []storage.Policy{storage.Distributed, storage.Dedicated, storage.Hybrid} {
				name := fmt.Sprintf("n%d-s%d-%v", n, seed, policy)
				res, err := core.Synthesize(assay.Random(n, 3, int64(seed)), core.Options{
					Devices:  3,
					GridRows: 5,
					GridCols: 5,
					Engine:   core.Heuristic,
					Storage:  storage.Config{Policy: policy},
					ModelIO:  seed%2 == 0,
				})
				if err != nil {
					continue // not every random assay routes on a 5x5 grid
				}
				s, a := res.Schedule, res.Architecture
				if bad := referenceSim(s, a); len(bad) > 0 {
					t.Fatalf("%s: reference finds the verified result disagreeing at t=%v", name, bad)
				}
				if err := verify.CheckSim(s, a); err != nil {
					t.Fatalf("%s: CheckSim rejects a result the reference accepts: %v", name, err)
				}
				for k, m := range mutations(a, r) {
					bad := referenceSim(s, m)
					err := verify.CheckSim(s, m)
					if (err != nil) != (len(bad) > 0) {
						t.Fatalf("%s mutation %d: CheckSim error %v, reference disagreements at t=%v", name, k, err, bad)
					}
					checked++
					if len(bad) > 0 {
						rejected++
					}
				}
			}
		}
	}
	if rejected == 0 || rejected == checked {
		t.Fatalf("%d of %d mutated chips disagree; the oracle needs both outcomes", rejected, checked)
	}
	t.Logf("%d of %d mutated chips disagree", rejected, checked)
}

// TestCheckSimCatchesOneSecondDisagreement drops from UsedEdges a segment
// that only a one-second transport uses: simulator and checker then disagree
// during that second alone, and CheckSim must still report it.
func TestCheckSimCatchesOneSecondDisagreement(t *testing.T) {
	g := seqgraph.New("blink")
	o1 := g.MustAddOperation("o1", seqgraph.Mix, 10, 2)
	o2 := g.MustAddOperation("o2", seqgraph.Mix, 10, 0)
	g.MustAddDependency(o1, o2)
	s := &sched.Schedule{
		Graph:     g,
		Devices:   2,
		Transport: 1,
		Assignments: []sched.Assignment{
			{Op: o1, Device: 0, Start: 0, End: 10},
			{Op: o2, Device: 1, Start: 11, End: 21},
		},
		Makespan: 21,
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("hand-built schedule invalid: %v", err)
	}
	grid, err := arch.NewGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := arch.Synthesize(s, grid, arch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Routes) != 1 || a.Routes[0].Task.Kind != sched.Direct {
		t.Fatalf("want one direct route, got %d routes", len(a.Routes))
	}
	route := a.Routes[0]
	if route.Task.Arrive-route.Task.Depart != 1 {
		t.Fatalf("transport window [%d,%d) is not one second", route.Task.Depart, route.Task.Arrive)
	}
	if err := verify.CheckSim(s, a); err != nil {
		t.Fatalf("valid chip rejected: %v", err)
	}

	m := *a
	m.UsedEdges = slices.DeleteFunc(slices.Clone(a.UsedEdges), func(e arch.EdgeID) bool { return e == route.OutEdges[0] })
	if bad := referenceSim(s, &m); !slices.Equal(bad, []int{route.Task.Depart}) {
		t.Fatalf("reference disagreements at t=%v, want only t=%d", bad, route.Task.Depart)
	}
	err = verify.CheckSim(s, &m)
	if err == nil {
		t.Fatal("CheckSim missed a one-second disagreement")
	}
	verr, ok := err.(*verify.Error)
	if !ok || len(verr.Violations) == 0 || verr.Violations[0].Invariant != verify.InvSimAgreement {
		t.Fatalf("want a %s violation, got %v", verify.InvSimAgreement, err)
	}
}
