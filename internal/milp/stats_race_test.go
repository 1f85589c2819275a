package milp

import (
	"reflect"
	"sync"
	"testing"
)

// TestMILPParallelStatsCoherent stress-tests the multi-worker aggregation of
// the cut-and-branch counters under the race detector: several concurrent
// Solves with a worker pool each, all on a model hard enough that cuts,
// reliability probes, heuristics and reduced-cost fixing all fire. Every
// worker tallies locally and merges under the shared mutex at exit; this test
// pins the invariants that aggregation must preserve regardless of
// interleaving.
func TestMILPParallelStatsCoherent(t *testing.T) {
	var wg sync.WaitGroup
	for run := 0; run < 2; run++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, _ := hardKnapsack(16)
			sol, err := Solve(m, SolveOptions{Workers: 4})
			if err != nil {
				t.Error(err)
				return
			}
			if sol.Status != StatusOptimal {
				t.Errorf("status = %v, want optimal", sol.Status)
				return
			}
			st := sol.Stats
			if st.Workers != 4 {
				t.Errorf("Workers = %d, want 4", st.Workers)
			}
			// Every node relaxation was either warm- or cold-started; the root
			// cut loop books one extra cold solve without a node when it ran
			// to optimality. A lost or double-counted merge breaks this.
			if got := st.WarmStarts + st.ColdStarts; got != st.Nodes && got != st.Nodes+1 {
				t.Errorf("warm %d + cold %d = %d, want nodes %d or nodes+1",
					st.WarmStarts, st.ColdStarts, got, st.Nodes)
			}
			// The pricing split partitions total pivots: nothing else
			// increments SimplexIters once the search runs.
			if got := st.IncrementalPivots + st.FullPricingPivots; got != st.SimplexIters {
				t.Errorf("incremental %d + full %d pivots != simplex iters %d",
					st.IncrementalPivots, st.FullPricingPivots, st.SimplexIters)
			}
			if st.Cuts.Applied > st.Cuts.Gomory+st.Cuts.Cover+st.Cuts.Clique {
				t.Errorf("applied %d cuts but only %d+%d+%d separated",
					st.Cuts.Applied, st.Cuts.Gomory, st.Cuts.Cover, st.Cuts.Clique)
			}
			if st.SeparationWall < 0 {
				t.Errorf("SeparationWall = %v, want >= 0", st.SeparationWall)
			}
			for name, v := range map[string]int{
				"PseudoCostInits":          st.PseudoCostInits,
				"HeuristicIncumbents":      st.HeuristicIncumbents,
				"LocalBranchingIncumbents": st.LocalBranchingIncumbents,
				"ReducedCostFixings":       st.ReducedCostFixings,
				"PropagationTightenings":   st.PropagationTightenings,
				"PropagationPrunes":        st.PropagationPrunes,
				"CutsAgedOut":              st.Cuts.AgedOut,
				"CliqueCuts":               st.Cuts.Clique,
			} {
				if v < 0 {
					t.Errorf("%s = %d, want >= 0", name, v)
				}
			}
			// The hard knapsack needs real branching; reliability probes must
			// have initialized at least one pseudo-cost pair.
			if st.Nodes > 1 && st.PseudoCostInits == 0 {
				t.Error("no pseudo-cost reliability probes despite branching")
			}
		}()
	}
	wg.Wait()
}

// TestMILPSequentialSeparationDeterministic pins the byte-reproducibility
// contract of a Workers=1 solve on a separation-rich model (the companion of
// TestMILPSequentialDeterministic's pure knapsack): two runs must walk the
// same tree and produce identical solutions and counters. The
// scheduling-shaped fixture exercises every separation family (its assignment
// equalities mine conflict edges, the big-M rows feed Gomory and cover
// separation), so the test guards the deterministic candidate ordering in the
// root cut loop — an unsorted merge shows up here as diverging node or cut
// counts.
func TestMILPSequentialSeparationDeterministic(t *testing.T) {
	solveOnce := func() (*Solution, SolveStats) {
		m := schedLikeLP(6, 2, false)
		sol, err := Solve(m, SolveOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("status = %v, want optimal", sol.Status)
		}
		st := sol.Stats
		// Wall-clock time is the one legitimately nondeterministic counter.
		st.SeparationWall = 0
		return sol, st
	}
	a, sa := solveOnce()
	b, sb := solveOnce()
	if a.Objective != b.Objective {
		t.Errorf("objective diverged: %v vs %v", a.Objective, b.Objective)
	}
	if !reflect.DeepEqual(a.X, b.X) {
		t.Errorf("solution vectors diverged:\n  %v\n  %v", a.X, b.X)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("stats diverged:\n  %+v\n  %+v", sa, sb)
	}
}
