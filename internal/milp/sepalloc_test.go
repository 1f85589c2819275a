package milp

import (
	"context"
	"testing"
)

// sepAllocsPerRoundRef is the checked-in allocations-per-round figure of one
// full separation sweep (Gomory + cover + clique) on the
// scheduling-shaped fixture, measured with persistent separators. The
// remaining allocations are the returned cutRow values themselves; the
// scratch buffers (dense accumulator, cover items, conflict
// val/ord/mask) are reused across rounds. The smoke test fails when a change
// doubles the figure — the regression mode this guards is a separator that
// silently goes back to allocating its scratch per round.
const sepAllocsPerRoundRef = 228

// sepFixture builds the separation fixture: a solved root relaxation of the
// scheduling-shaped MILP plus persistent per-family separators and the
// conflict graph, exactly as rootCutLoop holds them across rounds.
func sepFixture(tb testing.TB) (*instance, *simplexState, *cutSeparator, *cutSeparator, *conflictGraph, []float64) {
	tb.Helper()
	m := schedLikeLP(8, 3, false)
	in, st := compile(m, true)
	if st != StatusUnknown {
		tb.Fatalf("compile decided the model outright: %v", st)
	}
	s := newState(in)
	if status := s.solveCold(); status != StatusOptimal {
		tb.Fatalf("root relaxation status = %v", status)
	}
	x := make([]float64, in.nStruct)
	for j := range x {
		x[j] = s.colValue(j)
	}
	sepG := newCutSeparator(in)
	sepC := newCutSeparator(in)
	graph := buildConflictGraph(in, nil)
	if graph == nil {
		tb.Fatal("fixture mined no conflict edges; the clique family is not exercised")
	}
	return in, s, sepG, sepC, graph, x
}

// separationRound runs one full separation sweep with the given persistent
// separators and returns the number of cuts produced. It mirrors the per-round
// work of rootCutLoop's three family tasks.
func separationRound(in *instance, s *simplexState, sepG, sepC *cutSeparator, graph *conflictGraph, x []float64) int {
	cuts := 0
	for r := 0; r < in.m; r++ {
		if c := sepG.gomoryFromRow(s, r, x); c != nil {
			cuts++
		}
	}
	covers := 0
	for i := 0; i < in.m && covers < coverPerRound; i++ {
		if c := sepC.coverFromRow(i, x); c != nil {
			covers++
		}
	}
	cuts += covers
	if graph != nil {
		cuts += len(graph.separate(x))
	}
	return cuts
}

// TestSeparationAllocsPerRound is the allocation smoke gate: one separation
// round with persistent separators must stay within 2x the checked-in
// figure. CI runs it on every push (see bench-smoke).
func TestSeparationAllocsPerRound(t *testing.T) {
	in, s, sepG, sepC, graph, x := sepFixture(t)
	if n := separationRound(in, s, sepG, sepC, graph, x); n == 0 {
		t.Fatal("fixture separated no cuts; the allocation figure is meaningless")
	}
	allocs := testing.AllocsPerRun(10, func() {
		separationRound(in, s, sepG, sepC, graph, x)
	})
	if allocs > 2*sepAllocsPerRoundRef {
		t.Errorf("separation round allocates %.0f objects, more than 2x the checked-in figure %d",
			allocs, sepAllocsPerRoundRef)
	}
}

// BenchmarkCutSeparationRound contrasts one separation round with persistent
// (reused) separators against fresh per-round separators — run with -benchmem
// to see the allocation drop the scratch reuse buys.
func BenchmarkCutSeparationRound(b *testing.B) {
	in, s, sepG, sepC, graph, x := sepFixture(b)
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		var cuts int
		for i := 0; i < b.N; i++ {
			cuts = separationRound(in, s, sepG, sepC, graph, x)
		}
		b.ReportMetric(float64(cuts), "cuts")
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		var cuts int
		for i := 0; i < b.N; i++ {
			g := newCutSeparator(in)
			c := newCutSeparator(in)
			cg := buildConflictGraph(in, nil)
			cuts = separationRound(in, s, g, c, cg, x)
		}
		b.ReportMetric(float64(cuts), "cuts")
	})
}

// cutLoopAllocsRef is the checked-in allocation count of one whole root cut
// loop on the scheduling-shaped fixture (3 rounds, 46 cut rows), measured
// with simplex states recycled through statePool and the replaced state
// reset for each re-solve. The remaining allocations are the extended
// instances, the cut rows and the carried bases. A loop that builds a fresh
// simplex state and LU factor per re-solve allocated 9,260 objects here.
const cutLoopAllocsRef = 924

// TestRootCutLoopAllocs is the allocation smoke gate of the cut loop's
// re-solves: a repeated loop must stay within 2x the checked-in figure. CI
// runs it on every push (see bench-smoke).
func TestRootCutLoopAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops recycled states at random")
	}
	base, decided := compile(schedLikeLP(8, 3, false), true)
	if decided != StatusUnknown {
		t.Fatalf("compile decided the model outright: %v", decided)
	}
	if res := rootCutLoop(context.Background(), base, 1e-6, nil, 1, nil); res.stats.Rounds == 0 {
		t.Fatal("fixture ran no cut round; the allocation figure is meaningless")
	}
	allocs := testing.AllocsPerRun(10, func() {
		rootCutLoop(context.Background(), base, 1e-6, nil, 1, nil)
	})
	if allocs > 2*cutLoopAllocsRef {
		t.Errorf("root cut loop allocates %.0f objects, more than 2x the checked-in figure %d",
			allocs, cutLoopAllocsRef)
	}
}
