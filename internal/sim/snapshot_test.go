package sim

import (
	"maps"
	"slices"
	"testing"

	"flowsyn/internal/arch"
	"flowsyn/internal/assay"
	"flowsyn/internal/sched"
)

// pcrSimulator synthesizes the PCR benchmark with the deterministic
// list-scheduler + router pair, so every run of this file sees the identical
// execution.
func pcrSimulator(t *testing.T) (*Simulator, *sched.Schedule) {
	t.Helper()
	b := assay.MustGet("PCR")
	if !b.ModelIO {
		t.Fatal("PCR benchmark no longer models I/O; snapshot expectations below are stale")
	}
	s, err := sched.ListSchedule(b.Graph, sched.ListOptions{Devices: b.Devices, Transport: b.Transport})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := arch.NewGrid(b.GridRows, b.GridCols)
	if err != nil {
		t.Fatal(err)
	}
	res, err := arch.Synthesize(s, grid, arch.Options{ModelIO: b.ModelIO})
	if err != nil {
		t.Fatal(err)
	}
	return New(res, s), s
}

// segmentCounts tallies the Transporting and Caching segments of a snapshot.
func segmentCounts(snap *Snapshot) (transporting, caching int) {
	for _, st := range snap.Segment {
		switch st {
		case Transporting:
			transporting++
		case Caching:
			caching++
		}
	}
	return transporting, caching
}

// TestPCRSnapshotCounts pins the chip state of the deterministic PCR
// execution at fixed instants: reagent loading before any operation runs,
// single- and double-fluid caching phases, and the product unload tail at
// the makespan.
func TestPCRSnapshotCounts(t *testing.T) {
	sim, s := pcrSimulator(t)
	if s.Makespan != 310 {
		t.Fatalf("deterministic PCR schedule drifted: makespan %d, want 310", s.Makespan)
	}
	cases := []struct {
		time                  int
		transporting, caching int
		cached                int
	}{
		{time: 10, transporting: 2, caching: 0, cached: 0},  // reagents loading, nothing running
		{time: 60, transporting: 0, caching: 1, cached: 1},  // first intermediate parked in a channel
		{time: 185, transporting: 4, caching: 1, cached: 1}, // transports around a live cache
		{time: 190, transporting: 0, caching: 2, cached: 2}, // two fluids cached at once
		{time: 265, transporting: 3, caching: 0, cached: 0}, // all caches drained
		{time: 310, transporting: 2, caching: 0, cached: 0}, // product unloads at the makespan
	}
	for _, c := range cases {
		snap := sim.At(c.time)
		tr, ca := segmentCounts(snap)
		if tr != c.transporting || ca != c.caching || snap.CachedSamples != c.cached {
			t.Errorf("t=%d: transporting=%d caching=%d cached=%d, want %d/%d/%d",
				c.time, tr, ca, snap.CachedSamples, c.transporting, c.caching, c.cached)
		}
	}
}

// TestPCRSnapshotInternalConsistency cross-checks every interesting instant:
// the caching segment count must equal the cached-sample count (one fluid
// per storage segment), and every active route must touch at least one
// non-idle segment.
func TestPCRSnapshotInternalConsistency(t *testing.T) {
	sim, _ := pcrSimulator(t)
	for _, ts := range sim.InterestingTimes() {
		snap := sim.At(ts)
		_, caching := segmentCounts(snap)
		if caching != snap.CachedSamples {
			t.Errorf("t=%d: %d caching segments for %d cached samples", ts, caching, snap.CachedSamples)
		}
		busy := 0
		for _, st := range snap.Segment {
			if st != Idle {
				busy++
			}
		}
		if len(snap.ActiveRoutes) > 0 && busy == 0 {
			t.Errorf("t=%d: %d active routes but no busy segment", ts, len(snap.ActiveRoutes))
		}
	}
}

// TestFillReusesSnapshot fills one snapshot across the whole execution and
// checks every instant against a fresh At, on the chip and on a copy missing
// one used segment (whose routes then add a segment outside UsedEdges):
// clearing the map and truncating the slices must leave nothing of the
// previous instant behind.
func TestFillReusesSnapshot(t *testing.T) {
	chip, s := pcrSimulator(t)
	pruned := *chip.res
	pruned.UsedEdges = pruned.UsedEdges[1:]
	for _, sim := range []*Simulator{chip, New(&pruned, s)} {
		snap := &Snapshot{}
		for tm := -1; tm <= sim.Horizon()+1; tm++ {
			sim.Fill(snap, tm)
			want := sim.At(tm)
			if snap.Time != want.Time || snap.OutOfRange != want.OutOfRange ||
				snap.CachedSamples != want.CachedSamples || snap.UnitSamples != want.UnitSamples ||
				!maps.Equal(snap.Segment, want.Segment) ||
				!slices.Equal(snap.RunningOps, want.RunningOps) || !slices.Equal(snap.ActiveRoutes, want.ActiveRoutes) {
				t.Fatalf("t=%d: reused snapshot %+v differs from a fresh one %+v", tm, snap, want)
			}
		}
	}
}
