package arch_test

import (
	"testing"

	"flowsyn/internal/arch"
	"flowsyn/internal/assay"
	"flowsyn/internal/sched"
	"flowsyn/internal/storage"
)

// synthesizeAllocsRef is the checked-in allocation count of routing one
// list schedule of RA70 under hybrid storage (two LRU channel slots) and the
// time+storage objective on its Table 2 grid: a list-large-shaped job. The
// router reuses its two shortest-path trees, its heap and its candidate list
// for every query; what remains is mostly the routed paths themselves and
// the per-resource reservation lists. A router that allocates fresh trees
// and a fresh heap per query and copies each route's segments allocated
// 2,777 objects here.
const synthesizeAllocsRef = 1192

// TestSynthesizeAllocs is the router's allocation gate: the fixed job must
// stay within 2x the checked-in figure. CI runs it in the allocation smoke
// step.
func TestSynthesizeAllocs(t *testing.T) {
	b := assay.MustGet("RA70")
	s, err := sched.ListSchedule(b.Graph, sched.ListOptions{
		Devices:   b.Devices,
		Transport: b.Transport,
		Mode:      sched.TimeAndStorage,
		Storage:   storage.New(storage.Config{Policy: storage.Hybrid}),
	})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := arch.NewGrid(b.GridRows, b.GridCols)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := arch.Synthesize(s, grid, arch.Options{ModelIO: b.ModelIO}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Synthesize allocates %.0f objects (checked-in figure %d)", allocs, synthesizeAllocsRef)
	if allocs > 2*synthesizeAllocsRef {
		t.Errorf("Synthesize allocates %.0f objects, more than 2x the checked-in figure %d",
			allocs, synthesizeAllocsRef)
	}
}
