package verify_test

import (
	"testing"

	"flowsyn/internal/arch"
	"flowsyn/internal/assay"
	"flowsyn/internal/sched"
	"flowsyn/internal/storage"
	"flowsyn/internal/verify"
)

// checkAllocsRef is the checked-in allocation count of one full
// verification (CheckAllStrategy) of RA70 under hybrid storage (two LRU
// channel slots) and the time+storage objective, routed on its Table 2
// grid: a list-large-shaped job. The checker derives the schedule's tasks
// once, keeps its claim tables in slices and replays every change point into
// one simulator snapshot. A checker that builds two fresh maps per change
// point and derives the tasks three times allocated 2,574 objects here.
const checkAllocsRef = 412

// TestCheckAllStrategyAllocs is the checker's allocation gate: the fixed job
// must stay within 2x the checked-in figure. CI runs it in the allocation
// smoke step.
func TestCheckAllStrategyAllocs(t *testing.T) {
	b := assay.MustGet("RA70")
	model := storage.New(storage.Config{Policy: storage.Hybrid})
	s, err := sched.ListSchedule(b.Graph, sched.ListOptions{
		Devices:   b.Devices,
		Transport: b.Transport,
		Mode:      sched.TimeAndStorage,
		Storage:   model,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := arch.NewGrid(b.GridRows, b.GridCols)
	if err != nil {
		t.Fatal(err)
	}
	a, err := arch.Synthesize(s, grid, arch.Options{ModelIO: b.ModelIO})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := verify.CheckAllStrategy(s, a, model); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("CheckAllStrategy allocates %.0f objects (checked-in figure %d)", allocs, checkAllocsRef)
	if allocs > 2*checkAllocsRef {
		t.Errorf("CheckAllStrategy allocates %.0f objects, more than 2x the checked-in figure %d",
			allocs, checkAllocsRef)
	}
}
