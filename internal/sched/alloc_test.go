package sched_test

import (
	"testing"

	"flowsyn/internal/assay"
	"flowsyn/internal/sched"
	"flowsyn/internal/storage"
)

// listScheduleAllocsRef is the checked-in allocation count of one list
// schedule of RA70 under hybrid storage (two LRU channel slots) and the
// time+storage objective, at its Table 2 parameters: a list-large-shaped
// job. The scheduler picks from its ready list in one pass, peeks the unit
// port without copying its timeline and reuses its channel-capacity event
// buffer. A scheduler that re-sorts its ready list by reflection and copies
// the port timeline on every placement probe allocated 2,413 objects here.
const listScheduleAllocsRef = 443

// TestListScheduleAllocs is the scheduler's allocation gate: the fixed job
// must stay within 2x the checked-in figure. CI runs it in the allocation
// smoke step.
func TestListScheduleAllocs(t *testing.T) {
	b := assay.MustGet("RA70")
	opts := sched.ListOptions{
		Devices:   b.Devices,
		Transport: b.Transport,
		Mode:      sched.TimeAndStorage,
		Storage:   storage.New(storage.Config{Policy: storage.Hybrid}),
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sched.ListSchedule(b.Graph, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ListSchedule allocates %.0f objects (checked-in figure %d)", allocs, listScheduleAllocsRef)
	if allocs > 2*listScheduleAllocsRef {
		t.Errorf("ListSchedule allocates %.0f objects, more than 2x the checked-in figure %d",
			allocs, listScheduleAllocsRef)
	}
}
