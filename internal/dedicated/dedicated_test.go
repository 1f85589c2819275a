package dedicated

import (
	"reflect"
	"testing"
	"testing/quick"

	"flowsyn/internal/assay"
	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
)

func scheduleFor(t *testing.T, name string) *sched.Schedule {
	t.Helper()
	b := assay.MustGet(name)
	s, err := sched.ListSchedule(b.Graph, sched.ListOptions{
		Devices: b.Devices, Transport: b.Transport, Mode: sched.TimeAndStorage,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUnitValves(t *testing.T) {
	cases := map[int]int{0: 0, 1: 2, 2: 6, 3: 10, 4: 10, 8: 14, 16: 18}
	for cells, want := range cases {
		if got := UnitValves(cells); got != want {
			t.Errorf("UnitValves(%d) = %d, want %d", cells, got, want)
		}
	}
}

func TestExecuteNeverFaster(t *testing.T) {
	for _, name := range assay.Names() {
		s := scheduleFor(t, name)
		res, err := Execute(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Makespan < s.Makespan {
			t.Errorf("%s: dedicated makespan %d beats distributed %d — the unit should never win",
				name, res.Makespan, s.Makespan)
		}
	}
}

func TestExecutePreservesPrecedence(t *testing.T) {
	s := scheduleFor(t, "PCR")
	res, err := Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graph
	for _, e := range g.Edges() {
		pEnd := res.Starts[e.Parent] + g.Op(e.Parent).Duration
		if res.Starts[e.Child] < pEnd {
			t.Errorf("edge %d->%d: child starts %d before parent ends %d",
				e.Parent, e.Child, res.Starts[e.Child], pEnd)
		}
	}
}

func TestExecuteCountsAccesses(t *testing.T) {
	s := scheduleFor(t, "PCR")
	res, err := Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses == 0 {
		t.Error("PCR on one mixer must access the storage unit")
	}
	if res.PortBusy != res.Accesses*s.Transport {
		t.Errorf("port busy %d != accesses %d × uc %d", res.PortBusy, res.Accesses, s.Transport)
	}
	if res.Cells < 1 {
		t.Error("unit needs at least one cell")
	}
}

func TestCompareRatiosBelowOne(t *testing.T) {
	// Fig. 10: for assays with storage traffic, both ratios are <= 1.
	for _, name := range []string{"PCR", "RA30", "RA100"} {
		s := scheduleFor(t, name)
		c, err := Compare(s, 40)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.ExecRatio > 1.0001 {
			t.Errorf("%s: exec ratio %.3f > 1", name, c.ExecRatio)
		}
		if c.ValveRatio >= 1 {
			t.Errorf("%s: valve ratio %.3f >= 1", name, c.ValveRatio)
		}
	}
}

func TestPortSerialization(t *testing.T) {
	var l sched.PortTimeline
	a := l.Grant(0, 10)
	b := l.Grant(0, 10)
	c := l.Grant(5, 10)
	if a != 0 || b != 10 || c != 20 {
		t.Errorf("grants = %d,%d,%d; want 0,10,20", a, b, c)
	}
	// Zero-length grants are free.
	if l.Grant(3, 0) != 3 {
		t.Error("zero-length grant should return its requested time")
	}
}

// handSchedule builds a schedule directly from (device, start, end) triples
// so port-model edge cases can be pinned down without a scheduler in the way.
func handSchedule(t *testing.T, g *seqgraph.Graph, devices, transport int, asg []sched.Assignment) *sched.Schedule {
	t.Helper()
	s := &sched.Schedule{
		Graph:       g,
		Devices:     devices,
		Transport:   transport,
		Assignments: asg,
	}
	for _, a := range asg {
		if a.End > s.Makespan {
			s.Makespan = a.End
		}
	}
	return s
}

func mustOp(t *testing.T, g *seqgraph.Graph, name string, dur int) seqgraph.OpID {
	t.Helper()
	id, err := g.AddOperation(name, seqgraph.Mix, dur, 2)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestExecuteEdgeCases pins the port model's edge cases with hand-built
// schedules: a zero-resident schedule reports 0 cells and 0 unit valves, a
// store and a fetch requested at the same instant serialize in the fixed
// flush-before-fetch order, and two fetches contending for the same instant
// serialize in OpID order with the loser charged the queue delay.
func TestExecuteEdgeCases(t *testing.T) {
	t.Run("zero-resident chain", func(t *testing.T) {
		// A single-device chain consumes every result directly: the unit is
		// never touched, so it needs no cells and costs no valves.
		g := seqgraph.New("chain")
		o0 := mustOp(t, g, "o0", 10)
		o1 := mustOp(t, g, "o1", 7)
		if err := g.AddDependency(o0, o1); err != nil {
			t.Fatal(err)
		}
		s := handSchedule(t, g, 1, 4, []sched.Assignment{
			{Op: o0, Device: 0, Start: 0, End: 10},
			{Op: o1, Device: 0, Start: 10, End: 17},
		})
		res, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accesses != 0 || res.Cells != 0 || res.UnitValves != 0 || res.QueueDelay != 0 {
			t.Errorf("zero-resident chain: accesses=%d cells=%d unitValves=%d queue=%d, want all 0",
				res.Accesses, res.Cells, res.UnitValves, res.QueueDelay)
		}
		if res.Makespan != 17 {
			t.Errorf("makespan = %d, want 17 (direct consumption pays no transport)", res.Makespan)
		}
	})

	t.Run("simultaneous store+fetch serializes flush first", func(t *testing.T) {
		// Device 0 finishes o0 (displaced, flushed at t=10) exactly when o1's
		// cross-device result becomes fetchable (end 6 + u_c 4 = 10). Both
		// want the port at t=10; the replay always places the flush first, so
		// the store takes [10,14), the fetch [14,18), and o2 starts at 18.
		g := seqgraph.New("simul")
		o0 := mustOp(t, g, "o0", 10)
		o1 := mustOp(t, g, "o1", 6)
		o2 := mustOp(t, g, "o2", 5)
		if err := g.AddDependency(o1, o2); err != nil {
			t.Fatal(err)
		}
		s := handSchedule(t, g, 2, 4, []sched.Assignment{
			{Op: o0, Device: 0, Start: 0, End: 10},
			{Op: o1, Device: 1, Start: 0, End: 6},
			{Op: o2, Device: 0, Start: 10, End: 15},
		})
		first, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		if first.Accesses != 2 || first.PortBusy != 8 {
			t.Errorf("accesses=%d portBusy=%d, want 2 accesses busy 8", first.Accesses, first.PortBusy)
		}
		if got := first.Starts[o2]; got != 18 {
			t.Errorf("o2 starts at %d, want 18 (flush [10,14) then fetch [14,18))", got)
		}
		// o1's fluid waits in the unit [10,14); o0's flushed result sits in
		// its cell from 14 to the end of the replay. The intervals never
		// overlap, so one cell suffices.
		if first.Cells != 1 || first.UnitValves != UnitValves(1) {
			t.Errorf("cells=%d unitValves=%d, want 1 cell / %d valves", first.Cells, first.UnitValves, UnitValves(1))
		}
		// Deterministic: a replay of the same schedule reproduces every field.
		second, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("two replays disagree: %+v vs %+v", first, second)
		}
	})

	t.Run("simultaneous fetches queue in OpID order", func(t *testing.T) {
		// Two consumers on idle devices want their parents at the same
		// instant (both fetchable at 10+4=14). The replay walks operations in
		// original-start order with OpID ties, so o2 wins the port ([14,18))
		// and o3 queues — 4 s of charged delay, fetch [18,22).
		g := seqgraph.New("contend")
		o0 := mustOp(t, g, "o0", 10)
		o1 := mustOp(t, g, "o1", 10)
		o2 := mustOp(t, g, "o2", 5)
		o3 := mustOp(t, g, "o3", 5)
		if err := g.AddDependency(o0, o2); err != nil {
			t.Fatal(err)
		}
		if err := g.AddDependency(o1, o3); err != nil {
			t.Fatal(err)
		}
		s := handSchedule(t, g, 4, 4, []sched.Assignment{
			{Op: o0, Device: 0, Start: 0, End: 10},
			{Op: o1, Device: 1, Start: 0, End: 10},
			{Op: o2, Device: 2, Start: 10, End: 15},
			{Op: o3, Device: 3, Start: 10, End: 15},
		})
		res, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Starts[o2]; got != 18 {
			t.Errorf("o2 starts at %d, want 18 (its fetch won the port)", got)
		}
		if got := res.Starts[o3]; got != 22 {
			t.Errorf("o3 starts at %d, want 22 (its fetch queued behind o2's)", got)
		}
		if res.QueueDelay != 4 {
			t.Errorf("queue delay = %d, want 4 (one full port window)", res.QueueDelay)
		}
	})
}

// TestExecuteProperty: dedicated execution is always valid (precedence and
// non-overlap per device) and never faster than distributed, on random
// assays.
func TestExecuteProperty(t *testing.T) {
	prop := func(seed int64) bool {
		g := assay.Random(5+int(seed%11+11)%11, 3, seed)
		s, err := sched.ListSchedule(g, sched.ListOptions{Devices: 2, Transport: 8, Mode: sched.TimeAndStorage})
		if err != nil {
			return false
		}
		res, err := Execute(s)
		if err != nil {
			return false
		}
		if res.Makespan < s.Makespan {
			return false
		}
		for _, e := range g.Edges() {
			pEnd := res.Starts[e.Parent] + g.Op(e.Parent).Duration
			if res.Starts[e.Child] < pEnd {
				return false
			}
		}
		return res.QueueDelay >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
