package sched

import (
	"testing"
	"time"

	"flowsyn/internal/assay"
	"flowsyn/internal/milp"
	"flowsyn/internal/seqgraph"
)

// chain3 is a three-op pipeline: a -> b -> c.
func chain3() *seqgraph.Graph {
	g := seqgraph.New("chain3")
	a := g.MustAddOperation("a", seqgraph.Mix, 10, 2)
	b := g.MustAddOperation("b", seqgraph.Mix, 20, 0)
	c := g.MustAddOperation("c", seqgraph.Mix, 15, 0)
	g.MustAddDependency(a, b)
	g.MustAddDependency(b, c)
	return g
}

func TestILPChainOneDevice(t *testing.T) {
	g := chain3()
	s, info, err := ILPSchedule(g, ILPOptions{Devices: 1, Transport: 5, WarmStart: true, TimeLimit: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Pure chain on one device: direct passes, makespan = 45.
	if s.Makespan != 45 {
		t.Errorf("makespan = %d, want 45 (direct-pass chain)", s.Makespan)
	}
	if info.ModelStats.Vars == 0 {
		t.Error("missing model stats")
	}
}

func TestILPParallelTwoDevices(t *testing.T) {
	// Two independent ops of 30s: with two devices both run at t=0.
	g := seqgraph.New("par")
	g.MustAddOperation("a", seqgraph.Mix, 30, 2)
	g.MustAddOperation("b", seqgraph.Mix, 30, 2)
	s, _, err := ILPSchedule(g, ILPOptions{Devices: 2, Transport: 5, WarmStart: true, TimeLimit: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 30 {
		t.Errorf("makespan = %d, want 30", s.Makespan)
	}
	if s.Device(0) == s.Device(1) {
		t.Error("independent ops should use both devices")
	}
}

func TestILPRespectsNonOverlap(t *testing.T) {
	// Two independent ops, one device: must serialize, makespan >= 60.
	g := seqgraph.New("serial")
	g.MustAddOperation("a", seqgraph.Mix, 30, 2)
	g.MustAddOperation("b", seqgraph.Mix, 30, 2)
	s, _, err := ILPSchedule(g, ILPOptions{Devices: 1, Transport: 5, WarmStart: true, TimeLimit: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan < 60 {
		t.Errorf("makespan = %d, want >= 60 on a single device", s.Makespan)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestILPPCRSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP on PCR is slow in -short mode")
	}
	g := assay.PCR()
	s, info, err := ILPSchedule(g, ILPOptions{
		Devices: 2, Transport: 10, WarmStart: true, TimeLimit: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Never worse than the warm-start incumbent.
	inc, err := ListSchedule(g, ListOptions{Devices: 2, Transport: 10, Mode: TimeAndStorage})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan > inc.Makespan {
		t.Errorf("ILP makespan %d worse than incumbent %d (status %v)",
			s.Makespan, inc.Makespan, info.Status)
	}
}

func TestILPTimeLimitFallsBack(t *testing.T) {
	g := assay.MustGet("RA30").Graph
	s, info, err := ILPSchedule(g, ILPOptions{
		Devices: 3, Transport: 10, WarmStart: true, TimeLimit: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if info.Status == milp.StatusOptimal {
		t.Logf("note: RA30 solved to optimality surprisingly fast (%v)", info.Runtime)
	}
}

func TestILPErrors(t *testing.T) {
	g := chain3()
	if _, _, err := ILPSchedule(g, ILPOptions{Devices: 0, Transport: 5}); err == nil {
		t.Error("zero devices accepted")
	}
	if _, _, err := ILPSchedule(g, ILPOptions{Devices: 1, Transport: 0}); err == nil {
		t.Error("zero transport accepted")
	}
}

func TestILPBetaZeroMode(t *testing.T) {
	g := chain3()
	s, _, err := ILPSchedule(g, ILPOptions{
		Devices: 2, Transport: 5, Beta: -1, WarmStart: true, TimeLimit: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

// TestILPIVDProvesOptimal pins the headline capability this solver
// generation added: the IVD benchmark (12 independent mixing operations on
// two devices) was a 20-second time-limit fallback with an 83% gap under the
// dense-kernel solver; with the sparse LU kernel, the tightened formulation
// and the greedy model warm start it must prove optimality at the root in
// well under a second.
func TestILPIVDProvesOptimal(t *testing.T) {
	b, err := assay.Get("IVD")
	if err != nil {
		t.Fatal(err)
	}
	s, info, err := ILPSchedule(b.Graph, ILPOptions{
		Devices: b.Devices, Transport: b.Transport,
		TimeLimit: 10 * time.Second, WarmStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != milp.StatusOptimal {
		t.Fatalf("status = %v (gap %.4f), want optimal", info.Status, info.Solver.Gap)
	}
	if info.Solver.Gap != 0 {
		t.Errorf("gap = %v, want 0 for a full proof", info.Solver.Gap)
	}
	// The model optimum is the perfect 270 s device partition; the realized
	// schedule pays the stricter flush semantics on top.
	if info.Objective != 27000 {
		t.Errorf("model objective = %v, want 27000 (tE = 270)", info.Objective)
	}
	if s.Makespan != 295 {
		t.Errorf("realized makespan = %d, want 295", s.Makespan)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

// TestILPRootProofsNeedNoCuts pins the paper-scale root proofs: on PCR and
// IVD the warm-start incumbent already meets the rounded root LP bound, so
// the solver must prove it at the root node without a single cut round.
func TestILPRootProofsNeedNoCuts(t *testing.T) {
	for _, name := range []string{"PCR", "IVD"} {
		b := assay.MustGet(name)
		_, info, err := ILPSchedule(b.Graph, ILPOptions{
			Devices: b.Devices, Transport: b.Transport,
			TimeLimit: 10 * time.Second, WarmStart: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != milp.StatusOptimal || info.Solver.Nodes != 1 || info.Solver.Cuts.Rounds != 0 {
			t.Errorf("%s: status %v, %d nodes, %d cut rounds; want optimal at 1 node with 0 rounds",
				name, info.Status, info.Solver.Nodes, info.Solver.Cuts.Rounds)
		}
	}
}

// TestGreedyModelScheduleHonorsPin checks the pinned greedy challenger on
// IVD cut at a quarter, half and three quarters of its list makespan, with
// each device failed in turn: the executed prefix comes back verbatim, and
// every re-planned operation starts at or after the fault instant on a live
// device, after its parents' outputs arrive (transport charged across
// devices) and after the device's previous operation ends.
func TestGreedyModelScheduleHonorsPin(t *testing.T) {
	b := assay.MustGet("IVD")
	g := b.Graph
	prior, err := ListSchedule(g, ListOptions{Devices: b.Devices, Transport: b.Transport})
	if err != nil {
		t.Fatal(err)
	}
	_, tail := timeWindows(g)
	for _, cut := range []int{prior.Makespan / 4, prior.Makespan / 2, 3 * prior.Makespan / 4} {
		for failed := 0; failed < b.Devices; failed++ {
			pin := &Pin{Time: cut, Forbidden: map[int]bool{failed: true}}
			for _, a := range prior.Assignments {
				if a.Start < pin.Time {
					pin.Assignments = append(pin.Assignments, a)
				}
			}
			if err := pin.Validate(g, b.Devices); err != nil {
				t.Fatal(err)
			}
			start, end, dev, mk := greedyModelSchedule(g, ILPOptions{
				Devices: b.Devices, Transport: b.Transport, Pin: pin,
			}, tail)
			checkPinnedGreedy(t, g, b.Transport, pin, start, end, dev, mk)
		}
	}
	// A fault detected long after the last executed operation ended: the
	// suffix still waits for the fault instant.
	c3 := chain3()
	pin := &Pin{Time: 50, Assignments: []Assignment{{Op: 0, Device: 0, Start: 0, End: 10}},
		Forbidden: map[int]bool{1: true}}
	if err := pin.Validate(c3, 2); err != nil {
		t.Fatal(err)
	}
	_, c3tail := timeWindows(c3)
	start, end, dev, mk := greedyModelSchedule(c3, ILPOptions{Devices: 2, Transport: 5, Pin: pin}, c3tail)
	checkPinnedGreedy(t, c3, 5, pin, start, end, dev, mk)
}

func checkPinnedGreedy(t *testing.T, g *seqgraph.Graph, transport int, pin *Pin, start, end, dev []int, mk int) {
	t.Helper()
	isPinned := pin.pinned(g.NumOps())
	for _, a := range pin.Assignments {
		if start[a.Op] != a.Start || end[a.Op] != a.End || dev[a.Op] != a.Device {
			t.Errorf("cut %d: pinned op %d moved to %d..%d on %d, want %d..%d on %d", pin.Time,
				a.Op, start[a.Op], end[a.Op], dev[a.Op], a.Start, a.End, a.Device)
		}
	}
	last := 0
	for i := 0; i < g.NumOps(); i++ {
		last = max(last, end[i])
		if isPinned[i] {
			continue
		}
		id := seqgraph.OpID(i)
		if start[i] < pin.Time || pin.Forbidden[dev[i]] || end[i] != start[i]+g.Op(id).Duration {
			t.Errorf("cut %d: op %d re-planned at %d..%d on device %d (forbidden %v)",
				pin.Time, i, start[i], end[i], dev[i], pin.Forbidden)
		}
		for _, p := range g.Parents(id) {
			arrive := end[p]
			if dev[p] != dev[i] {
				arrive += transport
			}
			if start[i] < arrive {
				t.Errorf("cut %d: op %d starts at %d before parent %d arrives at %d",
					pin.Time, i, start[i], p, arrive)
			}
		}
		for j := 0; j < g.NumOps(); j++ {
			if j != i && dev[j] == dev[i] && start[j] <= start[i] && end[j] > start[i] {
				t.Errorf("cut %d: op %d at %d overlaps op %d (%d..%d) on device %d",
					pin.Time, i, start[i], j, start[j], end[j], dev[i])
			}
		}
	}
	if mk != last {
		t.Errorf("cut %d: makespan %d, want the last end %d", pin.Time, mk, last)
	}
}

// TestMaxExactOpsRaised documents the raised exact-size cap; lowering it
// again is a regression the ROADMAP cares about.
func TestMaxExactOpsRaised(t *testing.T) {
	if MaxExactOps < 20 {
		t.Fatalf("MaxExactOps = %d, want >= 20", MaxExactOps)
	}
}
