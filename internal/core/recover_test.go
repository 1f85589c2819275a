package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"flowsyn/internal/arch"
	"flowsyn/internal/assay"
	"flowsyn/internal/milp"
	"flowsyn/internal/sim"
	"flowsyn/internal/storage"
	"flowsyn/internal/verify"
)

// recoverFixture synthesizes the named benchmark with the heuristic engine
// and returns the result to inject faults into.
func recoverFixture(t *testing.T, name string) (*Result, Options) {
	t.Helper()
	b := assay.MustGet(name)
	opts := Options{
		Devices:   b.Devices,
		Transport: b.Transport,
		GridRows:  b.GridRows,
		GridCols:  b.GridCols,
		ModelIO:   b.ModelIO,
		Engine:    Heuristic,
	}
	res, err := Synthesize(b.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, opts
}

func TestRecoverDeviceFault(t *testing.T) {
	prior, opts := recoverFixture(t, "CPA")
	opts.Verify = true
	fault := sim.Fault{Kind: sim.FaultDevice, Time: prior.Schedule.Makespan / 2, Device: 0}
	rec, err := RecoverContext(context.Background(), opts, prior, fault)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Verified {
		t.Error("recovered result not marked verified")
	}
	r := rec.Recovery
	if r == nil {
		t.Fatal("no recovery metrics")
	}
	if r.Fault != fault {
		t.Errorf("Recovery.Fault = %v, want %v", r.Fault, fault)
	}
	if r.OldMakespan != prior.Schedule.Makespan || r.NewMakespan != rec.Schedule.Makespan {
		t.Errorf("makespans %d/%d, want %d/%d",
			r.OldMakespan, r.NewMakespan, prior.Schedule.Makespan, rec.Schedule.Makespan)
	}
	if r.MakespanDelta != r.NewMakespan-r.OldMakespan {
		t.Errorf("MakespanDelta = %d", r.MakespanDelta)
	}
	// Mid-execution fault on a busy benchmark: some work must have completed.
	if r.PreservedOps == 0 {
		t.Error("expected a non-empty executed prefix")
	}
	// Zero re-executed prefix work, re-checked directly on top of the
	// verify stage.
	for _, a := range prior.Schedule.Assignments {
		if a.Start < fault.Time && rec.Schedule.Assignments[a.Op] != a {
			t.Errorf("executed op %d re-planned", a.Op)
		}
	}
	if !strings.Contains(r.String(), "ops preserved") {
		t.Errorf("Recovery.String() = %q", r.String())
	}
}

func TestRecoverChannelAndStorageFaults(t *testing.T) {
	prior, opts := recoverFixture(t, "PCR")
	opts.Verify = true
	// Fail a segment a routed path actually uses, so the mask has teeth.
	var edge arch.EdgeID
	found := false
	for _, rt := range prior.Architecture.Routes {
		for _, e := range rt.Edges() {
			edge, found = e, true
			break
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no routed edges in the prior architecture")
	}
	for _, kind := range []sim.FaultKind{sim.FaultChannel, sim.FaultStorage} {
		fault := sim.Fault{Kind: kind, Time: prior.Schedule.Makespan / 3, Edge: edge}
		rec, err := RecoverContext(context.Background(), opts, prior, fault)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !rec.Verified {
			t.Errorf("%v: recovered result not verified", kind)
		}
	}
}

// TestRecoverExactEngine drives the recovery splice through the exact MILP:
// the pinned prefix becomes fixed variables and the prior plan warm-starts
// the solve, so the spliced schedule must verify just like the heuristic one.
func TestRecoverExactEngine(t *testing.T) {
	b := assay.MustGet("PCR")
	opts := Options{
		Devices:   b.Devices,
		Transport: b.Transport,
		GridRows:  b.GridRows,
		GridCols:  b.GridCols,
		ModelIO:   b.ModelIO,
		Engine:    ExactILP,
		Verify:    true,
	}
	prior, err := Synthesize(b.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	fault := sim.Fault{Kind: sim.FaultStorage, Time: prior.Schedule.Makespan / 2,
		Edge: prior.Architecture.UsedEdges[0]}
	rec, err := RecoverContext(context.Background(), opts, prior, fault)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Verified {
		t.Error("exact-engine recovery not verified")
	}
	if rec.SchedInfo == nil {
		t.Error("exact-engine recovery carries no solver info")
	}
	for _, a := range prior.Schedule.Assignments {
		if a.Start < fault.Time && rec.Schedule.Assignments[a.Op] != a {
			t.Errorf("executed op %d re-planned by the exact engine", a.Op)
		}
	}
}

// TestRecoverIVDProvesAtRoot pins the pinned solve's warm start: with the
// model-semantics greedy challenger seeded by the executed prefix, IVD's
// recovery from a mid-run device fault starts at an incumbent that meets the
// rounded root bound, so the exact engine proves it at the root node without
// a cut round. The list schedule's realized times alone leave a model
// objective above that bound, which the tree then has to close.
func TestRecoverIVDProvesAtRoot(t *testing.T) {
	b := assay.MustGet("IVD")
	opts := Options{
		Devices:   b.Devices,
		Transport: b.Transport,
		GridRows:  b.GridRows,
		GridCols:  b.GridCols,
		ModelIO:   b.ModelIO,
		Engine:    ExactILP,
		Verify:    true,
	}
	prior, err := Synthesize(b.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	fault := sim.Fault{Kind: sim.FaultDevice, Time: prior.Schedule.Makespan / 2, Device: 1}
	rec, err := RecoverContext(context.Background(), opts, prior, fault)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Verified {
		t.Error("IVD recovery not verified")
	}
	info := rec.SchedInfo
	if info == nil {
		t.Fatal("exact-engine recovery carries no solver info")
	}
	if info.Status != milp.StatusOptimal || info.Solver.Nodes != 1 || info.Solver.Cuts.Rounds != 0 {
		t.Errorf("status %v, %d nodes, %d cut rounds; want optimal at 1 node with 0 rounds",
			info.Status, info.Solver.Nodes, info.Solver.Cuts.Rounds)
	}
}

func TestRecoverFaultAtZeroAndAfterEnd(t *testing.T) {
	prior, opts := recoverFixture(t, "CPA")
	opts.Verify = true
	// Fault at t=0: nothing executed, full re-synthesis on the masked chip.
	rec, err := RecoverContext(context.Background(), opts, prior, sim.Fault{Kind: sim.FaultDevice, Time: 0, Device: prior.Schedule.Devices - 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Recovery.PreservedOps != 0 {
		t.Errorf("PreservedOps = %d at t=0", rec.Recovery.PreservedOps)
	}
	for _, a := range rec.Schedule.Assignments {
		if a.Device == prior.Schedule.Devices-1 {
			t.Errorf("op %d still on failed device", a.Op)
		}
	}
	// Fault after the last start: the whole plan is pinned; recovery is the
	// prior plan plus re-derived I/O routing.
	late := sim.Fault{Kind: sim.FaultDevice, Time: prior.Schedule.Makespan + 1, Device: 0}
	rec, err = RecoverContext(context.Background(), opts, prior, late)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Recovery.PreservedOps, len(prior.Schedule.Assignments); got != want {
		t.Errorf("PreservedOps = %d, want %d", got, want)
	}
	if rec.Schedule.Makespan != prior.Schedule.Makespan {
		t.Errorf("fully-pinned recovery changed makespan %d -> %d",
			prior.Schedule.Makespan, rec.Schedule.Makespan)
	}
}

func TestRecoverRejectsBadInputs(t *testing.T) {
	prior, opts := recoverFixture(t, "PCR")
	if _, err := RecoverContext(context.Background(), opts, nil, sim.Fault{}); err == nil {
		t.Error("nil prior accepted")
	}
	if _, err := RecoverContext(context.Background(), opts, prior, sim.Fault{Kind: sim.FaultDevice, Time: -1}); err == nil {
		t.Error("negative fault time accepted")
	}
	if _, err := RecoverContext(context.Background(), opts, prior, sim.Fault{Kind: sim.FaultDevice, Device: 99}); err == nil {
		t.Error("out-of-range device accepted")
	}
	if _, err := RecoverContext(context.Background(), opts, prior, sim.Fault{Kind: sim.FaultChannel, Edge: arch.EdgeID(1 << 20)}); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

// TestRecoverVerifyChecksStrategy guards the strategy invariants of recovered
// plans: the recovery verify stage checks a spliced plan against the storage
// strategy it runs under, so a plan that parks more fluids in channel
// segments than the hybrid cache has slots fails verification.
func TestRecoverVerifyChecksStrategy(t *testing.T) {
	b := assay.MustGet("CPA")
	opts := Options{
		Devices:   b.Devices,
		Transport: b.Transport,
		GridRows:  b.GridRows,
		GridCols:  b.GridCols,
		ModelIO:   b.ModelIO,
		Engine:    Heuristic,
		Storage:   storage.Config{Policy: storage.Hybrid, CacheSlots: 3},
		Verify:    true,
	}
	prior, err := Synthesize(b.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	fault := sim.Fault{Kind: sim.FaultDevice, Time: prior.Schedule.Makespan / 2, Device: 0}
	ctx := context.Background()
	rec, err := RecoverContext(ctx, opts, prior, fault)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Verified {
		t.Fatal("recovered hybrid plan not verified")
	}

	// The recovered plan caches two fluids in channel segments at once, one
	// more than a single-slot cache holds.
	tight := storage.Config{Policy: storage.Hybrid, CacheSlots: 1}
	if _, err := verify.CheckAllStrategy(rec.Schedule, rec.Architecture, storage.New(tight)); err == nil {
		t.Fatal("fixture no longer exceeds a one-slot cache")
	}
	wantStrategyViolation := func(err error) {
		t.Helper()
		var verr *verify.Error
		if !errors.As(err, &verr) {
			t.Fatalf("got %v, want a *verify.Error", err)
		}
		for _, v := range verr.Violations {
			if v.Invariant == verify.InvStorageStrategy {
				return
			}
		}
		t.Errorf("no %s violation in %v", verify.InvStorageStrategy, verr)
	}
	_, err = verify.CheckRecovery(prior.Schedule, prior.Architecture,
		rec.Schedule, rec.Architecture, fault, storage.New(tight))
	wantStrategyViolation(err)

	// The pipeline's verify stage checks the strategy the result records.
	rec.Storage = tight
	st := &stageState{opts: opts, res: rec, rec: &recoverState{prior: prior, fault: fault}}
	wantStrategyViolation(runVerifyStage(ctx, st))
	if rec.Verified {
		t.Error("result still marked verified after a strategy violation")
	}
}
