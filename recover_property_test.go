package flowsyn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The fault-recovery property harness: every seeded assay of the property
// sweep's (n, width, seed) grid is synthesized under each storage strategy
// (distributed channels, dedicated unit, single-slot hybrid cache with
// alternating eviction) on the heuristic engine and under distributed
// storage on the Auto engine, then hit with one pseudo-random single fault at
// a pseudo-random mid-execution instant, and recovered online. Verification
// is forced on, so each recovery is replayed end to end by the splice checker
// (verify.CheckRecovery): full invariant suite on the spliced plan, including
// the strategy invariants, zero re-executed prefix work, suffix floored at
// the fault, fault masks honored, devices unmoved.

// recoveryCase is one arm of the fault-injection sweep: an assay under one
// engine and storage strategy.
type recoveryCase struct {
	n, width int
	seed     int64
	engine   Engine
	storage  StoragePolicy
}

func (c recoveryCase) name() string {
	return fmt.Sprintf("n%d-w%d-s%d-e%d-st%s", c.n, c.width, c.seed, c.engine, c.storage)
}

// options returns the synthesis options of the arm. The hybrid arm pins the
// cache to a single slot with a seed-alternated eviction policy so recovery
// genuinely exercises eviction, as the synthesis harness does.
func (c recoveryCase) options() Options {
	opts := Options{
		Devices: 3, Transport: 10, GridRows: 6, GridCols: 6,
		Engine: c.engine, Storage: c.storage, Verify: true,
		ILPTimeLimit: 300 * time.Millisecond,
	}
	if c.storage == HybridStorage {
		opts.CacheSlots = 1
		if c.seed%2 == 0 {
			opts.Eviction = "earliest-next-fetch"
		} else {
			opts.Eviction = "lru"
		}
	}
	return opts
}

// recoverySweep returns the arms of the property sweep: 50 assays (20 in
// -short mode, matching propertySweep's reduction), each under every storage
// strategy on the heuristic engine and — outside -short mode — under
// distributed storage on the Auto engine, which races the exact ILP against
// the list scheduler.
func recoverySweep(short bool) []recoveryCase {
	ns := []int{5, 8, 11, 14, 17}
	widths := []int{2, 3}
	seeds := []int64{1, 2, 3, 4, 5}
	arms := []recoveryCase{
		{engine: HeuristicEngine, storage: DistributedStorage},
		{engine: HeuristicEngine, storage: DedicatedStorage},
		{engine: HeuristicEngine, storage: HybridStorage},
		{engine: AutoEngine, storage: DistributedStorage},
	}
	if short {
		seeds = seeds[:2]
		arms = arms[:3]
	}
	var cases []recoveryCase
	for _, n := range ns {
		for _, w := range widths {
			for _, seed := range seeds {
				for _, c := range arms {
					c.n, c.width, c.seed = n, w, seed
					cases = append(cases, c)
				}
			}
		}
	}
	return cases
}

// randomFault derives a deterministic pseudo-random single fault for a
// synthesized result: a kind drawn among the applicable ones and an instant
// inside the execution.
func randomFault(rng *rand.Rand, res *Result) Fault {
	devices := res.inner.Schedule.Devices
	edges := res.inner.Architecture.UsedEdges
	var kinds []FaultKind
	if devices > 1 {
		kinds = append(kinds, DeviceFault)
	}
	if len(edges) > 0 {
		kinds = append(kinds, ChannelFault, StorageFault)
	}
	f := Fault{Kind: kinds[rng.Intn(len(kinds))], Time: 1 + rng.Intn(res.Makespan())}
	switch f.Kind {
	case DeviceFault:
		f.Device = rng.Intn(devices)
	default:
		f.Channel = int(edges[rng.Intn(len(edges))])
	}
	return f
}

func TestPropertyFaultRecovery(t *testing.T) {
	cases := recoverySweep(testing.Short())
	assays := map[string]bool{}
	for _, c := range cases {
		assays[fmt.Sprintf("n%d-w%d-s%d", c.n, c.width, c.seed)] = true
	}
	if !testing.Short() && len(assays) < 50 {
		t.Fatalf("sweep covers %d assays, want >= 50", len(assays))
	}
	s, _ := New(Config{QueueDepth: 2 * len(cases)})
	defer s.Close()
	ctx := context.Background()

	// A serialized strategy can be legitimately unroutable on the tiny 6x6
	// grid, before or after the fault (the unit's fixed port windows leave
	// no conflict-free channel) — but a verification failure is a bug under
	// every strategy, and distributed storage must always recover.
	infeasible := 0
	legit := func(c recoveryCase, err error) bool {
		var verr *VerifyError
		if c.storage == DistributedStorage || errors.As(err, &verr) {
			return false
		}
		infeasible++
		return true
	}

	// Synthesize every arm (verification on), then inject one seeded random
	// fault each and recover, all through the session API.
	priors := make([]*Ticket, len(cases))
	for i, c := range cases {
		tk, err := s.Submit(ctx, Job{
			Name:    c.name(),
			Assay:   RandomAssay(c.n, c.width, c.seed),
			Options: c.options(),
		})
		if err != nil {
			t.Fatal(err)
		}
		priors[i] = tk
	}
	recoveries := make([]*Ticket, len(cases))
	faults := make([]Fault, len(cases))
	for i, tk := range priors {
		res, err := tk.Wait(ctx)
		if err != nil {
			if !legit(cases[i], err) {
				t.Errorf("%s: synthesis failed: %v", tk.Name(), err)
			}
			continue
		}
		rng := rand.New(rand.NewSource(cases[i].seed*1_000_003 + int64(cases[i].n)*31 + int64(cases[i].width)))
		faults[i] = randomFault(rng, res)
		rt, err := s.Recover(ctx, tk, faults[i])
		if err != nil {
			t.Fatalf("%s: recover(%s) rejected: %v", tk.Name(), faults[i], err)
		}
		recoveries[i] = rt
	}

	stratVerified := 0
	for i, rt := range recoveries {
		if rt == nil {
			continue
		}
		rec, err := rt.Wait(ctx)
		if err != nil {
			if !legit(cases[i], err) {
				t.Errorf("%s: recovery from %s failed: %v", rt.Name(), faults[i], err)
			}
			continue
		}
		if !rec.Verified() {
			t.Errorf("%s: recovery not verified despite Verify option", rt.Name())
		}
		if cases[i].storage != DistributedStorage {
			stratVerified++
		}
		stats := rec.Recovery()
		if stats == nil {
			t.Errorf("%s: no recovery stats", rt.Name())
			continue
		}
		if stats.Fault != faults[i] {
			t.Errorf("%s: recovery reports fault %v, injected %v", rt.Name(), stats.Fault, faults[i])
		}
		// Zero re-executed prefix work, asserted directly on top of the
		// splice checker: every operation started before the fault keeps its
		// exact assignment.
		prior, _ := priors[i].Result()
		preserved := 0
		for _, a := range prior.inner.Schedule.Assignments {
			if a.Start < faults[i].Time {
				preserved++
				if rec.inner.Schedule.Assignments[a.Op] != a {
					t.Errorf("%s: executed op %d re-planned under %s", rt.Name(), a.Op, faults[i])
				}
			}
		}
		if stats.PreservedOps != preserved {
			t.Errorf("%s: PreservedOps = %d, want %d", rt.Name(), stats.PreservedOps, preserved)
		}
		if stats.NewMakespan != rec.Makespan() || stats.MakespanDelta != stats.NewMakespan-stats.OldMakespan {
			t.Errorf("%s: inconsistent recovery metrics %+v", rt.Name(), stats)
		}
	}
	// The strategy arms must not silently degenerate into a sweep of
	// infeasible cells: the bulk of the serialized recoveries has to succeed
	// and verify for the strategy invariants to be meaningfully exercised.
	if stratVerified < 2*infeasible {
		t.Errorf("only %d serialized-strategy recoveries verified vs %d infeasible — the strategy arms degenerated",
			stratVerified, infeasible)
	}
	t.Logf("%d arms over %d assays: %d serialized-strategy recoveries verified, %d infeasible",
		len(cases), len(assays), stratVerified, infeasible)
}

// TestSolverRecoverPublicAPI exercises the session recovery surface end to
// end: ticket lifecycle, progress stream, validation errors.
func TestSolverRecoverPublicAPI(t *testing.T) {
	s, _ := New(Config{Workers: 2})
	defer s.Close()
	assay, opts, err := Benchmark("CPA")
	if err != nil {
		t.Fatal(err)
	}
	opts.Engine = HeuristicEngine
	opts.Verify = true
	prior, err := s.Submit(context.Background(), Job{Assay: assay, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	res := waitOK(t, prior)

	fault := Fault{Kind: DeviceFault, Time: res.Makespan() / 2, Device: 1}
	tk, err := s.Recover(context.Background(), prior, fault)
	if err != nil {
		t.Fatal(err)
	}
	rec := waitOK(t, tk)
	stats := rec.Recovery()
	if stats == nil || stats.Fault != fault {
		t.Fatalf("recovery stats = %+v, want fault %v", stats, fault)
	}
	if res.Recovery() != nil {
		t.Error("ordinary synthesis reports recovery stats")
	}
	if js := rec.JobStats(); js == nil || js.CacheHit || js.ScheduleCacheHit {
		t.Errorf("recovery job must bypass the caches, stats %+v", js)
	}

	if _, err := s.Recover(context.Background(), nil, fault); err == nil {
		t.Error("nil prior accepted")
	}
	if _, err := s.Recover(context.Background(), prior, Fault{Kind: FaultKind(9)}); err == nil {
		t.Error("unknown fault kind accepted")
	}
	if _, err := s.Recover(context.Background(), prior, Fault{Time: -5}); err == nil {
		t.Error("negative fault time accepted")
	}
}

func TestFaultStrings(t *testing.T) {
	for _, c := range []struct {
		fault Fault
		want  string
	}{
		{Fault{Kind: DeviceFault, Device: 2, Time: 130}, "device 2 @ t=130"},
		{Fault{Kind: ChannelFault, Channel: 5, Time: 40}, "channel 5 @ t=40"},
		{Fault{Kind: StorageFault, Channel: 5, Time: 40}, "storage 5 @ t=40"},
	} {
		if got := c.fault.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.fault, got, c.want)
		}
	}
	for k, want := range map[FaultKind]string{
		DeviceFault: "device", ChannelFault: "channel", StorageFault: "storage",
	} {
		if got := k.String(); got != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	// The public kinds round-trip through the internal fault model.
	for _, k := range []FaultKind{DeviceFault, ChannelFault, StorageFault} {
		f := Fault{Kind: k, Time: 9, Device: 1, Channel: 4}
		if back := faultFrom(f.internal()); back != f {
			t.Errorf("fault %+v round-tripped to %+v", f, back)
		}
	}
}

func waitOK(t *testing.T, tk *Ticket) *Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := tk.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s: %v", tk.Name(), err)
	}
	return res
}

// TestExploreGridsFaultSamples exercises the k-fault-tolerance axis of a grid
// sweep: every sampled fault on every feasible grid point must recover.
func TestExploreGridsFaultSamples(t *testing.T) {
	assay, opts, err := Benchmark("CPA")
	if err != nil {
		t.Fatal(err)
	}
	opts.Engine = HeuristicEngine
	out, err := ExploreGrids(context.Background(), assay, opts, GridRange{
		MinSize: 4, MaxSize: 5, FaultSamples: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range out {
		if gr.Err != nil {
			t.Logf("grid %dx%d infeasible: %v", gr.Rows, gr.Cols, gr.Err)
			continue
		}
		if gr.FaultsInjected != 3 {
			t.Errorf("grid %dx%d: injected %d faults, want 3", gr.Rows, gr.Cols, gr.FaultsInjected)
		}
		if gr.FaultRecoveries != gr.FaultsInjected {
			t.Errorf("grid %dx%d: recovered %d of %d faults", gr.Rows, gr.Cols, gr.FaultRecoveries, gr.FaultsInjected)
		}
		if gr.FaultRecoveries > 0 && gr.WorstRecoveryMakespan <= 0 {
			t.Errorf("grid %dx%d: recoveries counted but no worst makespan recorded", gr.Rows, gr.Cols)
		}
	}
	if _, err := ExploreGrids(context.Background(), assay, opts, GridRange{MinSize: 4, MaxSize: 5, FaultSamples: -1}); err == nil {
		t.Error("negative FaultSamples accepted")
	}
}
