package flowsyn

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"flowsyn/internal/milp"
)

// The property-based cross-engine harness: a seeded (n, width, seed) grid of
// random assays is synthesized by every engine under both objectives — and
// under all three storage strategies (distributed channels, dedicated unit,
// single-slot hybrid cache with alternating eviction) — on the concurrent
// batch runner with verification forced on, asserting that
//
//   - every synthesis succeeds and passes the independent invariant checker
//     (including the simulator replay cross-check at every change point),
//   - analytic lower bounds (critical path, total work / devices) hold for
//     every engine's makespan, and
//   - whenever the exact ILP proves a pure-makespan optimum, that optimum
//     lower-bounds every heuristic makespan for the same assay.

// propertyCase identifies one synthesis of the sweep.
type propertyCase struct {
	n, width int
	seed     int64
	engine   Engine
	obj      Objective
	storage  StoragePolicy
}

func (c propertyCase) jobName() string {
	return fmt.Sprintf("n%d-w%d-s%d-e%d-o%d-st%s", c.n, c.width, c.seed, c.engine, c.obj, c.storage)
}

func (c propertyCase) assayKey() string {
	return fmt.Sprintf("n%d-w%d-s%d", c.n, c.width, c.seed)
}

// propertySweep builds the job list: every assay of the (n, width, seed)
// grid under every engine × objective combination. The exact ILP runs with a
// short time limit — on larger assays it returns its warm-start incumbent at
// the limit, which must verify just like a proven optimum.
func propertySweep(short bool) ([]Job, []propertyCase) {
	ns := []int{5, 8, 11, 14, 17}
	widths := []int{2, 3}
	seeds := []int64{1, 2, 3, 4, 5}
	engines := []Engine{HeuristicEngine, AutoEngine, ILPEngine}
	if short {
		// Keep -short fast on one core: fewer assays, no exact-ILP arms.
		seeds = seeds[:2]
		engines = []Engine{HeuristicEngine}
	}
	// The storage-strategy axis: distributed rides every engine × objective
	// arm above; the serialized strategies (dedicated unit, hybrid cache) run
	// both engines under the storage-aware objective. The hybrid arm pins the
	// cache to a single slot with a seed-alternated eviction policy so the
	// eviction path is genuinely exercised, not just configured.
	stratEngines := []Engine{HeuristicEngine, ILPEngine}
	if short {
		stratEngines = []Engine{HeuristicEngine}
	}
	var jobs []Job
	var cases []propertyCase
	for _, n := range ns {
		for _, w := range widths {
			for _, seed := range seeds {
				a := RandomAssay(n, w, seed)
				for _, engine := range engines {
					for _, obj := range []Objective{MinimizeTimeAndStorage, MinimizeTimeOnly} {
						c := propertyCase{n: n, width: w, seed: seed, engine: engine, obj: obj, storage: DistributedStorage}
						cases = append(cases, c)
						jobs = append(jobs, Job{
							Name:  c.jobName(),
							Assay: a,
							Options: Options{
								Devices:      3,
								Transport:    10,
								GridRows:     6,
								GridCols:     6,
								Engine:       engine,
								Objective:    obj,
								ILPTimeLimit: 300 * time.Millisecond,
							},
						})
					}
				}
				for _, engine := range stratEngines {
					for _, pol := range []StoragePolicy{DedicatedStorage, HybridStorage} {
						c := propertyCase{n: n, width: w, seed: seed, engine: engine, obj: MinimizeTimeAndStorage, storage: pol}
						cases = append(cases, c)
						opts := Options{
							Devices:      3,
							Transport:    10,
							GridRows:     6,
							GridCols:     6,
							Engine:       engine,
							Objective:    MinimizeTimeAndStorage,
							ILPTimeLimit: 300 * time.Millisecond,
							Storage:      pol,
						}
						if pol == HybridStorage {
							opts.CacheSlots = 1
							if seed%2 == 0 {
								opts.Eviction = "earliest-next-fetch"
							} else {
								opts.Eviction = "lru"
							}
						}
						jobs = append(jobs, Job{Name: c.jobName(), Assay: a, Options: opts})
					}
				}
			}
		}
	}
	return jobs, cases
}

func TestPropertyCrossEngineVerification(t *testing.T) {
	jobs, cases := propertySweep(testing.Short())
	assays := map[string]bool{}
	for _, c := range cases {
		assays[c.assayKey()] = true
	}
	if !testing.Short() && len(assays) < 50 {
		t.Fatalf("sweep covers %d assays, want >= 50", len(assays))
	}

	results, err := SynthesizeBatch(context.Background(), jobs, BatchOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}

	makespans := map[propertyCase]int{}
	ilpTimeOnlyOptimal := map[string]int{} // assay key -> proven optimal makespan
	infeasible := 0
	for i, jr := range results {
		c := cases[i]
		if jr.Err != nil {
			// A serialized strategy can be legitimately unroutable on the
			// tiny 6x6 grid (the unit's fixed port windows leave no
			// conflict-free channel) — but a verification failure is a bug
			// under every strategy.
			var verr *VerifyError
			if c.storage != DistributedStorage && !errors.As(jr.Err, &verr) {
				infeasible++
				continue
			}
			t.Errorf("%s: synthesis failed: %v", jr.Job.Name, jr.Err)
			continue
		}
		res := jr.Result
		if !res.Verified() {
			t.Errorf("%s: verify stage did not run despite BatchOptions.Verify", jr.Job.Name)
		}
		// Re-verify through the public API: the on-demand checker must agree
		// with the pipeline stage.
		if err := res.Verify(); err != nil {
			t.Errorf("%s: re-verification failed: %v", jr.Job.Name, err)
		}
		makespans[c] = res.Makespan()

		// Analytic lower bounds that hold for every valid schedule: the
		// longest dependency chain (transport-free: a chain can stay on one
		// device) and the total work spread over all devices.
		g := jr.Job.Assay.g
		cp, err := g.CriticalPathLength(0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan() < cp {
			t.Errorf("%s: makespan %d beats the critical-path bound %d", jr.Job.Name, res.Makespan(), cp)
		}
		devices := jr.Job.Options.Devices
		if lb := (g.TotalWork() + devices - 1) / devices; res.Makespan() < lb {
			t.Errorf("%s: makespan %d beats the work bound %d", jr.Job.Name, res.Makespan(), lb)
		}

		if c.engine == ILPEngine && c.obj == MinimizeTimeOnly {
			if info := res.inner.SchedInfo; info != nil && info.Status == milp.StatusOptimal {
				ilpTimeOnlyOptimal[c.assayKey()] = res.Makespan()
			}
		}
	}

	// A proven pure-makespan optimum lower-bounds every other engine's
	// makespan on the same assay, under either objective.
	checked := 0
	for c, ms := range makespans {
		opt, ok := ilpTimeOnlyOptimal[c.assayKey()]
		if !ok {
			continue
		}
		checked++
		if ms < opt {
			t.Errorf("%s: makespan %d beats the proven optimum %d", c.jobName(), ms, opt)
		}
	}
	if !testing.Short() {
		// The strategy arms must not silently degenerate into a sweep of
		// infeasible cells: the bulk of the serialized syntheses has to
		// succeed and verify for the strategy-aware invariants to be
		// meaningfully exercised.
		stratVerified := 0
		for c := range makespans {
			if c.storage != DistributedStorage {
				stratVerified++
			}
		}
		if stratVerified < 2*infeasible {
			t.Errorf("only %d serialized-strategy syntheses verified vs %d infeasible — the strategy arms degenerated",
				stratVerified, infeasible)
		}
		t.Logf("verified %d syntheses over %d assays (%d serialized-strategy, %d infeasible); %d cross-checked against proven ILP optima",
			len(makespans), len(assays), stratVerified, infeasible, checked)
	}
}

// TestPropertyVerifyCatchesSabotage guards the harness itself: a result whose
// schedule is corrupted after synthesis must fail re-verification — proving
// the property sweep above would actually catch a wrong engine.
func TestPropertyVerifyCatchesSabotage(t *testing.T) {
	res, err := Synthesize(RandomAssay(8, 2, 99), Options{
		Devices: 3, Transport: 10, GridRows: 6, GridCols: 6,
		Engine: HeuristicEngine,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	res.inner.Schedule.Assignments[0].Start -= 1000
	res.inner.Schedule.Assignments[0].End -= 1000
	err = res.Verify()
	if err == nil {
		t.Fatal("corrupted result passed verification")
	}
	verr, ok := err.(*VerifyError)
	if !ok {
		t.Fatalf("got %T (%v), want *VerifyError", err, err)
	}
	if len(verr.Violations) == 0 {
		t.Fatal("VerifyError carries no violations")
	}
}

// TestVerifyLongHorizonLatency synthesizes, with verification on, three
// 10^8-second operations on one device, so one product waits 10^8 s in a
// channel. Verification work grows with the number of task windows, not with
// the horizon, so the job must finish within seconds; replaying every second
// of the horizon would pin a worker for minutes.
func TestVerifyLongHorizonLatency(t *testing.T) {
	const opSeconds = 100_000_000
	a := NewAssay("long-horizon")
	o1, _ := a.AddOperation("o1", Mix, opSeconds, 2)
	o2, _ := a.AddOperation("o2", Mix, opSeconds, 2)
	o3, _ := a.AddOperation("o3", Mix, opSeconds, 0)
	for _, parent := range []Op{o1, o2} {
		if err := a.AddDependency(parent, o3); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		res, err := Synthesize(a, Options{Devices: 1, Verify: true})
		if err == nil && (res.StoreCount() != 1 || !res.Verified()) {
			err = fmt.Errorf("want one verified stored fluid, got %d stored, verified %v", res.StoreCount(), res.Verified())
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("synthesis with verification still running after 5s")
	}
}
