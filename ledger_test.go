package flowsyn

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"flowsyn/internal/assay"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/ledger.golden from the current pipeline")

// ledgerCase is one assay of the outcome ledger, synthesized under every
// storage strategy and objective.
type ledgerCase struct {
	label string
	assay *Assay
	opts  Options
}

// ledgerCases lists the ledger's inputs: the six paper assays under the
// list scheduler, and PCR, IVD and 24 seeded 5–7-op random assays on 2–3
// devices under the Auto engine, which races the exact ILP on them.
func ledgerCases(t *testing.T) []ledgerCase {
	var cases []ledgerCase
	for _, name := range BenchmarkNames() {
		a, opts, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		opts.Engine = HeuristicEngine
		cases = append(cases, ledgerCase{"heuristic " + name, a, opts})
	}
	for _, name := range []string{"PCR", "IVD"} {
		a, opts, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, ledgerCase{"auto " + name, a, opts})
	}
	for seed := int64(1); seed <= 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops, devices, width := 5+r.Intn(3), 2+r.Intn(2), 2+r.Intn(2)
		a := &Assay{g: assay.Random(ops, width, r.Int63())}
		label := fmt.Sprintf("auto random-%d(%dops/%ddev)", seed, ops, devices)
		cases = append(cases, ledgerCase{label, a, Options{Devices: devices, ModelIO: true}})
	}
	return cases
}

// ledgerRow renders one synthesis outcome: the headline metrics, the exact
// solver's work counters when it ran, and a hash of the schedule and the
// layout. A failed run records its error text instead.
func ledgerRow(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	s := res.inner.Schedule
	row := fmt.Sprintf("tE=%d storage=%d stores=%d segments=%d valves=%d cells=%d",
		s.Makespan, s.StorageTime(), res.StoreCount(), res.ChannelSegments(), res.Valves(), res.UnitCells())
	if info := res.inner.SchedInfo; info != nil {
		row += fmt.Sprintf(" ilp=%s nodes=%d pivots=%d rounds=%d",
			info.Status, info.Solver.Nodes, info.Solver.SimplexIters, info.Solver.Cuts.Rounds)
	}
	h := fnv.New64a()
	h.Write([]byte(res.GanttChart()))
	h.Write([]byte(res.LayoutSVG()))
	return row + fmt.Sprintf(" chip=%016x", h.Sum64())
}

// TestOutcomeLedger pins the outcome of every ledger configuration in
// testdata/ledger.golden, so a change meant to keep outputs proves it with
// one command. It runs single-threaded because the parallel branch and bound
// may settle on a different optimal schedule. Run with -update-golden to
// record an intended change.
func TestOutcomeLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("outcome ledger synthesizes 192 chips")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	var got []string
	for _, c := range ledgerCases(t) {
		for _, policy := range []StoragePolicy{DistributedStorage, DedicatedStorage, HybridStorage} {
			for _, obj := range []Objective{MinimizeTimeAndStorage, MinimizeTimeOnly} {
				opts := c.opts
				opts.Storage, opts.Objective = policy, obj
				objName := "ts"
				if obj == MinimizeTimeOnly {
					objName = "t"
				}
				res, err := SynthesizeContext(ctx, c.assay, opts)
				got = append(got, fmt.Sprintf("%s %v/%s: %s", c.label, policy, objName, ledgerRow(res, err)))
			}
		}
	}
	path := filepath.Join("testdata", "ledger.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d rows, the pipeline produced %d", path, len(want), len(got))
	}
	changed := 0
	for i := range got {
		if got[i] != want[i] {
			changed++
			t.Errorf("row %d changed:\n- %s\n+ %s", i+1, want[i], got[i])
		}
	}
	if changed > 0 {
		t.Logf("%d of %d ledger rows changed", changed, len(got))
	}
}
