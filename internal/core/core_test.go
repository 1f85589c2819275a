package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"flowsyn/internal/assay"
	"flowsyn/internal/milp"
	"flowsyn/internal/sched"
	"flowsyn/internal/verify"
)

func TestSynthesizePCREndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("exact ILP on PCR is slow in -short mode")
	}
	b := assay.MustGet("PCR")
	res, err := Synthesize(b.Graph, Options{
		Devices:      b.Devices,
		Transport:    b.Transport,
		GridRows:     b.GridRows,
		GridCols:     b.GridCols,
		ModelIO:      b.ModelIO,
		ILPTimeLimit: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Error(err)
	}
	if err := verify.Check(res.Schedule, res.Architecture).Err(); err != nil {
		t.Error(err)
	}
	if res.Physical.Compressed.Area() <= 0 {
		t.Error("empty physical design")
	}
	// PCR is small enough for the Auto engine to use the ILP.
	if res.SchedInfo == nil {
		t.Error("expected ILP diagnostics for PCR under Auto engine")
	}
	if !strings.Contains(res.Summary(), "tE=") {
		t.Errorf("Summary = %q", res.Summary())
	}
}

func TestSynthesizeAllBenchmarksHeuristic(t *testing.T) {
	for _, name := range assay.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b := assay.MustGet(name)
			res, err := Synthesize(b.Graph, Options{
				Devices:   b.Devices,
				Transport: b.Transport,
				GridRows:  b.GridRows,
				GridCols:  b.GridCols,
				ModelIO:   b.ModelIO,
				Engine:    Heuristic,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.SchedInfo != nil {
				t.Error("heuristic engine should not report ILP info")
			}
			if err := verify.Check(res.Schedule, res.Architecture).Err(); err != nil {
				t.Error(err)
			}
			// Simulator and dedicated baseline must work off the result.
			if snap := res.Simulator().At(0); snap == nil {
				t.Error("nil snapshot")
			}
			cmp, err := res.CompareDedicated()
			if err != nil {
				t.Fatal(err)
			}
			if cmp.ExecRatio > 1.0001 {
				t.Errorf("distributed slower than dedicated: %v", cmp.ExecRatio)
			}
		})
	}
}

func TestSynthesizeErrors(t *testing.T) {
	b := assay.MustGet("PCR")
	if _, err := Synthesize(b.Graph, Options{Devices: 0}); err == nil {
		t.Error("zero devices accepted")
	}
	if _, err := Synthesize(b.Graph, Options{Devices: 1, Transport: -5}); err == nil {
		t.Error("negative transport accepted")
	}
	if _, err := Synthesize(b.Graph, Options{Devices: 1, GridRows: 1, GridCols: 1}); err == nil {
		t.Error("degenerate grid accepted")
	}
}

func TestEngineString(t *testing.T) {
	for e, want := range map[Engine]string{Auto: "auto", Heuristic: "heuristic", ExactILP: "exact-ilp"} {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), want)
		}
	}
}

func TestStageTimingsRecorded(t *testing.T) {
	b := assay.MustGet("RA30")
	res, err := Synthesize(b.Graph, Options{
		Devices:   b.Devices,
		Transport: b.Transport,
		GridRows:  b.GridRows,
		GridCols:  b.GridCols,
		ModelIO:   b.ModelIO,
		Engine:    Heuristic,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{StageSchedule, StageBind, StageArch, StagePhys}
	if len(res.Stages) != len(want) {
		t.Fatalf("got %d stage timings, want %d: %+v", len(res.Stages), len(want), res.Stages)
	}
	for i, name := range want {
		if res.Stages[i].Name != name {
			t.Errorf("stage %d = %q, want %q", i, res.Stages[i].Name, name)
		}
		if res.Stages[i].Duration < 0 {
			t.Errorf("stage %q has negative duration", name)
		}
	}
	if res.SchedulingTime != res.StageDuration(StageSchedule) {
		t.Errorf("SchedulingTime %v != schedule stage duration %v",
			res.SchedulingTime, res.StageDuration(StageSchedule))
	}
	if res.Binding.Transports == 0 {
		t.Error("bind stage recorded no transports for RA30")
	}
	if res.Binding.Stored != res.Schedule.StoreCount() {
		t.Errorf("bind stage counted %d stored tasks, schedule reports %d",
			res.Binding.Stored, res.Schedule.StoreCount())
	}
}

func TestVerifyStageRunsAndRecordsTiming(t *testing.T) {
	b := assay.MustGet("RA30")
	res, err := Synthesize(b.Graph, Options{
		Devices:   b.Devices,
		Transport: b.Transport,
		GridRows:  b.GridRows,
		GridCols:  b.GridCols,
		ModelIO:   b.ModelIO,
		Engine:    Heuristic,
		Verify:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("verify stage ran but result not marked Verified")
	}
	want := []string{StageSchedule, StageBind, StageArch, StagePhys, StageVerify}
	if len(res.Stages) != len(want) || res.Stages[len(res.Stages)-1].Name != StageVerify {
		t.Errorf("stages = %+v, want trailing %q", res.Stages, StageVerify)
	}
}

func TestVerifyCatchesBindingMismatch(t *testing.T) {
	b := assay.MustGet("RA30")
	res, err := Synthesize(b.Graph, Options{
		Devices:   b.Devices,
		Transport: b.Transport,
		GridRows:  b.GridRows,
		GridCols:  b.GridCols,
		ModelIO:   b.ModelIO,
		Engine:    Heuristic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified {
		t.Error("result marked Verified without a verify run")
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	if !res.Verified {
		t.Error("Verify succeeded but result not marked Verified")
	}
	res.Binding.Stored++
	var verr *verify.Error
	if err := res.Verify(); !errors.As(err, &verr) {
		t.Fatalf("binding mismatch not caught: %v", err)
	}
}

func TestSynthesizeContextPreCancelled(t *testing.T) {
	b := assay.MustGet("RA30")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SynthesizeContext(ctx, b.Graph, Options{
		Devices:   b.Devices,
		Transport: b.Transport,
		Engine:    Heuristic,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTimeOnlyMode(t *testing.T) {
	b := assay.MustGet("RA30")
	res, err := Synthesize(b.Graph, Options{
		Devices:   b.Devices,
		Transport: b.Transport,
		GridRows:  b.GridRows,
		GridCols:  b.GridCols,
		ModelIO:   b.ModelIO,
		Engine:    Heuristic,
		Mode:      sched.TimeOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Check(res.Schedule, res.Architecture).Err(); err != nil {
		t.Error(err)
	}
}

// TestSummaryIgnoresSeparationWall: two results that differ only in the
// solver's wall-clock separation time render the same Summary; only
// SolverSummary reports the time.
func TestSummaryIgnoresSeparationWall(t *testing.T) {
	b := assay.MustGet("PCR")
	res, err := Synthesize(b.Graph, Options{
		Devices:   b.Devices,
		Transport: b.Transport,
		GridRows:  b.GridRows,
		GridCols:  b.GridCols,
		Engine:    Heuristic,
	})
	if err != nil {
		t.Fatal(err)
	}
	withWall := func(d time.Duration) *Result {
		r := *res
		info := sched.ILPInfo{Status: milp.StatusOptimal}
		info.Solver.SeparationWall = d
		info.Solver.Cuts.Gomory = 1
		r.SchedInfo = &info
		return &r
	}
	a, c := withWall(419*time.Microsecond), withWall(388*time.Microsecond)
	if a.Summary() != c.Summary() {
		t.Errorf("Summary depends on the separation wall time:\n%s\n%s", a.Summary(), c.Summary())
	}
	if !strings.Contains(a.SolverSummary(), "sep 419µs") {
		t.Errorf("SolverSummary %q lacks the separation wall time", a.SolverSummary())
	}
}
