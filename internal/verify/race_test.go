package verify_test

import (
	"sync"
	"testing"

	"flowsyn/internal/assay"
	"flowsyn/internal/core"
	"flowsyn/internal/sim"
	"flowsyn/internal/storage"
	"flowsyn/internal/verify"
)

// TestConcurrentChecksShareResult runs the checker, the simulator
// cross-check and the simulator itself from eight goroutines on one shared
// result. Their working storage lives on per-call values, never on the
// shared schedule, architecture or simulator, so the race detector must see
// nothing (go test -race -count=10) and every goroutine must get the same
// verdict.
func TestConcurrentChecksShareResult(t *testing.T) {
	b := assay.MustGet("RA30")
	res, err := core.Synthesize(b.Graph, core.Options{
		Devices:   b.Devices,
		Transport: b.Transport,
		GridRows:  b.GridRows,
		GridCols:  b.GridCols,
		Engine:    core.Heuristic,
		Storage:   storage.Config{Policy: storage.Hybrid},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, a := res.Schedule, res.Architecture
	model := storage.New(res.Storage)
	simulator := sim.New(a, s)
	times := simulator.InterestingTimes()
	var wg sync.WaitGroup
	errs := make(chan error, 3*8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := verify.CheckAllStrategy(s, a, model); err != nil {
				errs <- err
			}
			if err := verify.CheckSim(s, a); err != nil {
				errs <- err
			}
			for _, tm := range times {
				simulator.At(tm)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
