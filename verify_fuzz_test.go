package flowsyn

import (
	"context"
	"errors"
	"testing"
	"time"
)

// FuzzSynthesizeVerify drives the whole pipeline with fuzzer-chosen assay
// shapes and synthesis options — including the storage strategy (distributed
// channels, dedicated unit, hybrid cache with fuzzed slot count and eviction
// policy), verification forced on. Synthesis may legitimately fail (e.g. the
// connection grid is too small for the traffic the schedule generates, or a
// unit port window is unroutable) — but if it claims success, the independent
// invariant checker must accept the result; a *VerifyError is always a bug.
//
// Run it as a smoke job with
//
//	go test -fuzz=FuzzSynthesizeVerify -fuzztime=30s -run='^$' .
func FuzzSynthesizeVerify(f *testing.F) {
	f.Add(int64(1), 8, 2, 3, 6, 10, false, 0, 0)
	f.Add(int64(42), 20, 3, 4, 5, 7, true, 0, 0)
	f.Add(int64(7), 12, 4, 2, 4, 12, false, 0, 0)
	f.Add(int64(-3), 1, 1, 1, 4, 1, true, 0, 0)
	// Dedicated-unit and hybrid-cache seeds: the last exercises the eviction
	// path hard — a wide 18-op assay on 2 devices with a single cache slot
	// forces repeated demotions from the channel cache into the unit.
	f.Add(int64(9), 14, 3, 3, 6, 8, false, 1, 0)
	f.Add(int64(11), 18, 4, 2, 6, 9, false, 2, 0)
	f.Add(int64(13), 18, 4, 2, 6, 9, false, 2, 1)
	f.Fuzz(func(t *testing.T, seed int64, n, width, devices, grid, transport int, timeOnly bool, storage, slotsEvict int) {
		// Clamp the fuzzed shape into ranges where a single synthesis stays
		// fast on one core; the heuristic engine keeps each execution in the
		// low milliseconds.
		n = 1 + mod(n, 24)
		width = 1 + mod(width, 4)
		devices = 1 + mod(devices, 4)
		grid = 4 + mod(grid, 4)
		transport = 1 + mod(transport, 15)

		opts := Options{
			Devices:   devices,
			Transport: transport,
			GridRows:  grid,
			GridCols:  grid,
			Engine:    HeuristicEngine,
			Verify:    true,
			Storage:   StoragePolicy(mod(storage, 3)),
		}
		if opts.Storage == HybridStorage {
			opts.CacheSlots = 1 + mod(slotsEvict, 3)
			if mod(slotsEvict, 2) == 0 {
				opts.Eviction = "lru"
			} else {
				opts.Eviction = "earliest-next-fetch"
			}
		}
		if opts.Storage != DistributedStorage {
			// The storage objective is the one the serialized strategies
			// model; keep their arms on it.
			timeOnly = false
		}
		if timeOnly {
			opts.Objective = MinimizeTimeOnly
		}
		res, err := Synthesize(RandomAssay(n, width, seed), opts)
		if err != nil {
			var verr *VerifyError
			if errors.As(err, &verr) {
				t.Fatalf("n=%d width=%d devices=%d grid=%d transport=%d timeOnly=%v storage=%s slots=%d: synthesized result failed verification: %v",
					n, width, devices, grid, transport, timeOnly, opts.Storage, opts.CacheSlots, verr)
			}
			// Any other failure (routing congestion, infeasible options) is a
			// legitimate rejection, not a correctness bug.
			t.Skip()
		}
		if !res.Verified() {
			t.Fatal("verify stage did not run despite Options.Verify")
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("re-verification failed: %v", err)
		}
	})
}

// FuzzRecoverVerify drives the fault-injection splice with fuzzer-chosen
// assay shapes, fault kinds and injection instants, storage strategies
// (distributed channels, dedicated unit, hybrid cache with fuzzed slot count
// and eviction policy) and engines (heuristic, or Auto racing the exact ILP
// against the list scheduler), verification forced on. A recovery may
// legitimately be rejected (a device fault with one device, an unroutable
// mask) — but if it claims success, the splice-point checker
// (verify.CheckRecovery, replaying the faulted execution end to end under the
// strategy's invariants) must accept it; a *VerifyError is always a bug.
//
// Run it as a smoke job with
//
//	go test -fuzz=FuzzRecoverVerify -fuzztime=30s -run='^$' .
func FuzzRecoverVerify(f *testing.F) {
	f.Add(int64(1), 10, 2, 3, 6, 0, 50, 0, 0, false)  // device fault mid-execution
	f.Add(int64(42), 16, 3, 4, 5, 1, 10, 0, 0, false) // channel fault early
	f.Add(int64(7), 8, 2, 2, 4, 2, 500, 0, 0, false)  // storage fault near/after the end
	f.Add(int64(-3), 5, 1, 3, 4, 0, 0, 0, 0, false)   // fault at t=0: full re-synthesis
	// Strategy and engine seeds: a dedicated unit and single-slot hybrid
	// caches under both eviction policies on the heuristic engine, then the
	// Auto engine under each strategy.
	f.Add(int64(9), 14, 3, 3, 6, 0, 60, 1, 0, false)
	f.Add(int64(11), 16, 4, 2, 6, 1, 40, 2, 0, false)
	f.Add(int64(13), 16, 4, 2, 6, 2, 90, 2, 1, false)
	f.Add(int64(5), 8, 2, 3, 6, 0, 70, 0, 0, true)
	f.Add(int64(6), 8, 2, 3, 6, 1, 30, 1, 0, true)
	f.Add(int64(8), 8, 3, 2, 6, 2, 50, 2, 1, true)
	f.Fuzz(func(t *testing.T, seed int64, n, width, devices, grid, kind, at, storage, slotsEvict int, auto bool) {
		n = 1 + mod(n, 20)
		width = 1 + mod(width, 4)
		devices = 1 + mod(devices, 4)
		grid = 4 + mod(grid, 3)

		opts := Options{
			Devices: devices, GridRows: grid, GridCols: grid,
			Engine: HeuristicEngine, Verify: true,
			Storage: StoragePolicy(mod(storage, 3)),
		}
		if opts.Storage == HybridStorage {
			opts.CacheSlots = 1 + mod(slotsEvict, 3)
			if mod(slotsEvict, 2) == 0 {
				opts.Eviction = "lru"
			} else {
				opts.Eviction = "earliest-next-fetch"
			}
		}
		if auto {
			// Bound the exact arm so one execution stays fast on one core.
			opts.Engine = AutoEngine
			opts.ILPTimeLimit = 200 * time.Millisecond
		}
		s, _ := New(Config{Workers: 1, QueueDepth: 2, CacheEntries: -1})
		defer s.Close()
		prior, err := s.Submit(context.Background(), Job{
			Assay:   RandomAssay(n, width, seed),
			Options: opts,
		})
		if err != nil {
			t.Skip()
		}
		res, err := prior.Wait(context.Background())
		if err != nil {
			t.Skip() // congestion on a small grid: legitimate rejection
		}

		fault := Fault{Kind: FaultKind(mod(kind, 3)), Time: mod(at, res.Makespan()+10)}
		switch fault.Kind {
		case DeviceFault:
			fault.Device = mod(at, devices)
		default:
			edges := res.inner.Architecture.UsedEdges
			if len(edges) == 0 {
				t.Skip()
			}
			fault.Channel = int(edges[mod(at, len(edges))])
		}
		tk, err := s.Recover(context.Background(), prior, fault)
		if err != nil {
			t.Skip() // e.g. device fault with every device in use
		}
		rec, err := tk.Wait(context.Background())
		if err != nil {
			var verr *VerifyError
			if errors.As(err, &verr) {
				t.Fatalf("n=%d width=%d devices=%d grid=%d storage=%s slots=%d auto=%v fault=%v: spliced plan failed the recovery checker: %v",
					n, width, devices, grid, opts.Storage, opts.CacheSlots, auto, fault, verr)
			}
			t.Skip() // unroutable mask: legitimate rejection
		}
		if !rec.Verified() {
			t.Fatal("recovery verify stage did not run despite Options.Verify")
		}
	})
}

// mod is a non-negative modulus for fuzzer-chosen ints.
func mod(x, m int) int {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}
