package core

import (
	"context"
	"fmt"

	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
	"flowsyn/internal/sim"
)

// Recovery summarizes an online re-synthesis: the injected fault, how much of
// the interrupted execution survived the splice, and what the recovery cost
// in makespan.
type Recovery struct {
	// Fault is the injected fault the recovery worked around.
	Fault sim.Fault
	// PreservedOps counts operations of the executed prefix carried over
	// verbatim (same device, same window) — zero re-executed work.
	PreservedOps int
	// PreservedRoutes counts the executed internal transport routes carried
	// over verbatim into the recovered architecture.
	PreservedRoutes int
	// ReroutedTransports counts the transportation routes planned fresh
	// around the fault (suffix transports plus the wholesale re-planned I/O
	// traffic).
	ReroutedTransports int
	// OldMakespan and NewMakespan are the assay completion times of the
	// faulted plan and the recovered plan; MakespanDelta is their difference
	// (>= 0 in practice: the recovery can only constrain the solution space).
	OldMakespan, NewMakespan, MakespanDelta int
}

// String renders the recovery metrics in one line.
func (r *Recovery) String() string {
	return fmt.Sprintf("recover %s: %d ops preserved, %d routes preserved, %d transports re-planned, makespan %d -> %d (%+d)",
		r.Fault, r.PreservedOps, r.PreservedRoutes, r.ReroutedTransports,
		r.OldMakespan, r.NewMakespan, r.MakespanDelta)
}

// recoverState carries the recovery context between the pipeline stages: the
// faulted result being recovered, the fault, the frozen execution prefix and
// the scheduling pin derived from it.
type recoverState struct {
	prior  *Result
	fault  sim.Fault
	prefix *sim.Prefix
	pin    *sched.Pin
}

// RecoverContext performs fault-tolerant online re-synthesis: it freezes
// everything prior's execution had completed or in flight when the fault hit
// (sim.ExecutionPrefix), pins that prefix — assignments, departure slots and
// the internal routes that fed it — and re-synthesizes only the suffix on the
// masked chip:
//
//   - sim.FaultDevice bans the failed chamber from all re-planned operations
//     (its ports stay usable, so fluids already inside still transport out);
//   - sim.FaultChannel bans the failed segment from all re-planned routing
//     and storage;
//   - sim.FaultStorage bans the degraded segment from storage candidacy only.
//
// The chip itself is immutable mid-run: device count, transport time, grid,
// placement and the I/O model are taken from prior, whatever opts says; opts
// contributes the engine choice, objective mode, time limit, physical-design
// rules and the Verify/Progress hooks. The prior schedule warm-starts the
// suffix solve (it replaces opts.Warm). The recovery runs the ordinary
// pipeline, so the Auto engine races the exact ILP against the list scheduler
// here too. With opts.Verify set, the spliced plan is replayed end to end by
// verify.CheckRecovery under the prior storage strategy, which fails the
// recovery on any re-executed prefix work, pre-fault suffix start,
// fault-mask or strategy violation.
//
// The returned result is a complete synthesis of the same assay whose
// Recovery field carries the splice metrics.
func RecoverContext(ctx context.Context, opts Options, prior *Result, fault sim.Fault) (*Result, error) {
	if prior == nil || prior.Schedule == nil || prior.Architecture == nil {
		return nil, fmt.Errorf("core: recovery needs a prior result with a schedule and an architecture")
	}
	s0, a0 := prior.Schedule, prior.Architecture
	// Pin the chip parameters to the interrupted execution.
	opts.Devices = s0.Devices
	opts.Transport = s0.Transport
	opts.GridRows, opts.GridCols = a0.Grid.Rows, a0.Grid.Cols
	opts.ModelIO = a0.Ports > 0
	// The storage strategy is part of the chip too: a dedicated unit (or its
	// absence) is physical, so the recovery keeps the strategy the prior
	// result was synthesized under.
	opts.Storage = prior.Storage
	opts.Warm = s0
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	if err := fault.Validate(s0, a0); err != nil {
		return nil, err
	}

	prefix := sim.New(a0, s0).ExecutionPrefix(fault.Time)
	pin := &sched.Pin{
		Time:          fault.Time,
		Assignments:   prefix.Assignments,
		DepartOffsets: prefix.DepartOffsets,
	}
	// Unit port grants of executed edges are frozen with the prefix: their
	// store and fetch completed before the fault, so the re-planned schedule
	// reproduces them verbatim and keeps their port time reserved.
	for e, w := range s0.UnitWindows {
		if prefix.Pinned(e.Child) {
			if pin.UnitWindows == nil {
				pin.UnitWindows = make(map[seqgraph.Edge]sched.UnitWindow)
			}
			pin.UnitWindows[e] = w
		}
	}
	if fault.Kind == sim.FaultDevice {
		pin.Forbidden = map[int]bool{fault.Device: true}
	}
	if err := pin.Validate(s0.Graph, opts.Devices); err != nil {
		return nil, err
	}

	st := &stageState{
		graph: s0.Graph,
		opts:  opts,
		res:   &Result{Storage: opts.Storage},
		rec:   &recoverState{prior: prior, fault: fault, prefix: prefix, pin: pin},
	}
	res, err := st.run(ctx)
	if err != nil {
		return nil, err
	}
	res.Recovery = &Recovery{
		Fault:           fault,
		PreservedOps:    len(prefix.Assignments),
		PreservedRoutes: len(prefix.Routes),
		// Preserved routes are re-installed verbatim in the recovered
		// architecture; everything beyond them was planned fresh.
		ReroutedTransports: len(res.Architecture.Routes) - len(prefix.Routes),
		OldMakespan:        s0.Makespan,
		NewMakespan:        res.Schedule.Makespan,
		MakespanDelta:      res.Schedule.Makespan - s0.Makespan,
	}
	return res, nil
}
