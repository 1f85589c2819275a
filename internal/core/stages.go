package core

import (
	"context"
	"fmt"
	"time"

	"flowsyn/internal/arch"
	"flowsyn/internal/phys"
	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
	"flowsyn/internal/sim"
	"flowsyn/internal/storage"
	"flowsyn/internal/verify"
)

// Stage names, in pipeline order.
const (
	// StageSchedule produces the scheduling-and-binding result (Section 3.1).
	StageSchedule = "schedule"
	// StageBind validates the binding and derives the transportation tasks
	// that drive architectural synthesis.
	StageBind = "bind"
	// StageArch synthesizes the connection graph with distributed channel
	// storage (Section 3.2).
	StageArch = "arch"
	// StagePhys compacts the planar connection graph into a physical layout
	// (Section 3.3).
	StagePhys = "phys"
	// StageVerify re-checks the finished result against the paper's
	// constraint system with the independent invariant checker
	// (internal/verify). Appended when Options.Verify is set.
	StageVerify = "verify"
)

// StageTiming records the wall-clock duration of one pipeline stage; the
// schedule/arch/phys entries correspond to the paper's t_s, t_r and t_p
// columns of Table 2.
type StageTiming struct {
	// Name is one of the Stage* constants.
	Name string
	// Duration is the stage's wall-clock time.
	Duration time.Duration
}

// Binding summarizes what the Bind stage derived from the schedule: the
// transportation workload handed to architectural synthesis.
type Binding struct {
	// Transports counts device-to-device transportation tasks (direct and
	// stored).
	Transports int
	// Stored counts the tasks that park their fluid somewhere — in a channel
	// segment or in the dedicated unit — the paper's storage events.
	Stored int
	// Unit counts the Stored tasks routed through the dedicated storage unit
	// (always zero under the distributed strategy).
	Unit int
}

// stageState carries intermediate products between pipeline stages.
type stageState struct {
	graph *seqgraph.Graph
	opts  Options
	res   *Result
	// pre, when non-nil, injects an already-solved schedule: the schedule
	// stage installs it instead of running an engine (the service layer's
	// schedule-cache path).
	pre *preSchedule
	// rec, when non-nil, marks an online re-synthesis (RecoverContext): the
	// schedule stage honors its pin, the arch stage keeps the prior placement
	// and executed routes and masks the fault, and the verify stage replays
	// the faulted execution end to end.
	rec *recoverState
}

// preSchedule is a schedule solved by an earlier pipeline run, injected by
// SynthesizeWithSchedule.
type preSchedule struct {
	s    *sched.Schedule
	info *sched.ILPInfo
}

// stage is one named step of the synthesis pipeline. Each stage reads and
// extends the shared state; the driver records its wall-clock time.
type stage struct {
	name string
	run  func(ctx context.Context, st *stageState) error
}

// pipeline returns the synthesis stages in execution order.
func pipeline(opts Options) []stage {
	stages := []stage{
		{name: StageSchedule, run: runScheduleStage},
		{name: StageBind, run: runBindStage},
		{name: StageArch, run: runArchStage},
		{name: StagePhys, run: runPhysStage},
	}
	if opts.Verify {
		stages = append(stages, stage{name: StageVerify, run: runVerifyStage})
	}
	return stages
}

// runScheduleStage schedules and binds the assay with the selected engine.
// The Auto engine races the exact ILP against the list scheduler (portfolio
// mode) at sizes where the ILP is worth attempting, instead of the former
// sequential try-ILP-then-fall-back pass. Under recovery every engine honors
// the prefix pin.
func runScheduleStage(ctx context.Context, st *stageState) error {
	if st.pre != nil {
		st.res.Schedule, st.res.SchedInfo = st.pre.s, st.pre.info
		return nil
	}
	opts := st.opts
	g := st.graph
	var pin *sched.Pin
	if st.rec != nil {
		pin = st.rec.pin
	}
	beta := 0.0 // 0 means default (storage-aware) inside ILPOptions
	if opts.Mode == sched.TimeOnly {
		beta = -1 // disables the storage term
	}
	model := storage.New(opts.Storage)
	ilpOpts := sched.ILPOptions{
		Devices:   opts.Devices,
		Transport: opts.Transport,
		Beta:      beta,
		TimeLimit: opts.ILPTimeLimit,
		WarmStart: true,
		Warm:      opts.Warm,
		Pin:       pin,
		Storage:   model,
		Progress:  scheduleProgress(opts),
	}
	switch {
	case opts.Engine == ExactILP:
		s, info, err := sched.ILPScheduleContext(ctx, g, ilpOpts)
		if err != nil {
			return err
		}
		st.res.Schedule, st.res.SchedInfo = s, info
	case opts.Engine == Auto && g.NumOps() <= sched.MaxExactOps:
		s, info, err := sched.PortfolioSchedule(ctx, g, ilpOpts)
		if err != nil {
			return err
		}
		st.res.Schedule, st.res.SchedInfo = s, info
	default:
		s, err := sched.ListScheduleContext(ctx, g, sched.ListOptions{
			Devices:   opts.Devices,
			Transport: opts.Transport,
			Mode:      opts.Mode,
			Pin:       pin,
			Storage:   model,
		})
		if err != nil {
			return err
		}
		// Incremental re-synthesis and recovery on the heuristic path: a
		// prior schedule, re-timed on the current graph (around the pin),
		// replaces the list result when it scores better on the configured
		// objective.
		if opts.Warm != nil {
			if ws, werr := sched.Retime(g, opts.Warm, opts.Devices, opts.Transport, pin, model); werr == nil {
				if sched.ObjectiveScore(ws, opts.Mode) < sched.ObjectiveScore(s, opts.Mode) {
					s = ws
				}
			}
		}
		st.res.Schedule = s
	}
	reportScheduleOutcome(opts, st.res)
	return nil
}

// reportScheduleOutcome emits the closing progress event of a schedule stage:
// the solver summary when an exact engine ran, the kept incumbent otherwise.
func reportScheduleOutcome(opts Options, res *Result) {
	progress := opts.Progress
	if progress == nil {
		return
	}
	if info := res.SchedInfo; info != nil {
		// Final solver summary: nodes and the MIP gap the search ended
		// with, alongside the schedule actually kept.
		progress(ProgressEvent{
			Kind:      EventSolver,
			Stage:     StageSchedule,
			Makespan:  res.Schedule.Makespan,
			Objective: info.Objective,
			Nodes:     info.Solver.Nodes,
			Gap:       info.Solver.Gap,
		})
	} else {
		progress(ProgressEvent{
			Kind:     EventIncumbent,
			Stage:    StageSchedule,
			Makespan: res.Schedule.Makespan,
		})
	}
}

// scheduleProgress adapts the pipeline progress callback to the exact
// engine's incumbent stream.
func scheduleProgress(opts Options) func(sched.ProgressEvent) {
	progress := opts.Progress
	if progress == nil {
		return nil
	}
	return func(e sched.ProgressEvent) {
		progress(ProgressEvent{
			Kind:      EventIncumbent,
			Stage:     StageSchedule,
			Makespan:  e.Makespan,
			Objective: e.Objective,
			Nodes:     e.Nodes,
		})
	}
}

// runBindStage re-checks the binding against the paper's constraints (Table
// 1) independently of the engine that produced it, and summarizes the
// transportation workload for the next stage.
func runBindStage(_ context.Context, st *stageState) error {
	if err := st.res.Schedule.Validate(); err != nil {
		return err
	}
	tasks := st.res.Schedule.Tasks()
	st.res.Binding.Transports = len(tasks)
	for _, t := range tasks {
		if t.Kind == sched.Stored {
			st.res.Binding.Stored++
			if t.Unit {
				st.res.Binding.Unit++
			}
		}
	}
	return nil
}

// runArchStage synthesizes the chip architecture on the connection grid.
// Under recovery it re-routes on the prior chip: placement is fixed to the
// prior device positions, the executed internal routes are re-installed
// verbatim (shielded from rip-up), and the failed resource is masked from
// everything planned fresh.
func runArchStage(ctx context.Context, st *stageState) error {
	grid, err := arch.NewGrid(st.opts.GridRows, st.opts.GridCols)
	if err != nil {
		return err
	}
	archOpts := arch.Options{ModelIO: st.opts.ModelIO}
	if rc := st.rec; rc != nil {
		archOpts.FixedPlacement = append([]arch.NodeID(nil), rc.prior.Architecture.DevicePos...)
		archOpts.PinnedRoutes = rc.prefix.Routes
		switch rc.fault.Kind {
		case sim.FaultChannel:
			archOpts.ForbiddenEdges = []arch.EdgeID{rc.fault.Edge}
		case sim.FaultStorage:
			archOpts.ForbiddenStorage = []arch.EdgeID{rc.fault.Edge}
		}
	}
	st.res.Architecture, err = arch.SynthesizeContext(ctx, st.res.Schedule, grid, archOpts)
	return err
}

// runPhysStage compacts the architecture into the physical layout.
func runPhysStage(ctx context.Context, st *stageState) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var err error
	st.res.Physical, err = phys.Compute(st.res.Architecture, phys.Options{})
	return err
}

// runVerifyStage re-derives the correctness of the finished result from
// first principles, independently of the engines that produced it. Under
// recovery it replays the faulted execution end to end instead: the same
// invariant suite on the recovered result plus the splice-point guarantees
// (prefix preserved verbatim, suffix floored at the fault, masks honored,
// devices unmoved).
func runVerifyStage(ctx context.Context, st *stageState) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	res, rc := st.res, st.rec
	if rc == nil {
		return res.Verify()
	}
	return res.crossCheck(verify.CheckRecovery(rc.prior.Schedule, rc.prior.Architecture,
		res.Schedule, res.Architecture, rc.fault, storage.New(res.Storage)))
}

// SynthesizeContext runs the full staged flow — Schedule, Bind, Arch, Phys —
// on one assay, recording per-stage wall-clock in Result.Stages. Cancelling
// ctx aborts the pipeline promptly (every long-running stage observes the
// context down to the MILP branch-and-bound loop) with ctx.Err() wrapped in
// the stage error.
func SynthesizeContext(ctx context.Context, g *seqgraph.Graph, opts Options) (*Result, error) {
	return synthesize(ctx, g, opts, nil)
}

// SynthesizeWithSchedule runs the pipeline with an already-solved schedule:
// the schedule stage installs s (and its solver diagnostics, which may be
// nil) instead of running an engine, and only bind, arch, phys and the
// optional verify stage execute. This is the service layer's schedule-cache
// path — a grid sweep over one assay re-solves the expensive MILP exactly
// once. s must be a valid schedule of g under opts' device and transport
// parameters; the bind stage re-validates it.
func SynthesizeWithSchedule(ctx context.Context, g *seqgraph.Graph, opts Options, s *sched.Schedule, info *sched.ILPInfo) (*Result, error) {
	return synthesize(ctx, g, opts, &preSchedule{s: s, info: info})
}

func synthesize(ctx context.Context, g *seqgraph.Graph, opts Options, pre *preSchedule) (*Result, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	st := &stageState{graph: g, opts: opts, res: &Result{Storage: opts.Storage}, pre: pre}
	return st.run(ctx)
}

// run drives the pipeline over the shared state, recording per-stage
// wall-clock and emitting the stage progress events.
func (st *stageState) run(ctx context.Context) (*Result, error) {
	opts := st.opts
	for _, sg := range pipeline(opts) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.Progress != nil {
			opts.Progress(ProgressEvent{Kind: EventStageStart, Stage: sg.name})
		}
		start := time.Now()
		if err := sg.run(ctx, st); err != nil {
			return nil, fmt.Errorf("core: %s stage: %w", sg.name, err)
		}
		d := time.Since(start)
		st.res.Stages = append(st.res.Stages, StageTiming{Name: sg.name, Duration: d})
		if sg.name == StageSchedule {
			st.res.SchedulingTime = d
		}
		if opts.Progress != nil {
			opts.Progress(ProgressEvent{Kind: EventStageEnd, Stage: sg.name, Duration: d})
		}
	}
	return st.res, nil
}
