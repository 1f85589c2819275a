package sched

import (
	"context"

	"flowsyn/internal/seqgraph"
)

// PortfolioSchedule races the exact ILP against the storage-aware list
// scheduler in separate goroutines and returns whichever finished result
// scores better on the paper's objective (6), α·tE + β·Σu. It replaces the
// sequential try-ILP-then-fall-back flow of the Auto engine: the heuristic
// result is always available as soon as it finishes, and the ILP contributes
// whenever it beats it within its time limit.
//
// The returned ILPInfo always carries the ILP solver diagnostics, whichever
// arm won. The selection is deterministic: equal scores prefer the ILP
// schedule.
func PortfolioSchedule(ctx context.Context, g *seqgraph.Graph, opts ILPOptions) (*Schedule, *ILPInfo, error) {
	alpha, beta := opts.weights()
	mode := TimeAndStorage
	if beta == 0 {
		mode = TimeOnly
	}
	score := func(s *Schedule) float64 {
		return alpha*float64(s.Makespan) + beta*float64(s.StorageTime())
	}

	type ilpOut struct {
		s    *Schedule
		info *ILPInfo
		err  error
	}
	type listOut struct {
		s   *Schedule
		err error
	}
	// The ILP arm computes its own TimeAndStorage incumbent (it needs one
	// for the horizon and warm start before the solve can begin), so in
	// TimeAndStorage mode the list arm re-derives the same schedule. Sharing
	// it would serialize the arms; at portfolio sizes (NumOps <=
	// MaxExactOps) the duplicate list run costs microseconds against an ILP
	// solve bounded in seconds.
	ilpCh := make(chan ilpOut, 1)
	listCh := make(chan listOut, 1)
	go func() {
		s, info, err := ILPScheduleContext(ctx, g, opts)
		ilpCh <- ilpOut{s, info, err}
	}()
	go func() {
		s, err := ListScheduleContext(ctx, g, ListOptions{
			Devices: opts.Devices, Transport: opts.Transport, Mode: mode,
			Pin: opts.Pin, Storage: opts.Storage,
		})
		listCh <- listOut{s, err}
	}()

	// Both arms are bounded — the ILP by its derived TimeLimit context, the
	// list scheduler by its per-operation cancellation check — so waiting for
	// both keeps the selection deterministic without an unbounded stall.
	ilp, list := <-ilpCh, <-listCh
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// With the context alive, an arm failure is a genuine engine error (bad
	// options, solver failure) — propagate it rather than masking a
	// regression behind the surviving arm.
	if ilp.err != nil {
		return nil, nil, ilp.err
	}
	if list.err != nil {
		return nil, nil, list.err
	}
	if score(list.s) < score(ilp.s) {
		info := *ilp.info
		info.Winner = "list"
		return list.s, &info, nil
	}
	return ilp.s, ilp.info, nil
}
