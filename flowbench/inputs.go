package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"flowsyn"
	"flowsyn/internal/seqgraph"
)

// job is one compile request: a corpus assay under one configuration.
type job struct {
	Spec  *spec
	Cfg   int
	Assay *flowsyn.Assay
	Opts  flowsyn.Options
	Bound int
}

// runSize sets the share of a class's random corpus a compile workload
// draws next to the class's paper assays: one assay from every run of that
// many cost neighbours, plus the costliest tenth (see costOrder).
var runSize = map[Class]int{Exact: 3, Large: 2}

// compileJobs draws the job list of a compile workload from the seed: every
// paper assay of the class plus a seeded sample of the random corpus, each
// under all of its vetted configurations, in a seeded order.
func compileJobs(c Class, seed int64) ([]*job, error) {
	all, err := corpus(c)
	if err != nil {
		return nil, err
	}
	var paperSpecs, random []*spec
	for _, s := range all {
		if _, ok := paperSeed[s.Label]; ok {
			paperSpecs = append(paperSpecs, s)
		} else {
			random = append(random, s)
		}
	}
	r := rand.New(rand.NewSource(seed))
	costs := make([]int, len(random))
	for i, s := range random {
		costs[i] = s.Cost
	}
	order, runs := costOrder(costs, runSize[c], r)
	picked := paperSpecs
	for _, i := range order[:runs] {
		picked = append(picked, random[i])
	}
	var jobs []*job
	for _, s := range picked {
		a, err := publicAssay(s.Graph)
		if err != nil {
			return nil, err
		}
		lb, err := lowerBound(s.Graph, s.Devices, transport)
		if err != nil {
			return nil, err
		}
		for cfg := range configs {
			if s.Mask&(1<<cfg) == 0 {
				continue
			}
			jobs = append(jobs, &job{Spec: s, Cfg: cfg, Assay: a, Opts: s.options(cfg, s.Grid), Bound: lb})
		}
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// costOrder returns a seeded order of the indexes of costs for sampling by
// cost, and the number of runs it cut them into. The items are sorted by
// cost and cut into runs of runSize neighbours, except that each of the
// costliest tenth is a run of its own. The order takes one item at random
// from every run (the runs in seeded order), then a second from every run,
// and so on. Its first runs items then have nearly the same cost profile
// under every seed, and always hold the costliest tenth, which keeps the
// tail percentiles steady across seeds.
func costOrder(costs []int, runSize int, r *rand.Rand) ([]int, int) {
	idx := make([]int, len(costs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return costs[idx[a]] < costs[idx[b]] })
	body := len(idx) - len(idx)/10
	var runs [][]int
	for start := 0; start < len(idx); {
		end := min(start+runSize, body)
		if start >= body {
			end = start + 1
		}
		run := idx[start:end]
		r.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
		runs = append(runs, run)
		start = end
	}
	out := make([]int, 0, len(idx))
	for round := 0; len(out) < len(idx); round++ {
		for _, g := range r.Perm(len(runs)) {
			if round < len(runs[g]) {
				out = append(out, runs[g][round])
			}
		}
	}
	return out, len(runs)
}

// publicAssay hands an internal sequencing graph to the public API through
// the assay's JSON form, the way a user's assay file reaches it.
func publicAssay(g *seqgraph.Graph) (*flowsyn.Assay, error) {
	var buf bytes.Buffer
	if err := seqgraph.Write(&buf, g); err != nil {
		return nil, err
	}
	return flowsyn.ReadAssay(&buf)
}

// checkResult is the output check every successful job passes: the verify
// stage ran clean and the makespan is not below the benchmark's own lower
// bound.
func checkResult(res *flowsyn.Result, bound int) error {
	if !res.Verified() {
		return fmt.Errorf("result not verified")
	}
	if res.Makespan() < bound {
		return fmt.Errorf("makespan %d below lower bound %d", res.Makespan(), bound)
	}
	return nil
}

// chip is the deterministic part of a result that repeats, cached results
// and the traced replay must reproduce.
type chip struct {
	Makespan, Segments, Valves int
}

func chipOf(res *flowsyn.Result) chip {
	return chip{Makespan: res.Makespan(), Segments: res.ChannelSegments(), Valves: res.Valves()}
}

func (c chip) String() string {
	return fmt.Sprintf("makespan %d, %d segments, %d valves", c.Makespan, c.Segments, c.Valves)
}
