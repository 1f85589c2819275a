package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"go/format"
	"os"
	"runtime"
	"sort"
	"time"

	"flowsyn"
)

// Vetting limits. A candidate configuration enters the compile workloads if
// its synthesis succeeds and verifies at the compile workloads' GOMAXPROCS,
// and the serve workload if, at serve's GOMAXPROCS, repeated syntheses agree
// and every request kind serve sends for it succeeds, with recoveries and
// resyntheses finishing within maxSolve. An exact candidate is dropped whole
// when any configuration's schedule stage runs longer than maxSolve. The
// limits keep every job far from the ILP time limit, so no result depends on
// machine speed.
const (
	exactCandidates = 200
	largeCandidates = 110
	maxSolve        = 300 * time.Millisecond
	// serveRepeats is how many times serve vetting re-synthesizes a key
	// with the parallel MILP to check it lands on one chip every time.
	serveRepeats = 6
)

// writeCorpus vets the candidate streams and writes the corpus file.
func writeCorpus(path string) error {
	ctx := context.Background()
	var buf bytes.Buffer
	buf.WriteString("// Code generated by flowbench -make-corpus; DO NOT EDIT.\n\n")
	buf.WriteString("package main\n\n")
	for _, c := range []Class{Exact, Large} {
		var specs []*spec
		var names []string
		for name, pc := range paperClass {
			if pc == c {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			s, err := paper(name)
			if err != nil {
				return err
			}
			specs = append(specs, s)
		}
		n := exactCandidates
		if c == Large {
			n = largeCandidates
		}
		for j := 0; j < n; j++ {
			specs = append(specs, candidate(c, j))
		}
		var rows []vetted
		compiled, served := 0, 0
		for j, s := range specs {
			v := vetted{J: j - len(names)}
			if j < len(names) {
				v = vetted{Name: names[j]}
			}
			var note string
			v.Mask, v.Serve, v.Cost, note = vet(ctx, s)
			compiled += popcount(v.Mask)
			served += popcount(v.Serve)
			fmt.Fprintf(os.Stderr, "%s: compile %06b serve %06b cost %dus %s\n", s.Label, v.Mask, v.Serve, v.Cost, note)
			if v.Mask != 0 {
				rows = append(rows, v)
			}
		}
		tried := len(specs) * len(configs)
		fmt.Fprintf(os.Stderr, "%s: %d of %d candidate configurations compile, %d serve\n", c, compiled, tried, served)
		fmt.Fprintf(&buf, "// %sCorpus: %d of %d candidate configurations pass the compile checks, %d the serve checks.\n",
			c, compiled, tried, served)
		fmt.Fprintf(&buf, "var %sCorpus = []vetted{\n", c)
		for _, v := range rows {
			fmt.Fprintf(&buf, "\t{Name: %q, J: %d, Mask: 0b%06b, Serve: 0b%06b, Cost: %d},\n", v.Name, v.J, v.Mask, v.Serve, v.Cost)
		}
		buf.WriteString("}\n\n")
	}
	src, err := format.Source(buf.Bytes())
	if err != nil {
		return err
	}
	return os.WriteFile(path, src, 0o644)
}

// vet runs every request the workloads can send for s under each
// configuration and returns the masks of configurations that passed the
// compile and the serve checks, the summed synthesis wall time of the
// compile configurations in microseconds, and a note naming the first
// failure.
func vet(ctx context.Context, s *spec) (compile, serve uint8, cost int, note string) {
	a, err := publicAssay(s.Graph)
	if err != nil {
		return 0, 0, 0, err.Error()
	}
	lb, err := lowerBound(s.Graph, s.Devices, transport)
	if err != nil {
		return 0, 0, 0, err.Error()
	}
	fail := func(cfg int, err error) {
		if note == "" {
			note = fmt.Sprintf("%s: %v", configName(cfg), err)
		}
	}
	for cfg := range configs {
		d, err := vetCompile(ctx, s, a, lb, cfg)
		if err != nil {
			fail(cfg, err)
			if errors.Is(err, errTooSlow) {
				return 0, 0, 0, note
			}
			continue
		}
		compile |= 1 << cfg
		cost += int(d.Microseconds())
		if err := vetServe(ctx, s, a, lb, cfg); err != nil {
			fail(cfg, err)
			continue
		}
		serve |= 1 << cfg
	}
	return compile, serve, cost, note
}

var errTooSlow = fmt.Errorf("schedule stage over %v", maxSolve)

// vetCompile synthesizes s under configs[cfg] the way the compile workloads
// do and returns the synthesis wall time.
func vetCompile(ctx context.Context, s *spec, a *flowsyn.Assay, lb, cfg int) (time.Duration, error) {
	runtime.GOMAXPROCS(compileProcs)
	// A synthesis still running after this long is over maxSolve anyway;
	// cancelling it keeps vetting quick.
	ctx, cancel := context.WithTimeout(ctx, 10*maxSolve)
	defer cancel()
	t0 := time.Now()
	res, err := flowsyn.SynthesizeContext(ctx, a, s.options(cfg, s.Grid))
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if s.Class == Exact && res.StageDuration(flowsyn.StageSchedule) > maxSolve {
		return d, errTooSlow
	}
	return d, checkResult(res, lb)
}

// vetServe sends, on a fresh session at serve's GOMAXPROCS, the requests
// the serve workload makes for a key: the cold synthesis (repeated to check
// it is deterministic), a grid variant, a recovery and a resynthesis.
func vetServe(ctx context.Context, s *spec, a *flowsyn.Assay, lb, cfg int) error {
	runtime.GOMAXPROCS(serveProcs)
	ctx, cancel := context.WithTimeout(ctx, 10*maxSolve)
	defer cancel()
	sol, err := flowsyn.New(flowsyn.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer sol.Close()
	submit := func(grid int) (*flowsyn.Ticket, *flowsyn.Result, error) {
		t, err := sol.Submit(ctx, flowsyn.Job{Assay: a, Options: s.options(cfg, grid)})
		if err != nil {
			return nil, nil, err
		}
		res, err := t.Wait(ctx)
		if err != nil {
			return nil, nil, err
		}
		return t, res, checkResult(res, lb)
	}
	prior, res, err := submit(s.Grid)
	if err != nil {
		return err
	}
	for range serveRepeats {
		again, err := flowsyn.SynthesizeContext(ctx, a, s.options(cfg, s.Grid))
		if err != nil {
			return fmt.Errorf("repeat: %w", err)
		}
		if chipOf(again) != chipOf(res) {
			return fmt.Errorf("repeat gave %v, first gave %v", chipOf(again), chipOf(res))
		}
	}
	if _, _, err := submit(s.Grid + 1); err != nil {
		return fmt.Errorf("grid %d: %w", s.Grid+1, err)
	}
	timed := func(t *flowsyn.Ticket, bound int) error {
		t0 := time.Now()
		res, err := t.Wait(ctx)
		if err != nil {
			return err
		}
		if d := time.Since(t0); d > maxSolve {
			return fmt.Errorf("took %v, over %v", d, maxSolve)
		}
		return checkResult(res, bound)
	}
	f := s.fault(res.Makespan())
	t, err := sol.Recover(ctx, prior, f)
	if err == nil {
		err = timed(t, lb)
	}
	if err != nil {
		return fmt.Errorf("recover %v: %w", f, err)
	}
	eg, err := s.edited()
	if err != nil {
		return err
	}
	ea, err := publicAssay(eg)
	if err != nil {
		return err
	}
	elb, err := lowerBound(eg, s.Devices, transport)
	if err != nil {
		return err
	}
	t, err = sol.Resynthesize(ctx, prior, ea)
	if err == nil {
		err = timed(t, elb)
	}
	if err != nil {
		return fmt.Errorf("resynthesize: %w", err)
	}
	return nil
}

func popcount(m uint8) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}
