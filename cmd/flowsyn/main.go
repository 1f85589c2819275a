// Command flowsyn synthesizes a flow-based microfluidic biochip with
// distributed channel storage from a bioassay description.
//
// The assay is either one of the built-in benchmarks (-benchmark) or a JSON
// sequencing graph read from a file (-assay). The tool prints the synthesis
// summary (Table 2 columns), optionally a Gantt chart of the schedule, and
// can write execution snapshots as SVG.
//
// Usage:
//
//	flowsyn -benchmark PCR
//	flowsyn -assay my_assay.json -devices 3 -grid 5x5 -gantt
//	flowsyn -benchmark RA30 -snapshot-dir out/   # writes Fig.11-style SVGs
//	flowsyn -benchmark CPA -fault device:1@130   # fail device 1 at t=130, recover online
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"flowsyn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowsyn: ")
	var (
		benchmark = flag.String("benchmark", "", "built-in benchmark name ("+strings.Join(flowsyn.BenchmarkNames(), ", ")+")")
		assayPath = flag.String("assay", "", "path to an assay JSON file")
		devices   = flag.Int("devices", 0, "maximum number of devices (required with -assay)")
		transport = flag.Int("transport", 10, "device-to-device transport time u_c in seconds")
		gridSpec  = flag.String("grid", "4x4", "connection grid size, e.g. 4x4")
		timeOnly  = flag.Bool("time-only", false, "optimize execution time only (disable storage minimization)")
		gantt     = flag.Bool("gantt", false, "print the schedule as a per-device timeline")
		ascii     = flag.Bool("ascii", false, "print an execution snapshot as ASCII art")
		snapDir   = flag.String("snapshot-dir", "", "write SVG snapshots of interesting execution moments to this directory")
		layoutSVG = flag.String("layout-svg", "", "write the compressed physical layout to this SVG file")
		compare   = flag.Bool("compare-dedicated", false, "also report the dedicated-storage baseline (Fig. 10)")
		storageF  = flag.String("storage", "distributed", "storage strategy: distributed (paper), dedicated (single unit behind a serialized port) or hybrid (bounded channel cache in front of the unit)")
		cacheSlot = flag.Int("cache-slots", 0, "hybrid cache slots (0 selects the default 2)")
		eviction  = flag.String("eviction", "lru", "hybrid cache eviction policy: lru or earliest-next-fetch")
		doVerify  = flag.Bool("verify", false, "re-check the result with the independent invariant checker")
		progress  = flag.Bool("progress", false, "print live pipeline progress (stages, solver incumbents) while synthesizing")
		faultSpec = flag.String("fault", "", "inject a mid-execution fault and recover the suffix online, as kind:index@time (device:1@130, channel:5@40, storage:5@40); renders show the recovered plan")
	)
	flag.Parse()

	var fault flowsyn.Fault
	if *faultSpec != "" {
		var err error
		if fault, err = parseFault(*faultSpec); err != nil {
			log.Fatal(err)
		}
	}

	var (
		a    *flowsyn.Assay
		opts flowsyn.Options
		err  error
	)
	switch {
	case *benchmark != "":
		set := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if err := checkBenchmarkFlags(set); err != nil {
			log.Fatal(err)
		}
		a, opts, err = flowsyn.Benchmark(*benchmark)
		if err != nil {
			log.Fatal(err)
		}
	case *assayPath != "":
		f, err := os.Open(*assayPath)
		if err != nil {
			log.Fatal(err)
		}
		a, err = flowsyn.ReadAssay(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if *devices < 1 {
			log.Fatal("-devices is required with -assay")
		}
		rows, cols, err := parseGrid(*gridSpec)
		if err != nil {
			log.Fatal(err)
		}
		opts = flowsyn.Options{Devices: *devices, Transport: *transport, GridRows: rows, GridCols: cols}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *timeOnly {
		opts.Objective = flowsyn.MinimizeTimeOnly
	}
	policy, err := flowsyn.ParseStoragePolicy(*storageF)
	if err != nil {
		log.Fatal(err)
	}
	opts.Storage = policy
	opts.CacheSlots = *cacheSlot
	opts.Eviction = *eviction
	opts.Verify = *doVerify

	// An interrupt cancels the synthesis cleanly: the pipeline observes the
	// context all the way down to the MILP solver and exits within
	// milliseconds.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The one-shot CLI runs on the same session API as the flowsynd daemon:
	// a single-worker Solver whose ticket exposes the progress stream and
	// the per-job service metrics.
	solver, err := flowsyn.New(flowsyn.Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	if err != nil {
		log.Fatal(err)
	}
	defer solver.Close()
	ticket, err := solver.Submit(ctx, flowsyn.Job{Assay: a, Options: opts})
	if err != nil {
		log.Fatal(err)
	}
	if *progress {
		for e := range ticket.Events() {
			switch e.Kind {
			case flowsyn.ProgressStageStart:
				fmt.Printf("progress: %s...\n", e.Stage)
			case flowsyn.ProgressStageEnd:
				fmt.Printf("progress: %s done in %v\n", e.Stage, e.Duration.Round(time.Microsecond))
			case flowsyn.ProgressIncumbent:
				fmt.Printf("progress: incumbent makespan %d (objective %.0f, node %d)\n", e.Makespan, e.Objective, e.Nodes)
			case flowsyn.ProgressSolver:
				fmt.Printf("progress: solver finished: makespan %d, %d nodes, gap %s\n", e.Makespan, e.Nodes, gapString(e.Gap))
			case flowsyn.ProgressFailed:
				fmt.Printf("progress: failed: %s\n", e.Err)
			}
		}
	}
	res, err := ticket.Wait(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatal("interrupted")
		}
		log.Fatal(err)
	}
	fmt.Printf("%s: %s\n", a.Name(), res.Summary())
	fmt.Printf("stores=%d peak-capacity=%d channel-utilization=%.1f%%\n",
		res.StoreCount(), res.StorageCapacity(), 100*res.ChannelUtilization())
	if res.StoragePolicy() != flowsyn.DistributedStorage {
		fmt.Printf("storage: %s | %d unit stores, %d cells, %d unit valves, %d s port queue delay\n",
			res.StoragePolicy(), res.UnitStoreCount(), res.UnitCells(), res.UnitValves(), res.UnitQueueDelay())
	}
	if sv := res.SolverStats(); sv != nil {
		fmt.Printf("solver: %s in %v | model %dv/%dc | %d nodes, %d pivots, warm-start %.0f%%, gap %s | presolve -%d cols -%d rows\n",
			sv.Status, sv.Runtime.Round(time.Millisecond),
			sv.ModelVars, sv.ModelConstraints,
			sv.Nodes, sv.Iterations, 100*sv.WarmStartRate, gapString(sv.Gap),
			sv.PresolveFixedCols, sv.PresolveRemovedRows)
		if sv.Kernel != "" {
			fmt.Printf("kernel: %s | %d refactorizations, %d updates (%d rejected), fill %.2f | node propagation: %d tightenings, %d prunes\n",
				sv.Kernel, sv.Refactorizations, sv.FTUpdates, sv.FTUpdatesRejected,
				sv.FillRatio, sv.PropagationTightenings, sv.PropagationPrunes)
		}
		if sv.CutsSeparated > 0 || sv.PseudoCostInits > 0 || sv.HeuristicIncumbents > 0 || sv.ReducedCostFixings > 0 {
			fmt.Printf("cut-and-branch: %d cuts separated (%d rounds, %d clique, sep %v), %d applied, %d aged out | %d pseudo-cost probes, %d heuristic + %d local-branching incumbents, %d reduced-cost fixings\n",
				sv.CutsSeparated, sv.CutRounds, sv.CliqueCuts,
				sv.SeparationWall.Round(time.Microsecond),
				sv.CutsApplied, sv.CutsAgedOut,
				sv.PseudoCostInits, sv.HeuristicIncumbents, sv.LocalBranchingIncumbents,
				sv.ReducedCostFixings)
		}
		if tot := sv.IncrementalPivots + sv.FullPricingPivots; tot > 0 {
			fmt.Printf("pricing: %d incremental / %d full pivots (%.0f%% incremental)\n",
				sv.IncrementalPivots, sv.FullPricingPivots,
				100*float64(sv.IncrementalPivots)/float64(tot))
		}
	}
	if js := res.JobStats(); js != nil {
		cache := "miss"
		switch {
		case js.CacheHit:
			cache = "hit"
		case js.ScheduleCacheHit:
			cache = "schedule-hit"
		}
		fmt.Printf("service: queue %v, runtime %v, cache %s, %d progress events\n",
			js.QueueWait.Round(time.Microsecond), js.Runtime.Round(time.Microsecond), cache, js.Events)
	}
	if *doVerify {
		fmt.Println("verified: all invariants hold (precedence, exclusivity, storage, metrics, sim agreement)")
	}

	if *faultSpec != "" {
		rt, err := solver.Recover(ctx, ticket, fault)
		if err != nil {
			log.Fatal(err)
		}
		rec, err := rt.Wait(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				log.Fatal("interrupted")
			}
			log.Fatal(err)
		}
		rs := rec.Recovery()
		fmt.Printf("\nRecovery from %s:\n", rs.Fault)
		fmt.Printf("  preserved %d ops and %d routes, re-planned %d transports\n",
			rs.PreservedOps, rs.PreservedRoutes, rs.ReroutedTransports)
		fmt.Printf("  makespan %d -> %d (%+d s)\n", rs.OldMakespan, rs.NewMakespan, rs.MakespanDelta)
		// Everything rendered below shows the recovered plan.
		res = rec
	}

	if *gantt {
		fmt.Println("\nSchedule:")
		fmt.Print(res.GanttChart())
	}
	if *ascii {
		times := res.InterestingTimes()
		if len(times) > 0 {
			fmt.Println()
			fmt.Print(res.SnapshotASCII(times[len(times)/2]))
		}
	}
	if *compare {
		cmp, err := res.CompareDedicated()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nDedicated-storage baseline: tE %d -> %d (ratio %.2f), valves %d -> %d (ratio %.2f)\n",
			cmp.DedicatedMakespan, cmp.DistributedMakespan, cmp.ExecRatio,
			cmp.DedicatedValves, cmp.DistributedValves, cmp.ValveRatio)
	}
	if *layoutSVG != "" {
		if err := os.WriteFile(*layoutSVG, []byte(res.LayoutSVG()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote layout to %s\n", *layoutSVG)
	}
	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, t := range res.InterestingTimes() {
			name := filepath.Join(*snapDir, fmt.Sprintf("%s_t%04d.svg", a.Name(), t))
			if err := os.WriteFile(name, []byte(res.SnapshotSVG(t)), 0o644); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("wrote %d snapshots to %s\n", len(res.InterestingTimes()), *snapDir)
	}
}

// gapString renders a relative MIP gap, with -1 meaning no bound survived.
// checkBenchmarkFlags rejects -devices, -transport and -grid when set
// explicitly next to -benchmark: a benchmark runs at its Table 2 parameters,
// so those flags would be ignored. set holds the names of the flags given on
// the command line.
func checkBenchmarkFlags(set map[string]bool) error {
	for _, name := range []string{"devices", "transport", "grid"} {
		if set[name] {
			return fmt.Errorf("-%s cannot be combined with -benchmark, which runs at its Table 2 parameters", name)
		}
	}
	return nil
}

func gapString(g float64) string {
	if g < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", 100*g)
}

func parseGrid(spec string) (rows, cols int, err error) {
	if _, err := fmt.Sscanf(spec, "%dx%d", &rows, &cols); err != nil {
		return 0, 0, fmt.Errorf("invalid grid %q (want e.g. 4x4)", spec)
	}
	return rows, cols, nil
}

// parseFault reads a kind:index@time fault spec like "device:1@130".
func parseFault(spec string) (flowsyn.Fault, error) {
	var f flowsyn.Fault
	head, at, ok := strings.Cut(spec, "@")
	kind, idx, ok2 := strings.Cut(head, ":")
	if !ok || !ok2 {
		return f, fmt.Errorf("invalid fault %q (want kind:index@time, e.g. device:1@130)", spec)
	}
	n, err := strconv.Atoi(idx)
	if err != nil {
		return f, fmt.Errorf("invalid fault index %q: %v", idx, err)
	}
	if f.Time, err = strconv.Atoi(at); err != nil {
		return f, fmt.Errorf("invalid fault time %q: %v", at, err)
	}
	switch kind {
	case "device":
		f.Kind, f.Device = flowsyn.DeviceFault, n
	case "channel":
		f.Kind, f.Channel = flowsyn.ChannelFault, n
	case "storage":
		f.Kind, f.Channel = flowsyn.StorageFault, n
	default:
		return f, fmt.Errorf("unknown fault kind %q (want device, channel or storage)", kind)
	}
	return f, nil
}
