// Command flowbench is the flowsyn benchmark. It generates seeded inputs,
// runs one workload through the public API in a closed loop, checks every
// output, and prints the end-to-end metrics; with -trace 1 it also replays
// each job through the layers' own entry points and prints per-layer
// metrics instead. The last line of standard output is a JSON object with
// the keys correct, attempted, failed and metrics.
//
// Usage, from the repository root:
//
//	bash flowbench/run.sh --workload exact --seed 1 --seconds 20 --trace 0
//
// Workloads: exact, list-large and serve (see BENCHMARK.json for why each
// was chosen). -make-corpus regenerates corpus_data.go from the candidate
// streams and is only needed when the benchmark itself is redefined.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// GOMAXPROCS of each workload, fixed so the MILP worker pool, the session
// workers and the client count are the same on every machine. The compile
// workloads run one client on one processor: the MILP then searches with one
// worker, and its result does not depend on thread timing. (With two
// workers, equally optimal solutions found in a different order can
// reconstruct to different makespans.) Serve runs two clients against two
// single-worker sessions on two processors.
const (
	compileProcs = 1
	serveProcs   = 2
)

// setups is how many times a run repeats its set-up; setup_s is their
// median.
const setups = 5

type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	SpansDir string
}

func main() {
	var (
		cfg        runConfig
		trace      int
		makeCorpus string
	)
	flag.StringVar(&cfg.Workload, "workload", "", "workload: exact, list-large or serve")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced layer replay and prints per-layer metrics")
	flag.StringVar(&cfg.SpansDir, "spans-dir", ".bench_build/spans", "where the traced run writes its spans")
	flag.StringVar(&makeCorpus, "make-corpus", "", "vet the candidate streams and write the corpus file to this path")
	flag.Parse()

	if makeCorpus != "" {
		if err := writeCorpus(makeCorpus); err != nil {
			fmt.Fprintln(os.Stderr, "flowbench:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "flowbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.Trace = trace == 1
	if cfg.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "flowbench: -seconds must be positive")
		os.Exit(2)
	}
	m, attempted, failed, err := run(cfg)
	if err == nil {
		err = m.print(os.Stdout, cfg.Workload, attempted, failed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and returns its metrics with the attempted and
// failed job counts.
func run(cfg runConfig) (*metricSet, int, int, error) {
	switch cfg.Workload {
	case "exact":
		runtime.GOMAXPROCS(compileProcs)
		return runCompile(Exact, cfg)
	case "list-large":
		runtime.GOMAXPROCS(compileProcs)
		return runCompile(Large, cfg)
	case "serve":
		runtime.GOMAXPROCS(serveProcs)
		return runServe(cfg)
	}
	return nil, 0, 0, fmt.Errorf("unknown workload %q (want exact, list-large or serve)", cfg.Workload)
}
