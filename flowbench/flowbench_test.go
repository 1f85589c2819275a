package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"flowsyn/internal/seqgraph"
)

// benchmarkJSON is the part of BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// shortRun measures one workload for a fraction of a second: one pass of a
// compile workload, a short plan of the serve workload.
func shortRun(t *testing.T, workload string, seed int64, trace bool) (*metricSet, int, int) {
	t.Helper()
	m, attempted, failed, err := run(runConfig{
		Workload: workload,
		Seed:     seed,
		Seconds:  0.2,
		Trace:    trace,
		SpansDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return m, attempted, failed
}

// TestEveryMetricReported checks that a short run of every workload prints
// exactly the metrics BENCHMARK.json names, each with its unit, and that no
// job fails.
func TestEveryMetricReported(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			m, attempted, failed := shortRun(t, w.Name, 1, trace)
			if attempted == 0 || failed != 0 {
				t.Errorf("%s trace=%v: %d of %d jobs failed", w.Name, trace, failed, attempted)
			}
			if len(m.values) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(m.values), len(want))
			}
			for _, metric := range want {
				got, ok := m.values[metric.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, metric.Name)
				case got.Unit != metric.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, trace, metric.Name, got.Unit, metric.Unit)
				}
			}
		}
	}
}

// TestSameSeedSameCounts checks that the deterministic metrics repeat
// exactly for one seed: the inputs, and so the plans' quality, come from the
// seed alone.
func TestSameSeedSameCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range []string{"exact", "list-large", "serve"} {
		a, attemptedA, failedA := shortRun(t, w, 7, false)
		b, attemptedB, failedB := shortRun(t, w, 7, false)
		if failedA != failedB {
			t.Errorf("%s: failed %d then %d", w, failedA, failedB)
		}
		if w == "serve" && attemptedA != attemptedB {
			t.Errorf("%s: attempted %d then %d", w, attemptedA, attemptedB)
		}
		for _, name := range []string{"makespan_ratio", "valves"} {
			if a.values[name] != b.values[name] {
				t.Errorf("%s: %s %v then %v", w, name, a.values[name].Value, b.values[name].Value)
			}
		}
		if a.samples["makespan_ratio"] != b.samples["makespan_ratio"] {
			t.Errorf("%s: %d then %d jobs in makespan_ratio", w, a.samples["makespan_ratio"], b.samples["makespan_ratio"])
		}
	}
}

// TestSeedsDiffer checks that the seed reaches the inputs.
func TestSeedsDiffer(t *testing.T) {
	a, err := compileJobs(Exact, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compileJobs(Exact, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(b)
	for i := 0; same && i < len(a); i++ {
		same = a[i].Spec == b[i].Spec && a[i].Cfg == b[i].Cfg
	}
	if same {
		t.Error("seeds 1 and 2 gave the same exact job list")
	}
}

// TestLowerBound checks the makespan bound on hand-computed graphs.
func TestLowerBound(t *testing.T) {
	for _, tc := range []struct {
		name      string
		durations []int
		edges     [][2]int
		want      int
	}{
		// A chain runs on one device without transports.
		{"chain", []int{10, 20, 30}, [][2]int{{0, 1}, {1, 2}}, 60},
		// Two parents: either one crosses devices (40+10) or both run on
		// the child's device back to back (40+40); then the child's 5.
		{"join", []int{40, 40, 5}, [][2]int{{0, 2}, {1, 2}}, 55},
		// Independent work spread over the devices dominates.
		{"spread", []int{30, 30, 30, 30}, nil, 60},
	} {
		g := seqgraph.New(tc.name)
		for i, d := range tc.durations {
			g.MustAddOperation(fmt.Sprintf("o%d", i), seqgraph.Mix, d, 1)
		}
		for _, e := range tc.edges {
			g.MustAddDependency(seqgraph.OpID(e[0]), seqgraph.OpID(e[1]))
		}
		got, err := lowerBound(g, 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: bound %d, want %d", tc.name, got, tc.want)
		}
	}
}
