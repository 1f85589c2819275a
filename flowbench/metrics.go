package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"

	"flowsyn/internal/seqgraph"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects metrics in insertion order for the human-readable
// lines, with the sample count each one rests on.
type metricSet struct {
	names   []string
	values  map[string]metric
	samples map[string]int
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]metric{}, samples: map[string]int{}}
}

// add records a metric measured over n samples (0: not a sampled value).
func (m *metricSet) add(name, unit string, value float64, n int) {
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metric{Value: value, Unit: unit}
	m.samples[name] = n
}

// print writes one line per metric and then the JSON report line.
func (m *metricSet) print(w io.Writer, workload string, attempted, failed int) error {
	for _, name := range m.names {
		v := m.values[name]
		line := fmt.Sprintf("%s: %-28s %14.6f %s", workload, name, v.Value, v.Unit)
		if n := m.samples[name]; n > 0 {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%s: attempted %d, failed %d (fail_frac %.6f)\n",
		workload, attempted, failed, frac(failed, attempted))
	out, err := json.Marshal(report{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m.values,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// percentile returns the p-quantile (0 < p < 1) of xs by the nearest-rank
// rule; xs need not be sorted. Failed samples enter as +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// median of xs (upper median for even counts).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// geomean returns the geometric mean of positive values. It sums in sorted
// order, so the result does not depend on the order jobs completed in.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// peakRSSMB reads the process's peak resident set size from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// lowerBound returns a makespan no schedule of g on the given number of
// devices can beat: the larger of the total work spread over the devices and
// a critical path that charges the transport time only where the graph
// forces a transfer. A child may share its only parent's device, so a chain
// pays no transport; a child with several parents either takes one of them
// from another device (paying the transport after it) or runs all of them
// one after another on its own device.
func lowerBound(g *seqgraph.Graph, devices, transport int) (int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	start := make([]int, g.NumOps()) // earliest start
	finish := make([]int, g.NumOps())
	cp := 0
	for _, id := range order {
		parents := g.Parents(id)
		es := 0
		if len(parents) > 0 {
			latest, earliest, firstStart, work := 0, math.MaxInt, math.MaxInt, 0
			for _, p := range parents {
				latest = max(latest, finish[p])
				earliest = min(earliest, finish[p])
				firstStart = min(firstStart, start[p])
				work += g.Op(p).Duration
			}
			es = latest
			if len(parents) > 1 {
				es = max(es, min(earliest+transport, firstStart+work))
			}
		}
		start[id] = es
		finish[id] = es + g.Op(id).Duration
		cp = max(cp, finish[id])
	}
	spread := (g.TotalWork() + devices - 1) / devices
	return max(cp, spread), nil
}
