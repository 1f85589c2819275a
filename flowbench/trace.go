package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one job share its id; layer spans name the job span as
// their parent.
type span struct {
	Job    int    `json:"job"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends, and sums each layer's
// time so the per-layer metrics need no second pass.
type tracer struct {
	origin time.Time
	spans  []span
	total  map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), total: map[string]time.Duration{}}
}

// add records a span of layer for job, with parent "" for a job's root span.
func (t *tracer) add(job int, layer, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{
		Job:    job,
		Layer:  layer,
		Parent: parent,
		Start:  start.Sub(t.origin).Nanoseconds(),
		End:    end.Sub(t.origin).Nanoseconds(),
	})
	t.total[layer] += end.Sub(start)
}

// ms returns layer's total time in milliseconds.
func (t *tracer) ms(layer string) float64 {
	return float64(t.total[layer].Nanoseconds()) / 1e6
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
