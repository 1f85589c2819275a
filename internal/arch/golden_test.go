package arch

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowsyn/internal/assay"
	"flowsyn/internal/sched"
	"flowsyn/internal/storage"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/routes.golden from the current router")

// fingerprint hashes everything the router decided for a chip: placement,
// the storage unit, every route's task, paths and storage segment, and the
// used segments.
func fingerprint(a *Result) string {
	h := sha256.New()
	fmt.Fprintln(h, a.Grid, a.DevicePos, a.Ports, a.StorageUnit, a.UnitCells)
	for _, r := range a.Routes {
		t := r.Task
		fmt.Fprintln(h, t.Edge, t.Kind, t.IO, t.Unit, t.From, t.To,
			t.Depart, t.Arrive, t.OutStart, t.OutEnd, t.FetchStart, t.FetchEnd)
		fmt.Fprintln(h, r.OutNodes, r.OutEdges, r.StorageEdge, r.FetchNodes, r.FetchEdges)
	}
	fmt.Fprintln(h, a.UsedEdges, a.NumValves)
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestRoutedChipsGolden pins the routed chips of the paper's large
// benchmarks under the list scheduler, the time+storage objective and every
// storage strategy, so a router refactor that moves a single path, segment
// or valve fails here. Run with -update-golden to record an intended change.
func TestRoutedChipsGolden(t *testing.T) {
	var got strings.Builder
	for _, name := range []string{"CPA", "RA70", "RA100"} {
		b := assay.MustGet(name)
		grid, err := NewGrid(b.GridRows, b.GridCols)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []storage.Policy{storage.Distributed, storage.Dedicated, storage.Hybrid} {
			s, err := sched.ListSchedule(b.Graph, sched.ListOptions{
				Devices:   b.Devices,
				Transport: b.Transport,
				Mode:      sched.TimeAndStorage,
				Storage:   storage.New(storage.Config{Policy: policy}),
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, policy, err)
			}
			a, err := Synthesize(s, grid, Options{ModelIO: b.ModelIO})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, policy, err)
			}
			fmt.Fprintf(&got, "%s %v routes=%d segments=%d valves=%d unit=%d cells=%d chip=%s\n",
				name, policy, len(a.Routes), a.NumEdges, a.NumValves, a.StorageUnit, a.UnitCells, fingerprint(a))
		}
	}
	path := filepath.Join("testdata", "routes.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("routed chips diverge from %s:\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
	}
}
