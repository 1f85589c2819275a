package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeFleet emulates N flowsynd replicas sharing one persistent store: the
// first submission of a key anywhere in the fleet counts one cold solve on
// that replica, every repeat anywhere is a store hit. It exercises the whole
// client side of the harness (submit, poll, resynthesize, recover, stats)
// without solving anything.
type fakeFleet struct {
	mu     sync.Mutex
	solved map[string]bool // shared store: key -> already solved fleet-wide
	solves []int64         // cold solves per replica
	jobs   map[string]*fakeJob
	nextID int
	// failJobs makes every Nth submission come back failed (0 = never).
	failEvery int
	submitted int
}

type fakeJob struct {
	key     string
	warm    bool
	fail    bool
	readyAt time.Time // cold jobs "solve" for a while; warm jobs are instant
}

// fakeColdSolve is the emulated cold-solve latency; warm jobs finish
// immediately, so the harness's warm-vs-cold speedup check has a real margin
// to measure.
const fakeColdSolve = 40 * time.Millisecond

func newFakeFleet(replicas int) *fakeFleet {
	return &fakeFleet{
		solved: map[string]bool{},
		solves: make([]int64, replicas),
		jobs:   map[string]*fakeJob{},
	}
}

// admit records one job for a key and returns the id it assigned: the
// fleet-wide first sight of a key is a cold solve on this replica, everything
// after is warm.
func (ff *fakeFleet) admit(rep int, key string) string {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	ff.submitted++
	j := &fakeJob{key: key, warm: ff.solved[key]}
	if !j.warm {
		ff.solved[key] = true
		ff.solves[rep]++
		j.readyAt = time.Now().Add(fakeColdSolve)
	}
	if ff.failEvery > 0 && ff.submitted%ff.failEvery == 0 {
		j.fail = true
	}
	ff.nextID++
	id := fmt.Sprintf("job-%d", ff.nextID)
	ff.jobs[id] = j
	return id
}

func (ff *fakeFleet) handler(rep int) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Options map[string]any `json:"options"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		key := fmt.Sprintf("opts|%v", req.Options["transport"])
		id := ff.admit(rep, key)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	})
	mux.HandleFunc("POST /v1/jobs/{id}/resynthesize", func(w http.ResponseWriter, r *http.Request) {
		ff.mu.Lock()
		prior := ff.jobs[r.PathValue("id")]
		ff.mu.Unlock()
		if prior == nil {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "unknown job"})
			return
		}
		// The edited graph keeps the seed's options, so its store key is the
		// seed's with an edit marker — one extra cold solve per edited key.
		id := ff.admit(rep, "edit|"+prior.key)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	})
	mux.HandleFunc("POST /v1/jobs/{id}/recover", func(w http.ResponseWriter, r *http.Request) {
		// Recoveries bypass every cache and never count a schedule solve.
		ff.mu.Lock()
		ff.nextID++
		id := fmt.Sprintf("job-%d", ff.nextID)
		ff.jobs[id] = &fakeJob{}
		ff.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		ff.mu.Lock()
		j := ff.jobs[r.PathValue("id")]
		ff.mu.Unlock()
		if j == nil {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "unknown job"})
			return
		}
		state := "done"
		switch {
		case j.fail:
			state = "failed"
		case time.Now().Before(j.readyAt):
			state = "running"
		}
		json.NewEncoder(w).Encode(map[string]any{
			"id": r.PathValue("id"), "state": state,
			"stats": map[string]any{
				"runtime_ms": 1.0,
				"store_hit":  j.warm,
			},
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"makespan_s": 100})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		ff.mu.Lock()
		n := ff.solves[rep]
		ff.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"schedule_solves": n})
	})
	return mux
}

func startFakeFleet(t *testing.T, ff *fakeFleet) []string {
	t.Helper()
	urls := make([]string, len(ff.solves))
	for i := range urls {
		ts := httptest.NewServer(ff.handler(i))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// TestRunAgainstFakeFleet drives the whole harness — seed phase, mixed
// phase with edits and recoveries, fleet stats, checks, artifact — against
// two emulated replicas sharing a store. The single-flight accounting must
// come out exact: unique keys + distinct edited keys, nothing more.
func TestRunAgainstFakeFleet(t *testing.T) {
	resetEditedAssayCache()
	ff := newFakeFleet(2)
	urls := startFakeFleet(t, ff)
	benchPath := filepath.Join(t.TempDir(), "bench.json")

	code := run(runConfig{
		replicas:  urls,
		benchmark: "PCR",
		unique:    4,
		jobs:      40,
		conc:      6,
		resynth:   0.2,
		recover:   0.2,
		seed:      7,
		timeout:   10 * time.Second,
		benchJSON: benchPath,
		notes:     "fake fleet",
		check:     true,
	})
	if code != 0 {
		t.Fatalf("run exited %d against a healthy fake fleet", code)
	}

	data, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		LoadRuns []loadRun `json:"load_runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.LoadRuns) != 1 {
		t.Fatalf("artifact has %d load runs", len(doc.LoadRuns))
	}
	lr := doc.LoadRuns[0]
	if !lr.SingleFlight {
		t.Errorf("single flight false: %d solves for %d expected",
			lr.FleetScheduleSolve, lr.ExpectedColdSolves)
	}
	if lr.FailedJobs != 0 {
		t.Errorf("%d failed jobs against a fake fleet", lr.FailedJobs)
	}
	if lr.Jobs != 44 { // 4 seeds + 40 mixed
		t.Errorf("recorded %d jobs, want 44", lr.Jobs)
	}
	if lr.ColdJobs != 4 {
		t.Errorf("cold jobs %d, want the 4 seeds", lr.ColdJobs)
	}
	if lr.ThroughputJPS <= 0 || lr.DurationMS <= 0 {
		t.Errorf("degenerate throughput: %+v", lr)
	}
}

// A fleet that breaks the single-solve property (here: a replica whose
// store writes are invisible to the other, emulated by failing jobs) must
// fail -check.
func TestRunCheckFailsOnBrokenFleet(t *testing.T) {
	resetEditedAssayCache()
	ff := newFakeFleet(2)
	ff.failEvery = 5
	urls := startFakeFleet(t, ff)

	code := run(runConfig{
		replicas:  urls,
		benchmark: "PCR",
		unique:    2,
		jobs:      20,
		conc:      4,
		seed:      1,
		timeout:   10 * time.Second,
		check:     true,
	})
	if code == 0 {
		t.Fatal("run passed -check against a fleet with failing jobs")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if code := run(runConfig{unique: 0, conc: 1}); code != 2 {
		t.Errorf("unique=0 exited %d, want 2", code)
	}
	if code := run(runConfig{unique: 1, jobs: -1, conc: 1}); code != 2 {
		t.Errorf("n=-1 exited %d, want 2", code)
	}
}

func TestRunFailsOnUnhealthyReplica(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	cfg := runConfig{
		replicas: []string{ts.URL}, benchmark: "PCR",
		unique: 1, jobs: 0, conc: 1, timeout: time.Second,
	}
	if code := run(cfg); code != 1 {
		t.Errorf("unhealthy replica exited %d, want 1", code)
	}
}

// resetEditedAssayCache clears the process-wide edited-assay memoization so
// each test builds it fresh.
func resetEditedAssayCache() {
	editedAssayOnce = struct {
		sync.Once
		doc json.RawMessage
		err error
	}{}
}

// The harness health wait must tolerate a replica that comes up late.
func TestWaitHealthyRetries(t *testing.T) {
	var mu sync.Mutex
	healthy := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ok := healthy
		mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	go func() {
		time.Sleep(200 * time.Millisecond)
		mu.Lock()
		healthy = true
		mu.Unlock()
	}()
	f := newFleet(&http.Client{Timeout: 5 * time.Second}, []string{ts.URL}, time.Second, "PCR")
	if err := f.waitHealthy(0); err != nil {
		t.Fatalf("late-healthy replica not tolerated: %v", err)
	}
	if !strings.HasPrefix(f.replicas[0], "http://") {
		t.Fatalf("replica URL mangled: %q", f.replicas[0])
	}
}
