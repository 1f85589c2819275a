package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flowsyn/internal/seqgraph"
	"flowsyn/internal/store"
)

func openFleetStore(t *testing.T, dir string) *store.Disk {
	t.Helper()
	d, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFleetSolvesOnce is the distributed acceptance property: N replicas
// sharing one persistent store perform exactly one cold engine solve per
// unique (assay, options) key fleet-wide — every other replica serves the
// key from the store.
func TestFleetSolvesOnce(t *testing.T) {
	dir := t.TempDir()
	job := pcrJob(t)

	const replicas = 3
	solvers := make([]*Solver, replicas)
	for i := range solvers {
		solvers[i] = New(Config{Workers: 2, Store: openFleetStore(t, dir)})
	}
	defer func() {
		for _, s := range solvers {
			s.Close()
		}
	}()

	// Run the key through every replica sequentially: the first solves cold,
	// the rest must load the published schedule.
	var makespans []int
	for _, s := range solvers {
		res := mustWait(t, submitOK(t, s, job))
		makespans = append(makespans, res.Schedule.Makespan)
	}
	for i, m := range makespans {
		if m != makespans[0] {
			t.Fatalf("replica %d makespan %d != replica 0 makespan %d", i, m, makespans[0])
		}
	}

	var solves, storeHits, puts int64
	for _, s := range solvers {
		st := s.Stats()
		solves += st.ScheduleSolves
		storeHits += st.StoreHits
		puts += st.StorePuts
	}
	if solves != 1 {
		t.Errorf("fleet performed %d cold solves for one unique key, want exactly 1", solves)
	}
	if storeHits != replicas-1 {
		t.Errorf("store hits: got %d want %d", storeHits, replicas-1)
	}
	if puts != 1 {
		t.Errorf("store puts: got %d want 1", puts)
	}
}

// TestFleetConcurrentReplicas races replicas on one cold key: the store
// lease must serialize them so only one engine solve runs fleet-wide.
func TestFleetConcurrentReplicas(t *testing.T) {
	dir := t.TempDir()
	job := pcrJob(t)

	const replicas = 4
	solvers := make([]*Solver, replicas)
	for i := range solvers {
		solvers[i] = New(Config{Workers: 1, Store: openFleetStore(t, dir)})
	}
	defer func() {
		for _, s := range solvers {
			s.Close()
		}
	}()

	tickets := make([]*Ticket, replicas)
	for i, s := range solvers {
		tickets[i] = submitOK(t, s, job)
	}
	base := mustWait(t, tickets[0])
	for _, tk := range tickets[1:] {
		res := mustWait(t, tk)
		if res.Schedule.Makespan != base.Schedule.Makespan {
			t.Fatalf("racing replicas disagree on makespan: %d vs %d",
				res.Schedule.Makespan, base.Schedule.Makespan)
		}
	}

	var solves int64
	for _, s := range solvers {
		solves += s.Stats().ScheduleSolves
	}
	if solves != 1 {
		t.Errorf("racing fleet performed %d cold solves, want exactly 1", solves)
	}
}

// TestRestartStartsWarm: a fresh session over a populated store serves its
// first job without an engine solve.
func TestRestartStartsWarm(t *testing.T) {
	dir := t.TempDir()
	job := pcrJob(t)

	s1 := New(Config{Workers: 1, Store: openFleetStore(t, dir)})
	cold := mustWait(t, submitOK(t, s1, job))
	s1.Close()

	s2 := New(Config{Workers: 1, Store: openFleetStore(t, dir)})
	defer s2.Close()
	warm := mustWait(t, submitOK(t, s2, job))
	if !warm.Service.StoreHit {
		t.Fatalf("restarted session should serve from the store, metrics %+v", warm.Service)
	}
	if warm.Schedule.Makespan != cold.Schedule.Makespan {
		t.Errorf("store-served makespan %d != cold %d", warm.Schedule.Makespan, cold.Schedule.Makespan)
	}
	if st := s2.Stats(); st.ScheduleSolves != 0 || st.StoreHits != 1 {
		t.Errorf("restarted session counters: %+v", st)
	}
}

// TestCorruptStoreEntryResolves: a damaged store entry is a miss — the job
// re-solves and republishes instead of failing or serving garbage.
func TestCorruptStoreEntryResolves(t *testing.T) {
	dir := t.TempDir()
	job := pcrJob(t)

	s1 := New(Config{Workers: 1, Store: openFleetStore(t, dir)})
	cold := mustWait(t, submitOK(t, s1, job))
	s1.Close()

	// Vandalize every entry file in the store.
	damaged := 0
	if err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		damaged++
		return os.WriteFile(path, []byte("{torn"), 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	if damaged == 0 {
		t.Fatal("no store entries written by the cold solve")
	}

	s2 := New(Config{Workers: 1, Store: openFleetStore(t, dir)})
	defer s2.Close()
	res := mustWait(t, submitOK(t, s2, job))
	if res.Service.StoreHit {
		t.Error("corrupt entry must not serve as a store hit")
	}
	if res.Schedule.Makespan != cold.Schedule.Makespan {
		t.Errorf("re-solved makespan %d != original %d", res.Schedule.Makespan, cold.Schedule.Makespan)
	}
	st := s2.Stats()
	if st.ScheduleSolves != 1 {
		t.Errorf("damaged store should force exactly one re-solve, got %d", st.ScheduleSolves)
	}
	if st.StorePuts != 1 {
		t.Errorf("re-solve should republish the entry, puts %d", st.StorePuts)
	}
}

// TestSchedPayloadRoundTrip: encode/decode preserves the schedule and the
// headline solver diagnostics, rebuilt against the job's own graph.
func TestSchedPayloadRoundTrip(t *testing.T) {
	job := pcrJob(t)
	s := New(Config{Workers: 1, CacheEntries: -1})
	res := mustWait(t, submitOK(t, s, job))
	s.Close()

	se := &schedEntry{s: res.Schedule, info: res.SchedInfo}
	payload, err := encodeSchedEntry(se)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSchedEntry(payload, job.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if got.s.Makespan != res.Schedule.Makespan {
		t.Errorf("makespan: got %d want %d", got.s.Makespan, res.Schedule.Makespan)
	}
	if got.s.Devices != res.Schedule.Devices || got.s.Transport != res.Schedule.Transport {
		t.Errorf("chip params: got d%d u%d want d%d u%d",
			got.s.Devices, got.s.Transport, res.Schedule.Devices, res.Schedule.Transport)
	}
	for id, a := range got.s.Assignments {
		if want := res.Schedule.Assignments[id]; a != want {
			t.Errorf("op %d assignment: got %+v want %+v", id, a, want)
		}
	}
	if len(got.s.DepartOffsets) != len(res.Schedule.DepartOffsets) {
		t.Errorf("departs: got %d want %d", len(got.s.DepartOffsets), len(res.Schedule.DepartOffsets))
	}
	if res.SchedInfo != nil {
		if got.info == nil {
			t.Fatal("solver info lost in round trip")
		}
		if got.info.Status != res.SchedInfo.Status || got.info.Winner != res.SchedInfo.Winner {
			t.Errorf("info: got %+v want %+v", got.info, res.SchedInfo)
		}
	}
}

// TestSchedPayloadRejectsWrongGraph: decoding against a graph the payload
// was not solved for must fail, not mis-assign operations.
func TestSchedPayloadRejectsWrongGraph(t *testing.T) {
	job := pcrJob(t)
	s := New(Config{Workers: 1, CacheEntries: -1})
	res := mustWait(t, submitOK(t, s, job))
	s.Close()

	payload, err := encodeSchedEntry(&schedEntry{s: res.Schedule, info: res.SchedInfo})
	if err != nil {
		t.Fatal(err)
	}
	other := seqgraph.New("other")
	other.MustAddOperation("alone", seqgraph.Mix, 3, 2)
	if _, err := decodeSchedEntry(payload, other); err == nil {
		t.Fatal("decode against a foreign graph must fail")
	}
}

// TestDuplicateNameGraphSkipsStore: graphs whose op names alias cannot
// round-trip through the name-keyed payload and must bypass the store
// (still solving correctly).
func TestDuplicateNameGraphSkipsStore(t *testing.T) {
	g := seqgraph.New("dup")
	a := g.MustAddOperation("op", seqgraph.Mix, 3, 2)
	b := g.MustAddOperation("op", seqgraph.Mix, 4, 2)
	g.MustAddDependency(a, b)
	if !hasDuplicateNames(g) {
		t.Fatal("graph with aliased names not detected")
	}

	s := New(Config{Workers: 1, Store: openFleetStore(t, t.TempDir())})
	defer s.Close()
	res := mustWait(t, submitOK(t, s, Job{Graph: g, Options: pcrJob(t).Options}))
	if res.Schedule == nil {
		t.Fatal("dup-name assay failed to solve")
	}
	if st := s.Stats(); st.StorePuts != 0 || st.StoreHits != 0 {
		t.Errorf("dup-name graph must bypass the store: %+v", st)
	}
}

// gateStore is a test double whose cold path blocks: while the gate is
// closed, Get misses and Claim reports a foreign lease, so any job reaching
// the store spins (cancellably) in the lease-wait loop. It gives the
// admission tests a deterministic way to occupy a worker for as long as
// they need.
type gateStore struct {
	mu      sync.Mutex
	open    bool
	entries map[string][]byte
}

type gateLease struct{}

func (gateLease) Release() {}

func newGateStore() *gateStore { return &gateStore{entries: map[string][]byte{}} }

func (g *gateStore) unblock() {
	g.mu.Lock()
	g.open = true
	g.mu.Unlock()
}

func (g *gateStore) Get(key string) ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if payload, ok := g.entries[key]; ok && g.open {
		return payload, nil
	}
	return nil, store.ErrNotFound
}

func (g *gateStore) Put(key string, payload []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entries[key] = payload
	return nil
}

func (g *gateStore) Claim(key, owner string) (store.Lease, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.open {
		return nil, store.ErrLeaseHeld
	}
	return gateLease{}, nil
}

func (g *gateStore) Close() error { return nil }

// blockWorker submits a job that parks in the gate's lease-wait loop,
// occupying one worker until the gate opens (or ctx is cancelled), and waits
// until the worker has actually picked it up.
func blockWorker(t *testing.T, s *Solver, ctx context.Context) *Ticket {
	t.Helper()
	tk, err := s.Submit(ctx, pcrJob(t))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker job never picked up")
		}
		time.Sleep(time.Millisecond)
	}
	return tk
}

// TestPriorityOrdering: with the single worker parked, queued jobs start in
// priority order — highest class first, FIFO within a class, negative
// classes last.
func TestPriorityOrdering(t *testing.T) {
	gate := newGateStore()
	s := New(Config{Workers: 1, Store: gate})
	defer s.Close()

	blockCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocker := blockWorker(t, s, blockCtx)

	jobs := []struct {
		name string
		prio int
	}{
		{"bulk-1", 0},
		{"bulk-2", 0},
		{"urgent", 5},
		{"background", -5},
	}
	tickets := make([]*Ticket, len(jobs))
	for i, j := range jobs {
		job := pcrJob(t)
		job.Name = j.name
		job.Priority = j.prio
		// Distinct transport time per job: distinct cache keys, so the jobs
		// run independently instead of coalescing on one flight.
		job.Options.Transport = 11 + i
		tickets[i] = submitOK(t, s, job)
	}

	gate.unblock()
	mustWait(t, blocker)
	started := map[string]time.Time{}
	for _, tk := range tickets {
		mustWait(t, tk)
		for e := range tk.Events() {
			if e.Kind == EventStarted {
				started[tk.Name] = e.Time
			}
		}
	}
	order := []string{"urgent", "bulk-1", "bulk-2", "background"}
	for i := 0; i+1 < len(order); i++ {
		a, b := order[i], order[i+1]
		if !started[a].Before(started[b]) {
			t.Fatalf("%s (started %v) should run before %s (started %v)",
				a, started[a], b, started[b])
		}
	}
}

// TestTenantQuota: one tenant saturating its quota is refused while another
// tenant still submits freely.
func TestTenantQuota(t *testing.T) {
	gate := newGateStore()
	s := New(Config{Workers: 1, TenantQueue: 2, Store: gate})
	defer s.Close()

	blockCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocker := blockWorker(t, s, blockCtx)

	greedy := pcrJob(t)
	greedy.Tenant = "greedy"
	var accepted []*Ticket
	for i := 0; i < 2; i++ {
		job := greedy
		job.Options.Transport = 11 + i
		tk, err := s.Submit(context.Background(), job)
		if err != nil {
			t.Fatalf("submit %d within quota: %v", i, err)
		}
		accepted = append(accepted, tk)
	}
	if _, err := s.Submit(context.Background(), greedy); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota submit: want ErrTenantQuota, got %v", err)
	}

	polite := pcrJob(t)
	polite.Tenant = "polite"
	pt, err := s.Submit(context.Background(), polite)
	if err != nil {
		t.Fatalf("other tenant should be unaffected: %v", err)
	}

	gate.unblock()
	mustWait(t, blocker)
	for _, tk := range accepted {
		mustWait(t, tk)
	}
	mustWait(t, pt)

	st := s.Stats()
	g := st.Tenants["greedy"]
	if g.Admitted != 2 || g.RejectedQuota != 1 || g.Queued != 0 {
		t.Errorf("greedy tenant counters: %+v", g)
	}
	if p := st.Tenants["polite"]; p.Admitted != 1 || p.RejectedQuota != 0 {
		t.Errorf("polite tenant counters: %+v", p)
	}
	if g.Completed != 2 {
		t.Errorf("greedy completions: %+v", g)
	}
}

// TestJobTTLEviction: jobs stuck in the queue past the TTL are evicted with
// ErrExpired instead of running.
func TestJobTTLEviction(t *testing.T) {
	gate := newGateStore()
	s := New(Config{Workers: 1, JobTTL: 30 * time.Millisecond, Store: gate})
	defer s.Close()

	blockCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocker := blockWorker(t, s, blockCtx)

	late := pcrJob(t)
	late.Options.Transport = 11
	lateTk := submitOK(t, s, late)
	time.Sleep(60 * time.Millisecond) // let the TTL pass while queued

	gate.unblock()
	mustWait(t, blocker)
	if _, err := lateTk.Wait(context.Background()); !errors.Is(err, ErrExpired) {
		t.Fatalf("stale job: want ErrExpired, got %v", err)
	}
	st := s.Stats()
	if st.Expired != 1 {
		t.Errorf("expired counter: got %d want 1", st.Expired)
	}
	if st.Tenants[""].Expired != 1 {
		t.Errorf("tenant expired counter: %+v", st.Tenants[""])
	}
}

// TestDeadlineEviction: a queued job whose deadline passes is evicted, and
// the blocker itself (no deadline) still completes.
func TestDeadlineEviction(t *testing.T) {
	gate := newGateStore()
	s := New(Config{Workers: 1, Store: gate})
	defer s.Close()

	blockCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocker := blockWorker(t, s, blockCtx)

	job := pcrJob(t)
	job.Options.Transport = 11
	job.Deadline = time.Now().Add(20 * time.Millisecond)
	late := submitOK(t, s, job)
	time.Sleep(50 * time.Millisecond)

	gate.unblock()
	mustWait(t, blocker)
	if _, err := late.Wait(context.Background()); !errors.Is(err, ErrExpired) {
		t.Fatalf("deadline-passed job: want ErrExpired, got %v", err)
	}
}

// TestLeaseWaitCancellable: a job parked on a foreign lease honors its
// context instead of spinning forever.
func TestLeaseWaitCancellable(t *testing.T) {
	gate := newGateStore() // never opened: the lease is "held" forever
	s := New(Config{Workers: 1, Store: gate})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	tk := blockWorker(t, s, ctx)
	// Cancel only once the job is parked on the lease: a job picked up but
	// cancelled before its first claim returns without ever waiting.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().LeaseWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker job never parked on the lease")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("parked job: want context.Canceled, got %v", err)
	}
	st := s.Stats()
	if st.LeaseWaits != 1 {
		t.Errorf("lease-wait counter: got %d want 1", st.LeaseWaits)
	}
	if st.LeaseWaitTotal <= 0 {
		t.Errorf("lease wait total not accounted: %v", st.LeaseWaitTotal)
	}
}

// TestWallHistograms: cold and warm serves land in their histograms.
func TestWallHistograms(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	job := pcrJob(t)
	mustWait(t, submitOK(t, s, job))
	mustWait(t, submitOK(t, s, job))

	st := s.Stats()
	if st.ColdWall.Count != 1 {
		t.Errorf("cold histogram count: got %d want 1", st.ColdWall.Count)
	}
	if st.WarmWall.Count != 1 {
		t.Errorf("warm histogram count: got %d want 1", st.WarmWall.Count)
	}
	var coldBuckets int64
	for _, c := range st.ColdWall.Counts {
		coldBuckets += c
	}
	if coldBuckets != st.ColdWall.Count {
		t.Errorf("cold histogram buckets sum %d != count %d", coldBuckets, st.ColdWall.Count)
	}
}
