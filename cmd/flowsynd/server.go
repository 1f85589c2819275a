package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowsyn"
)

// server exposes one flowsyn.Solver session over HTTP/JSON:
//
//	POST /v1/jobs                      submit a synthesis job
//	GET  /v1/jobs/{id}                 job status + service metrics
//	GET  /v1/jobs/{id}/result          finished result document
//	GET  /v1/jobs/{id}/stream          progress events as SSE
//	POST /v1/jobs/{id}/resynthesize    incremental re-synthesis of an edit
//	POST /v1/jobs/{id}/recover         online recovery from an injected fault
//	GET  /v1/stats                     session counters
//	GET  /healthz                      liveness + drain state
type server struct {
	solver   *flowsyn.Solver
	started  time.Time
	draining atomic.Bool
	nextID   atomic.Uint64
	// retention drops finished job records this long after they end (the
	// count bound below still applies); 0 keeps them until the count cap.
	retention time.Duration

	// ctx is the server's lifetime context: every solver job is submitted
	// under it, so a drain cancels queued jobs and aborts running solves at
	// their next checkpoint instead of pinning the process past its drain
	// timeout.
	ctx    context.Context
	cancel context.CancelFunc

	mu sync.Mutex
	// jobs is bounded: once more than maxJobs records are tracked, the
	// oldest finished ones are evicted (running jobs are never dropped), so
	// a long-lived daemon does not pin every result ever produced.
	jobs    map[string]*jobRecord
	order   []string // insertion order, for eviction
	maxJobs int
}

// jobRecord tracks one submitted job and replays its progress events to any
// number of stream subscribers, late ones included.
type jobRecord struct {
	id     string
	name   string
	ticket *flowsyn.Ticket

	mu sync.Mutex
	// events is the bounded replay buffer: it holds the most recent
	// maxReplayEvents, and dropped counts those aged out of the front, so a
	// subscriber's absolute position keeps meaning (lost events appear as
	// Seq gaps, exactly like the solver's own overflow behavior).
	events  []flowsyn.Progress
	dropped int
	changed chan struct{} // replaced on every append; closed to broadcast
	ended   bool
	// finishedAt stamps the terminal event for retention-based eviction.
	finishedAt time.Time
}

// defaultMaxJobs bounds the tracked-job history of one daemon process.
const defaultMaxJobs = 1024

// maxReplayEvents bounds one job's SSE replay buffer: a long exact solve can
// emit thousands of incumbent events, and an unbounded replay buffer times
// the job history is an OOM waiting to happen.
const maxReplayEvents = 256

// reapInterval is how often the janitor scans for finished records past the
// retention horizon.
const reapInterval = 30 * time.Second

func newServer(solver *flowsyn.Solver, retention time.Duration) *server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		solver:    solver,
		started:   time.Now(),
		retention: retention,
		jobs:      make(map[string]*jobRecord),
		maxJobs:   defaultMaxJobs,
		ctx:       ctx,
		cancel:    cancel,
	}
	go s.janitor()
	return s
}

// janitor ages finished job records out of the history (server.retention)
// until the server's lifetime context ends.
func (s *server) janitor() {
	t := time.NewTicker(reapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.reapFinished(time.Now())
		}
	}
}

// reapFinished drops finished records whose terminal event is older than the
// retention horizon. Running or queued jobs are never dropped.
func (s *server) reapFinished(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retention <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		rec := s.jobs[id]
		rec.mu.Lock()
		stale := rec.ended && now.Sub(rec.finishedAt) > s.retention
		rec.mu.Unlock()
		if stale {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/jobs/{id}/resynthesize", s.handleResynthesize)
	mux.HandleFunc("POST /v1/jobs/{id}/recover", s.handleRecover)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// beginDrain stops accepting new jobs and cancels the server's lifetime
// context: queued jobs fail with context.Canceled at worker pickup and
// running solves abort at their next cancellation checkpoint.
func (s *server) beginDrain() {
	s.draining.Store(true)
	s.cancel()
}

// jobRequest is the submit payload: a built-in benchmark or an inline assay
// document, plus optional option overrides.
type jobRequest struct {
	Name string `json:"name,omitempty"`
	// Benchmark selects a built-in assay (PCR, IVD, CPA, RA30, RA70, RA100)
	// together with its paper options; Assay carries an inline sequencing
	// graph in the stable assay JSON schema. Exactly one must be set.
	Benchmark string          `json:"benchmark,omitempty"`
	Assay     json.RawMessage `json:"assay,omitempty"`
	Options   *jobOptions     `json:"options,omitempty"`
	// Tenant attributes the job for per-tenant quotas and admission
	// accounting; Priority orders admission (higher first, 0 normal);
	// DeadlineMS, if positive, sets the job deadline this many milliseconds
	// from submission (earliest-deadline-first within a priority class, and
	// the job expires if still queued past it).
	Tenant     string `json:"tenant,omitempty"`
	Priority   int    `json:"priority,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

// jobOptions mirrors flowsyn.Options with JSON-friendly field encodings;
// nil/omitted fields keep the benchmark or library defaults.
type jobOptions struct {
	Devices        *int   `json:"devices,omitempty"`
	Transport      *int   `json:"transport,omitempty"`
	GridRows       *int   `json:"grid_rows,omitempty"`
	GridCols       *int   `json:"grid_cols,omitempty"`
	Objective      string `json:"objective,omitempty"` // "time+storage" (default) | "time"
	Engine         string `json:"engine,omitempty"`    // "auto" (default) | "heuristic" | "exact-ilp"
	ILPTimeLimitMS *int64 `json:"ilp_time_limit_ms,omitempty"`
	ModelIO        *bool  `json:"model_io,omitempty"`
	Verify         *bool  `json:"verify,omitempty"`
	Storage        string `json:"storage,omitempty"`     // "distributed" (default) | "dedicated" | "hybrid"
	CacheSlots     *int   `json:"cache_slots,omitempty"` // hybrid channel-cache slots (0 = default)
	Eviction       string `json:"eviction,omitempty"`    // hybrid eviction: "lru" | "earliest-next-fetch"
}

func (o *jobOptions) apply(base flowsyn.Options) (flowsyn.Options, error) {
	if o == nil {
		return base, nil
	}
	if o.Devices != nil {
		base.Devices = *o.Devices
	}
	if o.Transport != nil {
		base.Transport = *o.Transport
	}
	if o.GridRows != nil {
		base.GridRows = *o.GridRows
	}
	if o.GridCols != nil {
		base.GridCols = *o.GridCols
	}
	switch o.Objective {
	case "", "time+storage":
	case "time":
		base.Objective = flowsyn.MinimizeTimeOnly
	default:
		return base, fmt.Errorf("unknown objective %q (want \"time+storage\" or \"time\")", o.Objective)
	}
	switch o.Engine {
	case "", "auto":
	case "heuristic":
		base.Engine = flowsyn.HeuristicEngine
	case "exact-ilp":
		base.Engine = flowsyn.ILPEngine
	default:
		return base, fmt.Errorf("unknown engine %q (want \"auto\", \"heuristic\" or \"exact-ilp\")", o.Engine)
	}
	if o.ILPTimeLimitMS != nil {
		base.ILPTimeLimit = time.Duration(*o.ILPTimeLimitMS) * time.Millisecond
	}
	if o.ModelIO != nil {
		base.ModelIO = *o.ModelIO
	}
	if o.Verify != nil {
		base.Verify = *o.Verify
	}
	if o.Storage != "" {
		pol, err := flowsyn.ParseStoragePolicy(o.Storage)
		if err != nil {
			return base, err
		}
		base.Storage = pol
	}
	if o.CacheSlots != nil {
		base.CacheSlots = *o.CacheSlots
	}
	if o.Eviction != "" {
		base.Eviction = o.Eviction
	}
	return base, nil
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeSubmitError(w, http.StatusServiceUnavailable, "daemon draining, not accepting jobs")
		return
	}
	var req jobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	rec, status, err := s.submit(req)
	if err != nil {
		s.writeSubmitError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, s.submitResponse(rec))
}

func (s *server) submitResponse(rec *jobRecord) map[string]any {
	return map[string]any{
		"id":     rec.id,
		"name":   rec.name,
		"status": "/v1/jobs/" + rec.id,
		"result": "/v1/jobs/" + rec.id + "/result",
		"stream": "/v1/jobs/" + rec.id + "/stream",
	}
}

func (s *server) submit(req jobRequest) (*jobRecord, int, error) {
	job, err := req.job()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.DeadlineMS > 0 {
		job.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	ticket, err := s.solver.Submit(s.ctx, job)
	if err != nil {
		return nil, submitErrorStatus(err), err
	}
	return s.track(ticket), 0, nil
}

// job resolves the request's assay and options into a job, without its
// deadline.
func (req jobRequest) job() (flowsyn.Job, error) {
	var (
		a    *flowsyn.Assay
		opts flowsyn.Options
		err  error
	)
	switch {
	case req.Benchmark != "" && len(req.Assay) > 0:
		return flowsyn.Job{}, errors.New("set either benchmark or assay, not both")
	case req.Benchmark != "":
		a, opts, err = flowsyn.Benchmark(req.Benchmark)
		if err != nil {
			return flowsyn.Job{}, err
		}
	case len(req.Assay) > 0:
		a, err = flowsyn.ReadAssay(bytes.NewReader(req.Assay))
		if err != nil {
			return flowsyn.Job{}, err
		}
	default:
		return flowsyn.Job{}, errors.New("missing assay: set benchmark or assay")
	}
	if opts, err = req.Options.apply(opts); err != nil {
		return flowsyn.Job{}, err
	}
	return flowsyn.Job{
		Name:     req.Name,
		Assay:    a,
		Options:  opts,
		Tenant:   req.Tenant,
		Priority: req.Priority,
	}, nil
}

func submitErrorStatus(err error) int {
	var oe *flowsyn.OptionError
	switch {
	case errors.As(err, &oe):
		return http.StatusBadRequest
	case errors.Is(err, flowsyn.ErrQueueFull), errors.Is(err, flowsyn.ErrTenantQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, flowsyn.ErrSolverClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// retryAfterSeconds estimates when admission pressure should have cleared:
// the current queue times the observed mean cold solve wall, clamped to
// [1s, 60s]. Advisory — clients may retry sooner.
func (s *server) retryAfterSeconds() int {
	st := s.solver.Stats()
	avgMS := 100.0 // optimistic default before any cold solve finished
	if st.ColdWall.Count > 0 {
		avgMS = st.ColdWall.SumMS / float64(st.ColdWall.Count)
	}
	secs := int(float64(st.Queued)*avgMS/1000 + 0.5)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// writeSubmitError writes an admission failure, attaching Retry-After on
// overload statuses (429/503) so well-behaved clients back off usefully.
func (s *server) writeSubmitError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
	}
	writeError(w, status, msg)
}

// track registers a ticket and starts its event pump.
func (s *server) track(ticket *flowsyn.Ticket) *jobRecord {
	rec := &jobRecord{
		id:      fmt.Sprintf("job-%d", s.nextID.Add(1)),
		name:    ticket.Name(),
		ticket:  ticket,
		changed: make(chan struct{}),
	}
	s.mu.Lock()
	s.jobs[rec.id] = rec
	s.order = append(s.order, rec.id)
	s.evictLocked()
	s.mu.Unlock()
	go rec.pump()
	return rec
}

// evictLocked drops the oldest finished records once the history bound is
// exceeded. Running or queued jobs are never dropped — they stay addressable
// until they terminate and age out.
func (s *server) evictLocked() {
	if len(s.jobs) <= s.maxJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		rec := s.jobs[id]
		finished := false
		select {
		case <-rec.ticket.Done():
			finished = true
		default:
		}
		if finished && len(s.jobs) > s.maxJobs {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// pump drains the ticket's event stream into the bounded replay buffer,
// aging the oldest events out of the front once it is full.
func (r *jobRecord) pump() {
	for e := range r.ticket.Events() {
		r.mu.Lock()
		r.appendEvent(e)
		close(r.changed)
		r.changed = make(chan struct{})
		r.mu.Unlock()
	}
	r.mu.Lock()
	r.ended = true
	r.finishedAt = time.Now()
	close(r.changed)
	r.changed = make(chan struct{})
	r.mu.Unlock()
}

// appendEvent adds one event to the bounded replay buffer, aging the oldest
// out of the front once it is full. Compaction copies into a fresh backing
// array so snapshot slices handed to stream readers outside the lock stay
// valid. Caller holds r.mu.
func (r *jobRecord) appendEvent(e flowsyn.Progress) {
	r.events = append(r.events, e)
	if len(r.events) > maxReplayEvents {
		over := len(r.events) - maxReplayEvents
		r.events = append(r.events[:0:0], r.events[over:]...)
		r.dropped += over
	}
}

func (s *server) record(r *http.Request) *jobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[r.PathValue("id")]
}

// state summarizes a job's lifecycle for the status document.
func (r *jobRecord) state() string {
	select {
	case <-r.ticket.Done():
		if _, err := r.ticket.Result(); err != nil {
			return "failed"
		}
		return "done"
	default:
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.events {
		if e.Kind != flowsyn.ProgressQueued {
			return "running"
		}
	}
	return "queued"
}

func jobStatsJSON(js flowsyn.JobStats) map[string]any {
	return map[string]any{
		"queue_wait_ms":      float64(js.QueueWait.Microseconds()) / 1e3,
		"runtime_ms":         float64(js.Runtime.Microseconds()) / 1e3,
		"cache_hit":          js.CacheHit,
		"schedule_cache_hit": js.ScheduleCacheHit,
		"coalesced":          js.Coalesced,
		"store_hit":          js.StoreHit,
		"lease_wait_ms":      float64(js.LeaseWait.Microseconds()) / 1e3,
		"events":             js.Events,
		"dropped_events":     js.DroppedEvents,
		"reused_ops":         js.ReusedOps,
		"edited_ops":         js.EditedOps,
	}
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r)
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	doc := map[string]any{
		"id":    rec.id,
		"name":  rec.name,
		"state": rec.state(),
	}
	if res, err := rec.ticket.Result(); err == nil {
		doc["summary"] = res.Summary()
		doc["stats"] = jobStatsJSON(rec.ticket.Stats())
	} else if !errors.Is(err, flowsyn.ErrJobPending) {
		doc["error"] = err.Error()
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r)
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	res, err := rec.ticket.Result()
	switch {
	case errors.Is(err, flowsyn.ErrJobPending):
		writeError(w, http.StatusConflict, "job still "+rec.state())
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"id": rec.id, "state": "failed", "error": err.Error(),
		})
		return
	}
	dr, de, dp := res.ChipDimensions()
	doc := map[string]any{
		"id":               rec.id,
		"name":             rec.name,
		"state":            "done",
		"summary":          res.Summary(),
		"makespan_s":       res.Makespan(),
		"stores":           res.StoreCount(),
		"storage_capacity": res.StorageCapacity(),
		"transports":       res.Transports(),
		"channel_segments": res.ChannelSegments(),
		"valves":           res.Valves(),
		"edge_ratio":       res.EdgeRatio(),
		"valve_ratio":      res.ValveRatio(),
		"dimensions":       map[string]string{"after_synthesis": dr, "after_devices": de, "compressed": dp},
		"verified":         res.Verified(),
		"stats":            jobStatsJSON(rec.ticket.Stats()),
	}
	if pol := res.StoragePolicy(); pol != flowsyn.DistributedStorage {
		doc["storage"] = map[string]any{
			"strategy":           pol.String(),
			"unit_stores":        res.UnitStoreCount(),
			"unit_cells":         res.UnitCells(),
			"unit_valves":        res.UnitValves(),
			"port_queue_delay_s": res.UnitQueueDelay(),
		}
	}
	if rs := res.Recovery(); rs != nil {
		doc["recovery"] = map[string]any{
			"fault":               rs.Fault.String(),
			"preserved_ops":       rs.PreservedOps,
			"preserved_routes":    rs.PreservedRoutes,
			"rerouted_transports": rs.ReroutedTransports,
			"old_makespan_s":      rs.OldMakespan,
			"new_makespan_s":      rs.NewMakespan,
			"makespan_delta_s":    rs.MakespanDelta,
		}
	}
	var stages []map[string]any
	for _, st := range res.StageTimings() {
		stages = append(stages, map[string]any{
			"stage": st.Name, "ms": float64(st.Duration.Microseconds()) / 1e3,
		})
	}
	doc["stage_timings"] = stages
	if sv := res.SolverStats(); sv != nil {
		doc["solver"] = map[string]any{
			"status":          sv.Status,
			"objective":       sv.Objective,
			"nodes":           sv.Nodes,
			"iterations":      sv.Iterations,
			"warm_start_rate": sv.WarmStartRate,
			"gap":             sv.Gap,
			"kernel":          sv.Kernel,
			"workers":         sv.Workers,
			"runtime_ms":      float64(sv.Runtime.Microseconds()) / 1e3,
			"winner":          sv.Winner,
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleStream serves the job's progress events as server-sent events,
// replaying the full history for late subscribers and following live until
// the terminal done/failed event.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r)
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// idx is the subscriber's absolute stream position; the replay buffer is
	// bounded, so a slow subscriber may find its position aged out and skips
	// forward (Seq gaps mark the lost events, as in the solver's own stream).
	idx := 0
	for {
		rec.mu.Lock()
		start := idx - rec.dropped
		if start < 0 {
			idx = rec.dropped
			start = 0
		}
		pending := rec.events[start:]
		ch := rec.changed
		ended := rec.ended
		rec.mu.Unlock()

		for _, e := range pending {
			data, err := json.Marshal(map[string]any{
				"seq":       e.Seq,
				"kind":      e.Kind,
				"time":      e.Time.UTC().Format(time.RFC3339Nano),
				"stage":     e.Stage,
				"ms":        float64(e.Duration.Microseconds()) / 1e3,
				"makespan":  e.Makespan,
				"objective": e.Objective,
				"nodes":     e.Nodes,
				"gap":       e.Gap,
				"error":     e.Err,
			})
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Kind, data)
		}
		idx += len(pending)
		fl.Flush()
		if ended && len(pending) == 0 {
			return
		}
		if !ended && len(pending) == 0 {
			select {
			case <-ch:
			case <-r.Context().Done():
				return
			}
		}
	}
}

func (s *server) handleResynthesize(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "daemon draining, not accepting jobs")
		return
	}
	rec := s.record(r)
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	var req struct {
		Assay json.RawMessage `json:"assay"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	if len(req.Assay) == 0 {
		writeError(w, http.StatusBadRequest, "missing edited assay")
		return
	}
	edited, err := flowsyn.ReadAssay(bytes.NewReader(req.Assay))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ticket, err := s.solver.Resynthesize(s.ctx, rec.ticket, edited)
	if err != nil {
		status := http.StatusConflict // prior unfinished/failed
		if errors.Is(err, flowsyn.ErrQueueFull) || errors.Is(err, flowsyn.ErrTenantQuota) || errors.Is(err, flowsyn.ErrSolverClosed) {
			status = submitErrorStatus(err)
		}
		s.writeSubmitError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, s.submitResponse(s.track(ticket)))
}

// faultRequest is the recover payload: one mid-execution fault to inject
// into a finished job's execution.
type faultRequest struct {
	Kind    string `json:"kind"` // "device" | "channel" | "storage"
	Time    int    `json:"time"` // injection instant, seconds from assay start
	Device  int    `json:"device,omitempty"`
	Channel int    `json:"channel,omitempty"`
}

func (f faultRequest) fault() (flowsyn.Fault, error) {
	out := flowsyn.Fault{Time: f.Time, Device: f.Device, Channel: f.Channel}
	switch f.Kind {
	case "device":
		out.Kind = flowsyn.DeviceFault
	case "channel":
		out.Kind = flowsyn.ChannelFault
	case "storage":
		out.Kind = flowsyn.StorageFault
	default:
		return out, fmt.Errorf("unknown fault kind %q (want \"device\", \"channel\" or \"storage\")", f.Kind)
	}
	return out, nil
}

// handleRecover injects a fault into a finished job's execution and submits
// the online re-synthesis of its suffix (see flowsyn.Solver.Recover). The
// response is a fresh trackable job; its result document carries a
// "recovery" block with the preservation and makespan metrics.
func (s *server) handleRecover(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "daemon draining, not accepting jobs")
		return
	}
	rec := s.record(r)
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	var req faultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	fault, err := req.fault()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ticket, err := s.solver.Recover(s.ctx, rec.ticket, fault)
	if err != nil {
		status := http.StatusBadRequest // fault rejected against the prior plan
		switch {
		case errors.Is(err, flowsyn.ErrJobPending):
			status = http.StatusConflict
		case errors.Is(err, flowsyn.ErrQueueFull), errors.Is(err, flowsyn.ErrTenantQuota), errors.Is(err, flowsyn.ErrSolverClosed):
			status = submitErrorStatus(err)
		}
		s.writeSubmitError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, s.submitResponse(s.track(ticket)))
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.solver.Stats()
	s.mu.Lock()
	tracked := len(s.jobs)
	s.mu.Unlock()
	doc := map[string]any{
		"uptime_s":             time.Since(s.started).Seconds(),
		"draining":             s.draining.Load(),
		"jobs_tracked":         tracked,
		"submitted":            st.Submitted,
		"completed":            st.Completed,
		"failed":               st.Failed,
		"expired":              st.Expired,
		"result_cache_hits":    st.ResultCacheHits,
		"result_cache_misses":  st.ResultCacheMisses,
		"schedule_cache_hits":  st.ScheduleCacheHits,
		"schedule_solves":      st.ScheduleSolves,
		"store_hits":           st.StoreHits,
		"store_puts":           st.StorePuts,
		"store_errors":         st.StoreErrors,
		"lease_waits":          st.LeaseWaits,
		"lease_wait_total_ms":  float64(st.LeaseWaitTotal.Microseconds()) / 1e3,
		"coalesced":            st.Coalesced,
		"in_flight":            st.InFlight,
		"queued":               st.Queued,
		"events_dropped":       st.EventsDropped,
		"cold_solves_observed": st.ColdWall.Count,
		"warm_serves_observed": st.WarmWall.Count,
	}
	if len(st.Tenants) > 0 {
		tenants := make(map[string]any, len(st.Tenants))
		for name, ts := range st.Tenants {
			if name == "" {
				name = "default"
			}
			tenants[name] = map[string]any{
				"admitted":       ts.Admitted,
				"rejected_quota": ts.RejectedQuota,
				"rejected_full":  ts.RejectedFull,
				"completed":      ts.Completed,
				"failed":         ts.Failed,
				"expired":        ts.Expired,
				"queued":         ts.Queued,
			}
		}
		doc["tenants"] = tenants
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"draining": s.draining.Load(),
	})
}

func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": strings.TrimSpace(msg)})
}
