package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowsyn"
)

// Request kinds of the serve workload.
type reqKind int

const (
	reqCold     reqKind = iota // a key no replica has seen
	reqResubmit                // the same key again, on either replica
	reqGrid                    // a seen key on a grid one row and column larger
	reqRecover                 // a fault injected into a seen key's chip
	reqResynth                 // a one-op edit of a seen key's assay
)

// mixPercent is the serve request mix by kind, in reqKind order, in
// multiples of mixUnit.
var mixPercent = [...]int{20, 45, 20, 10, 5}

const mixUnit = 5

// Serve plan sizing: the plan holds servePerSecond requests per measured
// second, so a run takes about cfg.Seconds on the reference machine and
// always completes the same requests. maxSlowdown bounds a run on a slower
// program: clients stop taking requests after that many times cfg.Seconds.
const (
	servePerSecond = 100
	maxSlowdown    = 4
	replicas       = 2
	// serveRunSize is the run length of the cost order each class's cold
	// keys walk (see costOrder).
	serveRunSize = 3
)

// key is one (assay, options) synthesis key of the serve plan.
type key struct {
	Spec        *spec
	Opts        flowsyn.Options
	Assay       *flowsyn.Assay
	Bound       int
	Edited      *flowsyn.Assay
	EditedBound int
	EditedOps   int
	Home        int // replica its cold request goes to

	ready  chan struct{} // closed once the cold request finished
	ticket *flowsyn.Ticket
	chip   chip
	err    error
}

type request struct {
	Kind    reqKind
	Key     int
	Replica int
}

// servePlan generates the whole request plan from the seed before any
// request is sent: which requests are cold, and which seen key each
// resubmit, grid variant, recovery and edit targets. Cold keys alternate
// between the two classes, each walking its vetted (assay, configuration)
// pairs in cost order (see costOrder); a key met again after its class ran
// out differs by the ILP time limit, which no vetted solve reaches.
func servePlan(seed int64, n int) ([]request, []*key, error) {
	r := rand.New(rand.NewSource(seed))
	type combo struct {
		s   *spec
		cfg int
	}
	var pools [2][]combo
	for ci, c := range []Class{Exact, Large} {
		specs, err := corpus(c)
		if err != nil {
			return nil, nil, err
		}
		var all []combo
		var costs []int
		for _, s := range specs {
			for cfg := range configs {
				if s.Serve&(1<<cfg) != 0 {
					all = append(all, combo{s, cfg})
					costs = append(costs, s.Cost/popcount(s.Mask))
				}
			}
		}
		order, _ := costOrder(costs, serveRunSize, r)
		for _, i := range order {
			pools[ci] = append(pools[ci], all[i])
		}
	}
	assays := map[*spec]*key{} // per-spec assays, shared by its keys
	var used [2]int
	plan := make([]request, 0, n)
	var keys []*key
	// Kinds are dealt from shuffled decks that hold the mix exactly, so
	// every plan has the same share of each kind.
	var deck []reqKind
	for len(plan) < n {
		if len(deck) == 0 {
			for kind, share := range mixPercent {
				for range share / mixUnit {
					deck = append(deck, reqKind(kind))
				}
			}
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		kind := deck[0]
		deck = deck[1:]
		if len(keys) == 0 {
			kind = reqCold // nothing to revisit yet
		}
		if kind != reqCold {
			k := r.Intn(len(keys))
			rep := keys[k].Home
			if kind == reqResubmit || kind == reqGrid {
				rep = r.Intn(replicas)
			}
			plan = append(plan, request{Kind: kind, Key: k, Replica: rep})
			continue
		}
		ci := (used[0] + used[1]) % 2
		pool := pools[ci]
		cb := pool[used[ci]%len(pool)]
		round := used[ci] / len(pool)
		used[ci]++
		shared, ok := assays[cb.s]
		if !ok {
			var err error
			if shared, err = newKeyAssays(cb.s); err != nil {
				return nil, nil, err
			}
			assays[cb.s] = shared
		}
		k := *shared
		k.Opts = cb.s.options(cb.cfg, cb.s.Grid)
		k.Opts.ILPTimeLimit = time.Duration(round) * time.Millisecond
		if round > 0 {
			k.Opts.ILPTimeLimit += 30 * time.Second
		}
		k.Home = r.Intn(replicas)
		k.ready = make(chan struct{})
		keys = append(keys, &k)
		plan = append(plan, request{Kind: reqCold, Key: len(keys) - 1, Replica: k.Home})
	}
	return plan, keys, nil
}

// newKeyAssays builds the public assays and bounds of s, original and
// edited.
func newKeyAssays(s *spec) (*key, error) {
	k := &key{Spec: s}
	var err error
	if k.Assay, err = publicAssay(s.Graph); err != nil {
		return nil, err
	}
	if k.Bound, err = lowerBound(s.Graph, s.Devices, transport); err != nil {
		return nil, err
	}
	eg, err := s.edited()
	if err != nil {
		return nil, err
	}
	if k.Edited, err = publicAssay(eg); err != nil {
		return nil, err
	}
	if k.EditedBound, err = lowerBound(eg, s.Devices, transport); err != nil {
		return nil, err
	}
	k.EditedOps = eg.NumOps()
	return k, nil
}

// fleet is two solver sessions sharing one persistent store directory.
type fleet struct {
	dir      string
	replicas [replicas]*flowsyn.Solver
}

func newFleet(workdir string) (*fleet, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "serve-store-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	for i := range f.replicas {
		s, err := flowsyn.New(flowsyn.Config{Workers: 1, StoreDir: dir})
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicas[i] = s
	}
	return f, nil
}

// close stops both sessions and removes the store.
func (f *fleet) close() {
	for _, s := range f.replicas {
		if s != nil {
			s.Close()
		}
	}
	os.RemoveAll(f.dir)
}

// warmUp sends PCR and CPA once to each replica and then again, under an
// explicit ILP time limit that keeps their keys out of every plan.
func (f *fleet) warmUp(ctx context.Context) error {
	for _, name := range []string{"PCR", "CPA"} {
		s, err := paper(name)
		if err != nil {
			return err
		}
		a, err := publicAssay(s.Graph)
		if err != nil {
			return err
		}
		opts := s.options(0, s.Grid)
		opts.ILPTimeLimit = 30 * time.Second
		for i := 0; i < 2*replicas; i++ {
			t, err := f.replicas[i%replicas].Submit(ctx, flowsyn.Job{Assay: a, Options: opts})
			if err == nil {
				_, err = t.Wait(ctx)
			}
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", name, err)
			}
		}
	}
	return nil
}

// outcome is one finished serve request.
type outcome struct {
	Kind  reqKind
	MS    float64
	Err   error
	Stats flowsyn.JobStats
	Res   *flowsyn.Result
	Bound int
	Ops   int
}

// warm reports that the request was served from a cache, the store or a
// coalesced flight rather than by running a scheduling engine.
func (o *outcome) warm() bool {
	return o.Stats.CacheHit || o.Stats.ScheduleCacheHit || o.Stats.StoreHit || o.Stats.Coalesced
}

// serveRun drives the plan through the fleet with two closed-loop clients
// taking requests in plan order from a shared cursor.
func serveRun(ctx context.Context, f *fleet, plan []request, keys []*key, deadline time.Duration, tr *tracer) []outcome {
	var (
		next atomic.Int64
		mu   sync.Mutex
		outs = make([]outcome, 0, len(plan))
		wg   sync.WaitGroup
	)
	start := time.Now()
	for range replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) || time.Since(start) > deadline {
					return
				}
				o := serveOne(ctx, f, plan[i], keys, i, tr, &mu)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// serveOne sends one request and checks its result. Recoveries and edits
// first wait, untimed, for the prior job they build on.
func serveOne(ctx context.Context, f *fleet, req request, keys []*key, id int, tr *tracer, mu *sync.Mutex) outcome {
	k := keys[req.Key]
	o := outcome{Kind: req.Kind, Bound: k.Bound, Ops: k.Spec.Graph.NumOps()}
	s := f.replicas[req.Replica]
	if req.Kind == reqRecover || req.Kind == reqResynth {
		<-k.ready
		if k.err != nil {
			o.Err = fmt.Errorf("prior job failed: %w", k.err)
			return o
		}
	}
	t0 := time.Now()
	var (
		t   *flowsyn.Ticket
		err error
	)
	switch req.Kind {
	case reqCold, reqResubmit:
		t, err = s.Submit(ctx, flowsyn.Job{Assay: k.Assay, Options: k.Opts})
	case reqGrid:
		opts := k.Opts
		opts.GridRows++
		opts.GridCols++
		t, err = s.Submit(ctx, flowsyn.Job{Assay: k.Assay, Options: opts})
	case reqRecover:
		t, err = s.Recover(ctx, k.ticket, k.Spec.fault(k.chip.Makespan))
	case reqResynth:
		o.Bound, o.Ops = k.EditedBound, k.EditedOps
		t, err = s.Resynthesize(ctx, k.ticket, k.Edited)
	}
	t1 := time.Now()
	if err == nil {
		o.Res, err = t.Wait(ctx)
	}
	t2 := time.Now()
	o.MS = float64(t2.Sub(t0).Nanoseconds()) / 1e6
	if tr != nil {
		mu.Lock()
		tr.add(id, "submit", layerJob, t0, t1)
		tr.add(id, "wait", layerJob, t1, t2)
		tr.add(id, layerJob, "", t0, t2)
		mu.Unlock()
	}
	if err == nil {
		o.Stats = t.Stats()
		err = checkResult(o.Res, o.Bound)
	}
	switch req.Kind {
	case reqCold:
		k.ticket, k.err = t, err
		if err == nil {
			k.chip = chipOf(o.Res)
		}
		close(k.ready)
	case reqResubmit, reqGrid:
		<-k.ready
		if err == nil && k.err == nil {
			got := chipOf(o.Res)
			if req.Kind == reqResubmit && got != k.chip {
				err = fmt.Errorf("resubmit gave %v, the cold request gave %v", got, k.chip)
			}
			if req.Kind == reqGrid && got.Makespan != k.chip.Makespan {
				err = fmt.Errorf("grid variant makespan %d, the cold request gave %d", got.Makespan, k.chip.Makespan)
			}
		}
	case reqRecover:
		if err == nil && o.Res.Recovery() == nil {
			err = errors.New("recovery result carries no recovery summary")
		}
	}
	o.Err = err
	return o
}

// runServe runs the serve workload.
func runServe(cfg runConfig) (*metricSet, int, int, error) {
	ctx := context.Background()
	n := int(math.Ceil(servePerSecond * cfg.Seconds))
	deadline := time.Duration(maxSlowdown * cfg.Seconds * float64(time.Second))
	workdir := ".bench_build"
	if cfg.Trace {
		// An untraced and a traced phase share the measured time.
		n = (n + 1) / 2
		deadline /= 2
	}
	setup := func() (*fleet, []request, []*key, error) {
		plan, keys, err := servePlan(cfg.Seed, n)
		if err != nil {
			return nil, nil, nil, err
		}
		f, err := newFleet(workdir)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := f.warmUp(ctx); err != nil {
			f.close()
			return nil, nil, nil, err
		}
		return f, plan, keys, nil
	}

	if cfg.Trace {
		var phases [2][]outcome
		var stats [replicas]flowsyn.Stats
		tr := newTracer()
		for p := range phases {
			f, plan, keys, err := setup()
			if err != nil {
				return nil, 0, 0, err
			}
			var ptr *tracer
			if p == 1 {
				ptr = tr
			}
			phases[p] = serveRun(ctx, f, plan, keys, deadline, ptr)
			for i, s := range f.replicas {
				stats[i] = s.Stats()
			}
			f.close()
		}
		if err := tr.write(cfg.SpansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed)); err != nil {
			return nil, 0, 0, err
		}
		m := newMetricSet()
		attempted, failed := serveLayers(m, phases[1], stats)
		base, traced := latencies(phases[0]), latencies(phases[1])
		m.add("trace.overhead_frac", "frac", median(traced)/median(base)-1, len(traced))
		return m, attempted, failed, nil
	}

	var (
		f      *fleet
		plan   []request
		keys   []*key
		setupS []float64
	)
	for i := range setups {
		t0 := time.Now()
		var err error
		if f, plan, keys, err = setup(); err != nil {
			return nil, 0, 0, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			f.close()
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	outs := serveRun(ctx, f, plan, keys, deadline, nil)
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	f.close()

	m := newMetricSet()
	lat := latencies(outs)
	var ratios, valves []float64
	ok, failed := 0, 0
	for _, o := range outs {
		if o.Err != nil {
			failed++
			continue
		}
		ok++
		ratios = append(ratios, float64(o.Res.Makespan())/float64(o.Bound))
		valves = append(valves, float64(max(o.Res.Valves(), 1)))
	}
	m.add("job_ms.p50", "ms", median(lat), len(lat))
	m.add("job_ms.p90", "ms", percentile(lat, 0.9), len(lat))
	m.add("jobs_per_s", "1/s", float64(ok)/elapsed, ok)
	m.add("makespan_ratio", "ratio", geomean(ratios), len(ratios))
	m.add("valves", "count", geomean(valves), len(valves))
	m.add("setup_s", "s", median(setupS), len(setupS))
	m.add("alloc_mb_per_job", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(max(len(outs), 1))/(1<<20), len(outs))
	m.add("peak_rss_mb", "MB", peakRSSMB(), 0)
	reportFailures(outs)
	reportKinds(outs)
	return m, len(outs), failed, nil
}

// kindNames label the request kinds in reports.
var kindNames = [...]string{"cold", "resubmit", "grid", "recover", "resynth"}

// reportKinds prints the latency quartiles of each request kind to standard
// error.
func reportKinds(outs []outcome) {
	byKind := make([][]float64, len(kindNames))
	for _, o := range outs {
		byKind[o.Kind] = append(byKind[o.Kind], o.MS)
		if o.Err != nil {
			byKind[o.Kind][len(byKind[o.Kind])-1] = math.Inf(1)
		}
	}
	for k, ms := range byKind {
		fmt.Fprintf(os.Stderr, "serve: %-8s n=%-5d ms p25 %.3f p50 %.3f p75 %.3f\n", kindNames[k], len(ms),
			percentile(ms, 0.25), percentile(ms, 0.5), percentile(ms, 0.75))
	}
}

// latencies returns the client-side latency of every request, failures as
// +Inf.
func latencies(outs []outcome) []float64 {
	out := make([]float64, len(outs))
	for i, o := range outs {
		out[i] = o.MS
		if o.Err != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// reportFailures prints each failed request to standard error.
func reportFailures(outs []outcome) {
	for _, o := range outs {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "flowbench: serve request kind %d: %v\n", o.Kind, o.Err)
		}
	}
}

// stageLayer maps the pipeline's stage names onto the layer metric names.
var stageLayer = map[string]string{
	flowsyn.StageSchedule: layerSched,
	flowsyn.StageBind:     layerBind,
	flowsyn.StageArch:     layerArch,
	flowsyn.StagePhys:     layerPhys,
	flowsyn.StageVerify:   layerVerify,
}

// serveLayers adds the per-layer metrics of a traced serve phase. Pipeline
// layers come from the results' own stage timings and solver statistics,
// counted only for requests whose stages ran for them; the service and
// store layers come from JobStats and the sessions' counters.
func serveLayers(m *metricSet, outs []outcome, stats [replicas]flowsyn.Stats) (attempted, failed int) {
	var (
		stageMS                                = map[string]float64{}
		pipe                                   layerAcc
		archRuns, archErrs                     int
		cold, warm, queue                      []float64
		recMS, resMS                           float64
		recN, recFail, resN, preserved, recOps int
		reused, resOps                         int
	)
	for i := range outs {
		o := &outs[i]
		attempted++
		if o.Err != nil {
			failed++
			if strings.Contains(o.Err.Error(), "arch stage") {
				archRuns++
				archErrs++
			}
		}
		switch o.Kind {
		case reqRecover:
			recN++
			recMS += o.MS
			if o.Err != nil {
				recFail++
			}
		case reqResynth:
			resN++
			resMS += o.MS
		}
		if o.Err != nil {
			continue
		}
		queue = append(queue, float64(o.Stats.QueueWait.Nanoseconds())/1e6)
		if o.warm() {
			warm = append(warm, o.MS)
		} else {
			cold = append(cold, o.MS)
		}
		res := o.Res
		pipe.jobs++
		pipe.transports += res.Transports()
		pipe.stored += res.StoreCount()
		pipe.unitStored += res.UnitStoreCount()
		pipe.unitWait += res.UnitQueueDelay()
		pipe.segments += res.ChannelSegments()
		pipe.valves += res.Valves()
		if rs := res.Recovery(); rs != nil {
			preserved += rs.PreservedOps
			recOps += o.Ops
		}
		if o.Kind == reqResynth {
			reused += o.Stats.ReusedOps
			resOps += o.Ops
		}
		if o.Stats.CacheHit {
			continue // no stage ran for this request
		}
		archRuns++
		for _, st := range res.StageTimings() {
			stageMS[stageLayer[st.Name]] += float64(st.Duration.Nanoseconds()) / 1e6
		}
		if sv := res.SolverStats(); sv != nil && !o.warm() {
			pipe.ilp++
			if sv.Status == "optimal" {
				pipe.proved++
			}
			if sv.Winner == "ilp" {
				pipe.ilpWins++
			}
			pipe.nodes += sv.Nodes
			pipe.pivots += sv.Iterations
			pipe.cutRounds += sv.CutRounds
			pipe.cutsApplied += sv.CutsApplied
			pipe.sep += sv.SeparationWall
		}
	}
	pipe.archCalls, pipe.archErrors = archRuns, archErrs
	pipe.report(m, func(layer string) float64 { return stageMS[layer] })

	var total flowsyn.Stats
	for _, s := range stats {
		total.Submitted += s.Submitted
		total.ResultCacheHits += s.ResultCacheHits
		total.ResultCacheMisses += s.ResultCacheMisses
		total.ScheduleCacheHits += s.ScheduleCacheHits
		total.ScheduleSolves += s.ScheduleSolves
		total.Coalesced += s.Coalesced
		total.StoreHits += s.StoreHits
		total.StorePuts += s.StorePuts
		total.StoreErrors += s.StoreErrors
		total.LeaseWaits += s.LeaseWaits
		total.LeaseWaitTotal += s.LeaseWaitTotal
	}
	m.add("service.queue_ms.p50", "ms", median(queue), len(queue))
	m.add("service.result_hit_frac", "frac",
		frac(int(total.ResultCacheHits), int(total.ResultCacheHits+total.ResultCacheMisses)),
		int(total.ResultCacheHits+total.ResultCacheMisses))
	m.add("service.schedule_hit_frac", "frac", frac(int(total.ScheduleCacheHits), int(total.Submitted)), int(total.Submitted))
	m.add("service.coalesced", "count", float64(total.Coalesced), 0)
	m.add("service.schedule_solves", "count", float64(total.ScheduleSolves), 0)
	m.add("service.cold_ms.p50", "ms", median(cold), len(cold))
	m.add("service.warm_ms.p50", "ms", median(warm), len(warm))
	m.add("store.hits", "count", float64(total.StoreHits), 0)
	m.add("store.puts", "count", float64(total.StorePuts), 0)
	m.add("store.errors", "count", float64(total.StoreErrors), 0)
	m.add("store.lease_waits", "count", float64(total.LeaseWaits), 0)
	m.add("store.lease_wait_ms", "ms", float64(total.LeaseWaitTotal.Nanoseconds())/1e6, 0)
	m.add("recover.ms", "ms", recMS/float64(max(recN, 1)), recN)
	m.add("recover.infeasible_frac", "frac", frac(recFail, recN), recN)
	m.add("recover.preserved_ops_frac", "frac", frac(preserved, recOps), recN-recFail)
	m.add("resynth.ms", "ms", resMS/float64(max(resN, 1)), resN)
	m.add("resynth.reused_frac", "frac", frac(reused, resOps), resN)
	reportFailures(outs)
	return attempted, failed
}

// addZeroServeLayers adds the store, recovery and resynthesis metrics,
// which the compile workloads never exercise.
func addZeroServeLayers(m *metricSet) {
	for _, name := range []string{"store.hits", "store.puts", "store.errors", "store.lease_waits"} {
		m.add(name, "count", 0, 0)
	}
	m.add("store.lease_wait_ms", "ms", 0, 0)
	m.add("recover.ms", "ms", 0, 0)
	m.add("recover.infeasible_frac", "frac", 0, 0)
	m.add("recover.preserved_ops_frac", "frac", 0, 0)
	m.add("resynth.ms", "ms", 0, 0)
	m.add("resynth.reused_frac", "frac", 0, 0)
}
