package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/trace"
	"repro/internal/tune"
)

// SchedulerConfig tunes the front door.
type SchedulerConfig struct {
	// CoreBudget caps the cores one request may use, ranks × threads
	// (default 256): a hybrid request with 16 ranks × 4 threads uses 64
	// cores, the same as a flat 64-rank one. A request needing more is
	// rejected with ErrTooLarge before it is resolved.
	CoreBudget int
	// QueueDepth bounds each session's admission window (default 32); a
	// full window rejects with ErrOverloaded.
	QueueDepth int
	// MaxBatch is handed to every session (see SessionConfig): the maximum
	// same-A requests coalesced into one execution (0 → 8; 1 → no
	// batching).
	MaxBatch int
	// TraceSampleN enables the flight recorder: 1 in every N completed
	// requests runs traced and lands in the capture ring (GET
	// /debug/traces). 0 disables sampling; unsampled requests follow the
	// exact untraced execution path.
	TraceSampleN int
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.CoreBudget <= 0 {
		c.CoreBudget = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	return c
}

// Metrics is a snapshot of the scheduler's observability counters — what
// GET /metrics renders.
type Metrics struct {
	// Request lifecycle totals.
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Errors    int64 `json:"errors"`
	Rejected  int64 `json:"rejected"` // ErrOverloaded admissions
	// Session pool behaviour.
	SessionHits     int64 `json:"session_hits"`
	SessionMisses   int64 `json:"session_misses"`
	SessionsRetired int64 `json:"sessions_retired"`
	SessionsLive    int   `json:"sessions_live"`
	// RanksLive and CoresLive are the ranks, and ranks × threads, of the
	// batches executing right now — the load the host carries. CoresLive
	// equals RanksLive when every executing spec is single-threaded.
	RanksLive int `json:"ranks_live"`
	CoresLive int `json:"cores_live"`
	// Instantaneous load.
	Queued   int64 `json:"queued"`
	InFlight int64 `json:"in_flight"`
	// End-to-end latency quantiles in seconds, read off the request-seconds
	// histogram across all spec keys (0 until the first request completes).
	LatencyP50Seconds float64 `json:"latency_p50_seconds"`
	LatencyP99Seconds float64 `json:"latency_p99_seconds"`
	// BatchSizeMean is the mean coalesced batch size across completed
	// requests (1.0 when batching never engages).
	BatchSizeMean float64 `json:"batch_size_mean"`
	// Plan-cache counters from the shared tune planner: session keys are
	// resolved through it, so serving workloads surface its reuse here.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	// PlanSimRuns and PlanRefineSeconds expose what the planner's
	// event-engine replays cost: runs executed and cumulative wall time
	// spent inside them.
	PlanSimRuns       int64   `json:"plan_sim_runs"`
	PlanRefineSeconds float64 `json:"plan_refine_seconds"`
	// Plan-fidelity telemetry: requests whose sustained measured/predicted
	// drift marked their plan stale, and requests sampled into the flight
	// recorder.
	PlanStale    int64 `json:"plan_stale"`
	TraceSampled int64 `json:"trace_sampled"`
	// ModelDriftP50 is the median per-phase measured/predicted cost ratio,
	// pooled over every phase of every completed request that carried a
	// prediction (1.0 = model exact).
	ModelDriftP50 float64 `json:"model_drift_p50"`
}

// Scheduler is the admission-controlled front door: it keys requests by
// execution shape, routes them to a bounded pool of sessions, applies
// backpressure via bounded queues, and exports counters.
type Scheduler struct {
	cfg SchedulerConfig

	mu       sync.Mutex
	sessions map[string]*Session // by routeKey
	// live counts the pooled sessions per spec key: a key's series are
	// observed under it while the count is positive and under otherKey
	// once the last session carrying it has retired.
	live   map[string]int
	closed bool

	requests, completed, errors, rejected atomic.Int64
	hits, misses, retired                 atomic.Int64

	// Latency histograms per spec key: queue wait, staging, distributed
	// execution, and end-to-end — the serve-layer time decomposition
	// /metrics exports — plus the coalesced batch-size distribution.
	// specKeyed lists every family keyed by spec key (these five and the
	// handler's decode/encode pair, which NewHandler registers): when the
	// last session carrying a key retires, each folds that key's series
	// into otherKey, so label cardinality is bounded by the live sessions.
	histQueue, histStage, histExec, histE2E *histogramVec
	histBatch                               *histogramVec
	specKeyed                               []*histogramVec

	// Plan-fidelity machinery: the per-spec-key drift EWMAs, the ratio
	// histogram keyed by phase name, and the sampled-trace ring. sampleSeq
	// drives the 1-in-N flight-recorder sampling.
	drift        *driftTracker
	histDrift    *histogramVec
	flight       *flightRecorder
	sampleSeq    atomic.Int64
	planStale    atomic.Int64
	traceSampled atomic.Int64
}

// otherKey is the series retired spec keys are folded into.
const otherKey = "other"

// maxSessions bounds the session pool: the default daemon's capacity when
// every session reserved its ranks (a 256-core budget over 16 default
// ranks). A full pool retires its least-recently-used idle session to admit
// a new shape.
const maxSessions = 16

// NewScheduler returns an empty scheduler; sessions spin up on demand.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	cfg = cfg.withDefaults()
	sc := &Scheduler{
		cfg:       cfg,
		sessions:  make(map[string]*Session),
		live:      make(map[string]int),
		histQueue: newHistogramVec("hsumma_serve_queue_wait_seconds", "Time requests waited on the session queue before staging."),
		histStage: newHistogramVec("hsumma_serve_stage_seconds", "Staging time per request: cutting operand views, plus the one copy of a padded or batched operand."),
		histExec:  newHistogramVec("hsumma_serve_execute_seconds", "Distributed execution time per request (the run on its spawned rank goroutines)."),
		histE2E:   newHistogramVec("hsumma_serve_request_seconds", "End-to-end request time: queue + stage + run + crop."),
		histBatch: newHistogramVecBounds("hsumma_serve_batch_size", "Coalesced same-A requests per execution, observed once per request.", batchBounds),
		histDrift: newHistogramVecBounds("hsumma_serve_model_drift_ratio", "Measured/predicted cost ratio per phase (key is the phase name; 1.0 = plan model exact).", driftBounds),
		drift:     newDriftTracker(driftMinSamples),
		flight:    newFlightRecorder(flightRingSize),
	}
	sc.specKeyed = []*histogramVec{sc.histQueue, sc.histStage, sc.histExec, sc.histE2E, sc.histBatch}
	return sc
}

// Multiply serves one request: A (M×K) · B (K×N) under the given pinned
// knobs (zero values resolve to defaults; engine.Auto engages the
// planner). The request is routed to the session owning its execution
// shape, creating one (and retiring an idle one from a full pool) on a
// miss. A request over the core budget fails with ErrTooLarge; a full
// session queue, or a full pool with no idle session, with ErrOverloaded.
func (sc *Scheduler) Multiply(a, b *matrix.Dense, rp tune.ResolveParams) (*matrix.Dense, Stats, error) {
	sc.requests.Add(1)
	if a.Cols != b.Rows {
		sc.errors.Add(1)
		return nil, Stats{}, fmt.Errorf("serve: inner dimensions differ: A is %dx%d, B is %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	// Checked before resolution: resolving factorises the rank count, which
	// for an absurd pinned one costs seconds before any budget is seen.
	if err := sc.checkBudget(rp); err != nil {
		sc.errors.Add(1)
		return nil, Stats{}, err
	}
	rp.Shape = matrix.Shape{M: a.Rows, N: b.Cols, K: a.Cols}
	spec, err := tune.ResolveSpec(rp)
	if err != nil {
		sc.errors.Add(1)
		return nil, Stats{}, err
	}
	// The flight recorder samples 1 in every TraceSampleN requests; a
	// sampled request runs traced, every other one takes the exact untraced
	// execution path — sampling off costs nothing.
	sampled := sc.cfg.TraceSampleN > 0 && sc.sampleSeq.Add(1)%int64(sc.cfg.TraceSampleN) == 0
	j, err := sc.admit(rp.Shape, spec, a, b, sampled)
	if err != nil {
		sc.countFailure(err)
		return nil, Stats{}, err
	}
	out, stats, err := j.wait()
	if sampled && err == nil {
		stats.TraceID = sc.flight.add(stats.SpecKey, rp.Shape, stats.WallSeconds, j.rec)
		sc.traceSampled.Add(1)
	}
	if err != nil {
		sc.countFailure(err)
		return nil, stats, err
	}
	sc.completed.Add(1)
	sc.observeDrift(&stats)
	// The session may have retired since it served the request: observe
	// under the scheduler lock so a retired key's series stay folded.
	sc.mu.Lock()
	key := sc.liveKeyLocked(stats.SpecKey)
	sc.histQueue.observe(key, stats.QueueSeconds)
	sc.histStage.observe(key, stats.SetupSeconds)
	sc.histExec.observe(key, stats.RunSeconds)
	sc.histE2E.observe(key, stats.WallSeconds)
	sc.histBatch.observe(key, float64(stats.BatchSize))
	sc.mu.Unlock()
	return out, stats, nil
}

// checkBudget refuses a request whose pinned ranks (the grid's, or Procs)
// times threads exceed the core budget. It divides rather than multiplies,
// so no pinned value, however large, can overflow into admission.
func (sc *Scheduler) checkBudget(rp tune.ResolveParams) error {
	factors := [3]int{rp.Procs, rp.Threads, 1}
	if rp.Grid != nil {
		factors = [3]int{rp.Grid.S, rp.Grid.T, rp.Threads}
	}
	left := sc.cfg.CoreBudget
	for _, f := range factors {
		if f > left {
			ranks := fmt.Sprint(rp.Procs)
			if rp.Grid != nil {
				ranks = rp.Grid.String()
			}
			return fmt.Errorf("%w: %s ranks × %d threads exceed the budget of %d cores",
				ErrTooLarge, ranks, max(rp.Threads, 1), sc.cfg.CoreBudget)
		}
		left /= max(f, 1)
	}
	return nil
}

// observeKeyed records v in a spec-keyed family on behalf of a request
// already served (the handler's decode and encode times): under the
// request's spec key while a live session still carries it, under otherKey
// once the key has been retired — checked under the scheduler lock so a
// late observation cannot resurrect a folded series.
func (sc *Scheduler) observeKeyed(hv *histogramVec, key string, v float64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	hv.observe(sc.liveKeyLocked(key), v)
}

// liveKeyLocked returns specKey while a pooled session carries it and
// otherKey once it has retired.
func (sc *Scheduler) liveKeyLocked(specKey string) string {
	if sc.live[specKey] > 0 {
		return specKey
	}
	return otherKey
}

// observeDrift folds one completed request into the plan-fidelity
// machinery: per-phase measured/predicted ratios into the drift histogram,
// the all-phase ratio onto the request's stats and into the spec key's
// EWMA, and a plan_stale count when sustained drift marks the plan stale.
// A retired key stays out of the tracker, whose state for it retirement
// dropped. A stale plan is reported, not replanned: the planner is a
// deterministic function of inputs fixed at process start, so replanning
// would return the same pick at the cost of another scan.
func (sc *Scheduler) observeDrift(stats *Stats) {
	if len(stats.PredictedSecondsByPhase) == 0 {
		return
	}
	measured := measuredPhases(*stats)
	for ph, p := range stats.PredictedSecondsByPhase {
		if m, ok := measured[ph]; ok && p > 0 && m > 0 {
			sc.histDrift.observe(ph, m/p)
		}
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.liveKeyLocked(stats.SpecKey) == otherKey {
		stats.ModelDriftRatio = driftRatio(stats.PredictedSecondsByPhase, measured)
		return
	}
	ratio, stale := sc.drift.observe(stats.SpecKey, stats.PredictedSecondsByPhase, measured)
	stats.ModelDriftRatio = ratio
	if stale {
		sc.planStale.Add(1)
	}
}

// countFailure splits backpressure rejections (a healthy, retryable
// signal) from genuine errors.
func (sc *Scheduler) countFailure(err error) {
	if err == ErrOverloaded {
		sc.rejected.Add(1)
		return
	}
	sc.errors.Add(1)
}

// routeKey identifies the session a request shares: the resolved spec's
// execution-shape key plus the *requested* (pre-padding) shape, because a
// session's staging buffers are pinned to the request shape — two problem
// shapes that pad to the same execution must not share one session.
func routeKey(reqShape matrix.Shape, spec engine.Spec) string {
	return fmt.Sprintf("%s|req=%dx%dx%d", spec.Key(), reqShape.M, reqShape.N, reqShape.K)
}

// admit routes a request to the session for its shape and queues it there,
// both in one hold of the scheduler lock: the queued job keeps the session
// from looking idle, so retirement never closes a session between routing
// and enqueueing. A session spawns nothing when built, so a miss builds it
// under the lock and concurrent requests for the new key find it there.
func (sc *Scheduler) admit(reqShape matrix.Shape, spec engine.Spec, a, b *matrix.Dense, traced bool) (*job, error) {
	key := routeKey(reqShape, spec)
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return nil, ErrClosed
	}
	sess := sc.sessions[key]
	if sess != nil {
		sc.hits.Add(1)
		sess.touch()
	} else {
		if len(sc.sessions) >= maxSessions && !sc.retireIdleLocked() {
			return nil, ErrOverloaded
		}
		var err error
		sess, err = NewSession(reqShape, spec, SessionConfig{
			QueueDepth: sc.cfg.QueueDepth,
			MaxBatch:   sc.cfg.MaxBatch,
		})
		if err != nil {
			return nil, err
		}
		sc.sessions[key] = sess
		sc.live[sess.key]++
		sc.misses.Add(1)
	}
	return sess.submit(a, b, false, traced)
}

// retireIdleLocked closes the least-recently-used idle session and, when it
// was the last one carrying its spec key, folds that key's series into
// otherKey. It reports false when no session is idle.
func (sc *Scheduler) retireIdleLocked() bool {
	var (
		vKey   string
		victim *Session
	)
	for key, s := range sc.sessions {
		if s.Idle() && (victim == nil || s.LastUsed().Before(victim.LastUsed())) {
			vKey, victim = key, s
		}
	}
	if victim == nil {
		return false
	}
	delete(sc.sessions, vKey)
	victim.Close()
	sc.retired.Add(1)
	// Two request shapes that pad to one execution share a spec key; the
	// series outlive the victim while the other session lives.
	if sc.live[victim.key]--; sc.live[victim.key] == 0 {
		delete(sc.live, victim.key)
		for _, hv := range sc.specKeyed {
			hv.fold(victim.key, otherKey)
		}
		sc.drift.forget(victim.key)
	}
	return true
}

// Sessions returns a snapshot of the live sessions, for introspection.
func (sc *Scheduler) Sessions() []*Session {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]*Session, 0, len(sc.sessions))
	for _, s := range sc.sessions {
		out = append(out, s)
	}
	return out
}

// Metrics returns a snapshot of the scheduler's counters. The queued,
// in-flight, ranks and cores gauges are read off the live sessions at
// snapshot time.
func (sc *Scheduler) Metrics() Metrics {
	sc.mu.Lock()
	live := len(sc.sessions)
	var queued, inFlight int64
	var ranks, cores int
	for _, s := range sc.sessions {
		queued += int64(s.QueueLen())
		if s.Executing() {
			inFlight++
			r := s.spec.Opts.Grid.Size()
			ranks += r
			cores += r * max(s.spec.Opts.Threads, 1)
		}
	}
	sc.mu.Unlock()
	var batchMean float64
	if sum, count := sc.histBatch.totals(); count > 0 {
		batchMean = sum / float64(count)
	}
	ps := tune.Stats()
	return Metrics{
		Requests:          sc.requests.Load(),
		Completed:         sc.completed.Load(),
		Errors:            sc.errors.Load(),
		Rejected:          sc.rejected.Load(),
		SessionHits:       sc.hits.Load(),
		SessionMisses:     sc.misses.Load(),
		SessionsRetired:   sc.retired.Load(),
		SessionsLive:      live,
		RanksLive:         ranks,
		CoresLive:         cores,
		Queued:            queued,
		InFlight:          inFlight,
		LatencyP50Seconds: sc.histE2E.quantile(0.50),
		LatencyP99Seconds: sc.histE2E.quantile(0.99),
		BatchSizeMean:     batchMean,
		PlanCacheHits:     ps.CacheHits,
		PlanCacheMisses:   ps.CacheMisses,
		PlanSimRuns:       ps.SimRuns,
		PlanRefineSeconds: ps.RefineTime().Seconds(),
		PlanStale:         sc.planStale.Load(),
		TraceSampled:      sc.traceSampled.Load(),
		ModelDriftP50:     sc.histDrift.quantile(0.5),
	}
}

// FlightList returns the flight recorder's capture summaries, newest
// first (GET /debug/traces).
func (sc *Scheduler) FlightList() []FlightSummary { return sc.flight.list() }

// FlightGet returns one capture's recorder by id (nil when unknown or
// evicted).
func (sc *Scheduler) FlightGet(id string) *trace.Recorder {
	if e := sc.flight.get(id); e != nil {
		return e.Rec
	}
	return nil
}

// FlightLast returns the newest capture's spans and its id ("" when the
// ring is empty) — the timeline GET /debug/critpath analyses.
func (sc *Scheduler) FlightLast() (string, []trace.Span) {
	e := sc.flight.last()
	if e == nil {
		return "", nil
	}
	return e.ID, e.Rec.Spans()
}

// TraceSampling reports whether the flight recorder is enabled.
func (sc *Scheduler) TraceSampling() bool { return sc.cfg.TraceSampleN > 0 }

// Close drains the scheduler: new requests fail with ErrClosed, each
// session's in-flight request finishes, queued requests receive ErrClosed,
// and every session's runner exits.
func (sc *Scheduler) Close() error {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil
	}
	sc.closed = true
	sessions := make([]*Session, 0, len(sc.sessions))
	for _, s := range sc.sessions {
		sessions = append(sessions, s)
	}
	sc.sessions = make(map[string]*Session)
	sc.mu.Unlock()

	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			s.Close()
		}(s)
	}
	wg.Wait()
	return nil
}

// Uptime helper for the metrics endpoint.
var startTime = time.Now()
