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
	// CoreBudget caps the total cores reserved across live sessions
	// (default 256). Each session reserves ranks × threads cores — a
	// hybrid session with 16 ranks × 4 threads costs 64 cores, the same as
	// a flat 64-rank one — so the budget is the machine-capacity unit the
	// operator actually provisions. A request needing more cores than the
	// whole budget is rejected with ErrTooLarge.
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
	RanksLive       int   `json:"ranks_live"`
	// CoresLive is the budget unit: reserved ranks × their thread counts.
	// It equals RanksLive when every session is single-threaded.
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
	// LeasesActive counts requests currently holding a routing lease — a
	// session reserved between routing and the end of its enqueue, the
	// window retirement must not touch.
	LeasesActive int64 `json:"leases_active"`
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
	// ModelDriftP50 is the median measured/predicted cost ratio across all
	// completed requests that carried a prediction (1.0 = model exact).
	ModelDriftP50 float64 `json:"model_drift_p50"`
}

// Scheduler is the admission-controlled front door: it keys requests by
// execution shape, routes them to a pool of sessions under a core budget,
// applies backpressure via bounded queues, and exports counters.
type Scheduler struct {
	cfg SchedulerConfig

	mu      sync.Mutex
	entries map[string]*entry
	closed  bool

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

// entry is one pooled session and the cores (ranks × threads) it reserves
// against the budget while it lives. leases counts requests that have been
// routed to the session but not yet finished with it — retirement requires
// leases == 0, which closes the race between routing and enqueueing.
type entry struct {
	specKey string
	ranks   int
	cores   int
	sess    *Session
	leases  int
}

// NewScheduler returns an empty scheduler; sessions spin up on demand.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	cfg = cfg.withDefaults()
	sc := &Scheduler{
		cfg:       cfg,
		entries:   make(map[string]*entry),
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
// shape, creating or retiring sessions under the core budget. A full
// session queue or an unadmittable session rejects with ErrOverloaded.
func (sc *Scheduler) Multiply(a, b *matrix.Dense, rp tune.ResolveParams) (*matrix.Dense, Stats, error) {
	sc.requests.Add(1)
	if a.Cols != b.Rows {
		sc.errors.Add(1)
		return nil, Stats{}, fmt.Errorf("serve: inner dimensions differ: A is %dx%d, B is %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	rp.Shape = matrix.Shape{M: a.Rows, N: b.Cols, K: a.Cols}
	spec, err := tune.ResolveSpec(rp)
	if err != nil {
		sc.errors.Add(1)
		return nil, Stats{}, err
	}

	sess, release, err := sc.route(rp.Shape, spec)
	if err != nil {
		sc.countFailure(err)
		return nil, Stats{}, err
	}
	// The flight recorder samples 1 in every TraceSampleN requests; a
	// sampled request runs traced, every other one takes the exact untraced
	// execution path — sampling off costs nothing.
	sampled := sc.cfg.TraceSampleN > 0 && sc.sampleSeq.Add(1)%int64(sc.cfg.TraceSampleN) == 0
	out, stats, rec, err := sess.submit(a, b, false, sampled)
	if sampled && err == nil {
		stats.TraceID = sc.flight.add(stats.SpecKey, rp.Shape, stats.WallSeconds, rec)
		sc.traceSampled.Add(1)
	}
	// The lease is held across the observations: the session cannot retire
	// (and fold its key's series away) between serving and being counted.
	defer release()
	if err != nil {
		sc.countFailure(err)
		return nil, stats, err
	}
	sc.completed.Add(1)
	sc.observeDrift(&stats)
	sc.histQueue.observe(stats.SpecKey, stats.QueueSeconds)
	sc.histStage.observe(stats.SpecKey, stats.SetupSeconds)
	sc.histExec.observe(stats.SpecKey, stats.RunSeconds)
	sc.histE2E.observe(stats.SpecKey, stats.WallSeconds)
	sc.histBatch.observe(stats.SpecKey, float64(stats.BatchSize))
	return out, stats, nil
}

// observeKeyed records v in a spec-keyed family on behalf of a request
// whose lease is already returned (the handler's decode and encode times):
// under the request's spec key while a live session still carries it, under
// otherKey once the key has been retired — checked under the scheduler lock
// so a late observation cannot resurrect a folded series.
func (sc *Scheduler) observeKeyed(hv *histogramVec, key string, v float64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.keyLiveLocked(key) {
		key = otherKey
	}
	hv.observe(key, v)
}

func (sc *Scheduler) keyLiveLocked(specKey string) bool {
	for _, e := range sc.entries {
		if e.specKey == specKey {
			return true
		}
	}
	return false
}

// observeDrift folds one completed request into the plan-fidelity
// tracker: per-phase measured/predicted ratios into the drift histogram
// and the spec key's EWMA, the all-phase ratio onto the request's stats,
// and a plan_stale count when sustained drift marks the plan stale. A
// stale plan is reported, not replanned: the planner is a deterministic
// function of inputs fixed at process start, so replanning would return
// the same pick at the cost of another scan.
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

// route finds or creates the session for a request, retiring idle
// unleased sessions in least-recently-used order when the core budget is
// exceeded. A session spawns no ranks, so it is built under the scheduler
// lock and concurrent requests for a new key find it there. The returned
// release func gives the routing lease back — retirement never touches a
// session between its routing and its enqueue.
func (sc *Scheduler) route(reqShape matrix.Shape, spec engine.Spec) (*Session, func(), error) {
	key := routeKey(reqShape, spec)
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil, nil, ErrClosed
	}
	if e := sc.entries[key]; e != nil {
		e.leases++
		sc.mu.Unlock()
		sc.hits.Add(1)
		e.sess.touch()
		return e.sess, func() { sc.release(e) }, nil
	}
	ranks := spec.Opts.Grid.Size()
	threads := spec.Opts.Threads
	if threads < 1 {
		threads = 1
	}
	need := ranks * threads
	if need > sc.cfg.CoreBudget {
		sc.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: request needs %d cores (%d ranks × %d threads), budget is %d", ErrTooLarge, need, ranks, threads, sc.cfg.CoreBudget)
	}
	// Retire idle, unleased sessions, oldest first, until the new one
	// fits. leases == 0 guarantees no request sits between routing and
	// enqueue, and Idle() that nothing is queued or running — so Close
	// returns promptly.
	for sc.coresLiveLocked()+need > sc.cfg.CoreBudget {
		vKey, victim := sc.oldestIdleLocked()
		if victim == nil {
			sc.mu.Unlock()
			return nil, nil, ErrOverloaded
		}
		delete(sc.entries, vKey)
		victim.sess.Close()
		sc.retired.Add(1)
		// Two request shapes that pad to one execution share a spec key;
		// the series outlive the victim while the other session lives.
		if !sc.keyLiveLocked(victim.specKey) {
			for _, hv := range sc.specKeyed {
				hv.fold(victim.specKey, otherKey)
			}
			sc.drift.forget(victim.specKey)
		}
	}
	sess, err := NewSession(reqShape, spec, SessionConfig{
		QueueDepth: sc.cfg.QueueDepth,
		MaxBatch:   sc.cfg.MaxBatch,
	})
	if err != nil {
		sc.mu.Unlock()
		return nil, nil, err
	}
	e := &entry{specKey: spec.Key(), ranks: ranks, cores: need, sess: sess, leases: 1}
	sc.entries[key] = e
	sc.mu.Unlock()
	sc.misses.Add(1)
	return sess, func() { sc.release(e) }, nil
}

// release returns a routing lease.
func (sc *Scheduler) release(e *entry) {
	sc.mu.Lock()
	e.leases--
	sc.mu.Unlock()
}

// ranksLiveLocked counts ranks reserved by live sessions; coresLiveLocked
// counts the budget unit (ranks × threads).
func (sc *Scheduler) ranksLiveLocked() int {
	total := 0
	for _, e := range sc.entries {
		total += e.ranks
	}
	return total
}

func (sc *Scheduler) coresLiveLocked() int {
	total := 0
	for _, e := range sc.entries {
		total += e.cores
	}
	return total
}

// oldestIdleLocked picks the retirement victim: the least-recently-used
// entry that is unleased and idle.
func (sc *Scheduler) oldestIdleLocked() (string, *entry) {
	var (
		vKey   string
		victim *entry
	)
	for key, e := range sc.entries {
		if e.leases > 0 || !e.sess.Idle() {
			continue
		}
		if victim == nil || e.sess.LastUsed().Before(victim.sess.LastUsed()) {
			vKey, victim = key, e
		}
	}
	return vKey, victim
}

// Sessions returns a snapshot of the live sessions, for introspection.
func (sc *Scheduler) Sessions() []*Session {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]*Session, 0, len(sc.entries))
	for _, e := range sc.entries {
		out = append(out, e.sess)
	}
	return out
}

// Metrics returns a snapshot of the scheduler's counters. The queued and
// in-flight gauges are derived from the live sessions' queues at snapshot
// time.
func (sc *Scheduler) Metrics() Metrics {
	sc.mu.Lock()
	ranks := sc.ranksLiveLocked()
	cores := sc.coresLiveLocked()
	live := len(sc.entries)
	var queued, inFlight, leases int64
	for _, e := range sc.entries {
		leases += int64(e.leases)
		queued += int64(e.sess.QueueLen())
		if e.sess.Executing() {
			inFlight++
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
		LeasesActive:      leases,
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
	sessions := make([]*Session, 0, len(sc.entries))
	for _, e := range sc.entries {
		sessions = append(sessions, e.sess)
	}
	sc.entries = make(map[string]*entry)
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
