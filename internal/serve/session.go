// Package serve is the GEMM-as-a-service layer: it keeps the distributed
// runtime resident between multiplications so the paper's carefully tuned
// HSUMMA schedules are amortised over a *stream* of products instead of
// exactly one — the master-worker serving design of Dongarra et al.
// (Revisiting Matrix Product on Master-Worker Platforms) layered over this
// repository's transport-agnostic engine.
//
// Three pieces compose the subsystem:
//
//   - Session: a persistent mpi world whose rank goroutines stay resident
//     and loop on a per-session work queue, pinned to one resolved
//     execution spec. Block maps and scatter tiles are built once and
//     reused, so a repeat multiply of the same shape pays data movement and
//     compute only — no spawn, no plan, no map construction, no tile
//     allocation. The runner is a two-stage pipeline: a stager scatters
//     request i+1's operands into a second buffer set while the ranks
//     compute request i (double buffering), and queued requests that share
//     the A operand are coalesced into one batched multi-RHS execution.
//
//   - Scheduler: the admission-controlled front door. Requests are keyed by
//     their execution-shape key (engine.Spec.Key) and routed to a pool of
//     sessions, spinning sessions up on miss and retiring idle ones under a
//     configurable rank budget; bounded queues apply backpressure
//     (ErrOverloaded) and counters expose hits/misses, queue depths and
//     latency quantiles.
//
//   - HTTP handler (http.go): POST /multiply (JSON or raw little-endian
//     float64 bodies), GET /plan and GET /metrics over a Scheduler — the
//     daemon face cmd/hsumma-serve serves.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// Typed serving errors, reported via errors.Is through every layer
// (Session, Scheduler, and as HTTP status codes by the handler).
var (
	// ErrClosed reports a request submitted to (or queued on) a session or
	// scheduler that has been closed; queued requests receive it during a
	// graceful drain while in-flight ones finish normally.
	ErrClosed = errors.New("serve: closed")
	// ErrOverloaded reports backpressure: a bounded queue was full or the
	// core budget could not admit a new session right now. Clients should
	// retry with backoff (the HTTP layer maps it to 503 + Retry-After).
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrTooLarge reports a request that can never be admitted — it needs
	// more cores (ranks × threads) than the scheduler's whole budget — so
	// retrying is pointless (the HTTP layer maps it to 400, not 503).
	ErrTooLarge = errors.New("serve: request exceeds the core budget")
)

// Stats reports one multiplication's execution statistics — the serving
// analogue of the façade's hsumma.Stats, extended with the wall/setup
// decomposition that makes the session-reuse win measurable.
type Stats struct {
	// Messages and Bytes are rank-traffic totals, identical to what a
	// one-shot run of the same spec reports. Requests served as part of a
	// coalesced batch report the whole batched run's traffic (the run is
	// shared; per-request attribution would be fiction).
	Messages int64
	Bytes    int64
	// MaxRankCommSeconds is the largest per-rank wall time spent inside
	// communication calls.
	MaxRankCommSeconds float64
	// MaxRankWaitSeconds is the largest per-rank time spent blocked on a
	// message that had not arrived yet (≤ MaxRankCommSeconds): waiting for
	// a peer or a core, as opposed to moving data.
	MaxRankWaitSeconds float64
	// WallSeconds is the end-to-end request time: queue wait + setup +
	// distributed run + gather.
	WallSeconds float64
	// SetupSeconds is the pre-run data-staging time paid on this request:
	// operand scatter + output-tile zeroing (shared across a batch), plus —
	// on the one-shot path only — spec resolution, block-map construction
	// and tile allocation. Warm sessions skip that second group entirely,
	// and the pipelined runner overlaps this stage with the previous
	// request's execution.
	SetupSeconds float64
	// DecodeSeconds is the time the daemon spent reading and decoding the
	// request body into operands, before the request was queued — outside
	// WallSeconds. Set by the HTTP handler only; 0 for library callers.
	DecodeSeconds float64
	// QueueSeconds is the time the request waited behind earlier work on
	// the session queue before staging began.
	QueueSeconds float64
	// RunSeconds is the distributed execution itself — the resident world
	// run (of the whole batch, when coalesced), excluding queueing, staging
	// and gather.
	RunSeconds float64
	// GemmSeconds is the largest per-rank time inside local multiplies.
	GemmSeconds float64
	// CommSecondsByPhase breaks the critical rank's communication time
	// down by phase ("bcast", "shift", "p2p"); entries sum to
	// MaxRankCommSeconds.
	CommSecondsByPhase map[string]float64
	// BusyImbalance is max/mean per-rank busy (comm + gemm) time.
	BusyImbalance float64
	// SpecKey is the execution-shape key of the session that served the
	// request — the label the serve histograms and pprof samples carry.
	SpecKey string
	// BatchSize is the number of same-A requests coalesced into the single
	// execution that served this request (1 = unbatched).
	BatchSize int
	// OverlapSeconds is this request's share of staging time that ran
	// concurrently with another request's execution — the double-buffering
	// win, measured (0 on the serial path).
	OverlapSeconds float64
	// PipelineOccupancy is the number of requests resident in the session
	// (executing + staged + queued) when this request's execution began.
	PipelineOccupancy int
	// PredictedSecondsByPhase is the tuner's closed-form per-phase cost
	// prediction for the session's resolved spec, evaluated for the plan's
	// target platform. Comparing it against the measured CommSecondsByPhase
	// and GemmSeconds is the serving layer's plan-fidelity signal.
	PredictedSecondsByPhase map[string]float64
	// ModelDriftRatio is measured/predicted total seconds for the phases
	// the model predicted (0 when no prediction was available). Maintained
	// by the scheduler's drift tracker; 1.0 means the plan's cost model
	// matched reality exactly.
	ModelDriftRatio float64
	// TraceID names the flight-recorder capture this request was sampled
	// into (empty when the request was not sampled). The same id appears in
	// the request log record and at GET /debug/traces/{id}.
	TraceID string
}

// SessionConfig tunes a session's queueing and pipelining behaviour. The
// zero value means "serving defaults": QueueDepth 32, double-buffered
// staging (PipelineDepth 2) and opportunistic batching up to 8 requests.
// PipelineDepth:1 together with MaxBatch:1 is strictly serial
// stage→execute→gather, bit-identical to the pre-pipelining layer.
type SessionConfig struct {
	// QueueDepth bounds the session's admission window — requests queued or
	// staged but not yet executing (default 32). Submit blocks when it is
	// full; TrySubmit returns ErrOverloaded.
	QueueDepth int
	// PipelineDepth is the number of staging buffer sets the runner ping-
	// pongs between. 0 defaults to 2 (double buffering: stage request i+1
	// while request i executes); 1 disables the overlap: one set means a
	// request is staged only after the previous execution released it.
	PipelineDepth int
	// MaxBatch caps how many queued same-A requests the stager coalesces
	// into one multi-RHS execution. 0 defaults to 8; 1 disables batching.
	// Batching needs the algorithm to accept a widened RHS, so square-only
	// specs (Cannon, Fox) never batch regardless of this knob.
	MaxBatch int
	// BatchWindow is how long the stager, holding a batch smaller than
	// MaxBatch with an empty queue, waits for further coalescible arrivals
	// before staging what it has. 0 (the default) coalesces only requests
	// already queued — no added latency.
	BatchWindow time.Duration
}

// batchPlan is the distribution state for one batch width: the spec
// re-padded for N' = k·N_req and the B/C block maps of that widened shape.
// The A-side map is width-independent and lives on the session.
type batchPlan struct {
	spec     engine.Spec
	bmB, bmC *dist.BlockMap
}

// bufset is one staging buffer set the pipeline ping-pongs between: the
// A tiles plus, per batch width, the B/C tiles of that width's plan.
// Buffers are allocated on first use and owned by whichever pipeline stage
// holds the set (possession moves through channels, so no locking).
type bufset struct {
	aT  []*matrix.Dense
	rhs map[int]*rhsBufs
}

// rhsBufs holds the RHS-side tiles for one batch width.
type rhsBufs struct {
	bT, cT []*matrix.Dense
}

// staged is a fully staged batch in flight between the stager and the
// executor.
type staged struct {
	bs   *bufset
	rb   *rhsBufs
	plan *batchPlan
	jobs []*job
	rec  *trace.Recorder
}

// Session is a persistent execution context for one resolved spec: a
// resident mpi world plus the reusable data-staging state (block maps and
// per-pipeline-slot scatter tiles). Concurrent Multiply calls are admitted
// through the session queue and served in arrival order; the pipelined
// runner overlaps one request's staging with another's execution and may
// coalesce same-A requests into one batched run. Close drains gracefully
// (the in-flight batch finishes, queued and staged-but-unexecuted requests
// fail with ErrClosed).
type Session struct {
	spec engine.Spec
	req  matrix.Shape // requested (pre-padding) problem shape
	key  string

	world *mpi.PersistentWorld
	bmA   *dist.BlockMap
	base  *batchPlan // width-1 plan: the session's own spec and B/C maps

	// plans caches the re-padded spec and maps per batch width. Only the
	// staging goroutine touches it, so no lock is needed.
	plans     map[int]*batchPlan
	batchable bool

	depth    int // admission window (QueueDepth)
	maxBatch int
	window   time.Duration

	jobs    chan *job
	free    chan *bufset // staging buffer sets not currently holding work
	handoff chan *staged // staged batches awaiting execution
	quit    chan struct{}
	done    chan struct{} // closed when the runner exits

	mu       sync.Mutex
	closed   bool
	pending  int  // jobs reserved for the queue but not yet taken by the stager
	stagedN  int  // jobs taken by the stager (staging or staged) but not executing
	inFlight bool // a batch is currently executing

	calls     atomic.Int64
	lastUsed  atomic.Int64 // unix nanos; scheduler retirement order
	execStart atomic.Int64 // unix nanos of the running execution, 0 when idle

	// beforeRun, when set, is invoked before executing each batch;
	// beforeStage before each staging pass. Test hooks for making queue and
	// pipeline states deterministic.
	beforeRun   func()
	beforeStage func()
}

// job is one queued multiplication.
type job struct {
	a, b  *matrix.Dense
	start time.Time
	// traced asks the runner to record a span timeline for this one request
	// (the daemon's flight-recorder sampling); rec holds it afterwards. Traced
	// jobs coalesced into one batch share the batch's recorder.
	traced bool
	rec    *trace.Recorder

	out   *matrix.Dense
	stats Stats
	err   error
	done  chan struct{}
}

func (j *job) finish(err error) {
	j.err = err
	close(j.done)
}

// NewSession builds a session pinned to a resolved, padded execution spec
// (as produced by tune.ResolveSpec) serving requests of the given
// pre-padding problem shape. The spec's world is spawned immediately and
// stays resident until Close.
func NewSession(reqShape matrix.Shape, spec engine.Spec, cfg SessionConfig) (*Session, error) {
	if err := reqShape.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	es := spec.Shape() // execution shape (padded when needed)
	if es.M < reqShape.M || es.N < reqShape.N || es.K < reqShape.K {
		return nil, fmt.Errorf("serve: execution shape %v smaller than request shape %v", es, reqShape)
	}
	grid := spec.Opts.Grid
	if grid.S <= 0 || grid.T <= 0 {
		return nil, fmt.Errorf("serve: spec has no process grid (resolve it first)")
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 32
	}
	pd := cfg.PipelineDepth
	if pd <= 0 {
		pd = 2
	}
	mb := cfg.MaxBatch
	if mb <= 0 {
		mb = 8
	}
	bmA, err := dist.NewBlockMap(es.M, es.K, grid)
	if err != nil {
		return nil, err
	}
	bmB, err := dist.NewBlockMap(es.K, es.N, grid)
	if err != nil {
		return nil, err
	}
	bmC, err := dist.NewBlockMap(es.M, es.N, grid)
	if err != nil {
		return nil, err
	}
	// Label the resident rank goroutines (and the runner goroutines below)
	// with the spec key so pprof profiles attribute samples per served
	// shape.
	labels := []string{"hsumma_spec", spec.Key()}
	world, err := mpi.PersistentLabeled(grid.Size(), labels)
	if err != nil {
		return nil, err
	}
	s := &Session{
		spec: spec, req: reqShape, key: spec.Key(),
		world: world, bmA: bmA,
		base:  &batchPlan{spec: spec, bmB: bmB, bmC: bmC},
		plans: make(map[int]*batchPlan),
		depth: depth, maxBatch: mb, window: cfg.BatchWindow,
		jobs:    make(chan *job, depth),
		free:    make(chan *bufset, pd),
		handoff: make(chan *staged, pd),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	// Batching needs the algorithm to accept a widened RHS; probe once.
	if mb > 1 {
		if _, err := spec.WithRHS(2 * reqShape.N); err == nil {
			s.batchable = true
		}
	}
	// The first buffer set is allocated eagerly so a cold session's first
	// request pays scatter only (matching the historical construction
	// cost); further sets allocate on first use.
	first := &bufset{}
	s.ensureBufs(first, s.base, 1)
	s.free <- first
	for i := 1; i < pd; i++ {
		s.free <- &bufset{}
	}
	s.touch()
	go pprof.Do(context.Background(), pprof.Labels(labels...), func(context.Context) { s.run() })
	return s, nil
}

// Key returns the session's execution-shape key (engine.Spec.Key) — the
// identity the scheduler routes by.
func (s *Session) Key() string { return s.key }

// Shape returns the problem shape the session serves (pre-padding).
func (s *Session) Shape() matrix.Shape { return s.req }

// Spec returns the resolved execution spec the session is pinned to.
func (s *Session) Spec() engine.Spec { return s.spec }

// Ranks returns the number of resident ranks (the session's cost against a
// scheduler rank budget).
func (s *Session) Ranks() int { return s.world.Size() }

// Calls returns the number of completed multiplications.
func (s *Session) Calls() int64 { return s.calls.Load() }

// Idle reports whether the session has no queued, no staged and no
// in-flight work — the precondition for the scheduler to retire it. A
// request sitting staged in the pipeline handoff counts as work: retiring
// the session then would drop it.
func (s *Session) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending == 0 && s.stagedN == 0 && !s.inFlight
}

// LastUsed returns the time of the session's most recent activity.
func (s *Session) LastUsed() time.Time { return time.Unix(0, s.lastUsed.Load()) }

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// QueueLen returns the number of admitted requests that have not started
// executing — queued plus staged-in-pipeline.
func (s *Session) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending + s.stagedN
}

// Executing reports whether a request is running right now.
func (s *Session) Executing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inFlight
}

// Multiply computes A·B on the resident session, blocking while earlier
// requests drain (the session pipeline serves concurrent callers in
// arrival order). The operands must match the session's problem shape
// exactly.
func (s *Session) Multiply(a, b *matrix.Dense) (*matrix.Dense, Stats, error) {
	out, st, _, err := s.submit(a, b, true, false)
	return out, st, err
}

// TryMultiply is Multiply with backpressure instead of blocking: a full
// admission window returns ErrOverloaded immediately.
func (s *Session) TryMultiply(a, b *matrix.Dense) (*matrix.Dense, Stats, error) {
	out, st, _, err := s.submit(a, b, false, false)
	return out, st, err
}

// submit queues one request. block selects Multiply's wait-for-a-slot over
// TryMultiply's ErrOverloaded; traced additionally records a per-rank span
// timeline for this one request and returns it (the scheduler's
// flight-recorder sampling) — tracing is per-job, so concurrent untraced
// requests on the same session pay nothing.
func (s *Session) submit(a, b *matrix.Dense, block, traced bool) (*matrix.Dense, Stats, *trace.Recorder, error) {
	if a.Rows != s.req.M || a.Cols != s.req.K || b.Rows != s.req.K || b.Cols != s.req.N {
		return nil, Stats{}, nil, fmt.Errorf("serve: operands %dx%d · %dx%d do not match session shape %v",
			a.Rows, a.Cols, b.Rows, b.Cols, s.req)
	}
	j := &job{a: a, b: b, start: time.Now(), traced: traced, done: make(chan struct{})}

	// Reserve a queue slot under the lock so a concurrent Close knows
	// exactly how many jobs its drain must fail. The admission window spans
	// queued and staged work: the stager empties the channel into the
	// pipeline, so channel occupancy alone is not the backlog.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, Stats{}, nil, ErrClosed
	}
	if !block {
		if s.pending+s.stagedN >= s.depth {
			s.mu.Unlock()
			return nil, Stats{}, nil, ErrOverloaded
		}
		s.pending++
		s.mu.Unlock()
		s.jobs <- j // admission reserved above; cannot block past depth
	} else {
		s.pending++
		s.mu.Unlock()
		// May block on a full queue; the runner (or the drain loop after a
		// concurrent Close) is guaranteed to take it.
		s.jobs <- j
	}
	<-j.done
	return j.out, j.stats, j.rec, j.err
}

// run is the session's one runner, a two-stage pipeline: a stager goroutine
// scatters operands into free buffer sets and hands staged batches to an
// executor goroutine, so staging of request i+1 overlaps execution of
// request i. PipelineDepth is the number of buffer sets in circulation:
// with one set the stager cannot start request i+1 until request i's
// execution has returned it, so depth 1 is the strictly serial
// stage→execute→gather order on the same two loops.
func (s *Session) run() {
	defer close(s.done)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.stageLoop() }()
	go func() { defer wg.Done(); s.executeLoop() }()
	wg.Wait()
	// Both loops exited on quit: fail whatever was staged but never
	// executed, then everything still queued or reserved.
	s.drainHandoff()
	s.drain()
}

// take moves one job from the queue into the pipeline's accounting.
func (s *Session) take(j *job) {
	s.mu.Lock()
	s.pending--
	s.stagedN++
	s.mu.Unlock()
}

// stageLoop is the pipeline's first stage: acquire a free buffer set, take
// the next request, coalesce compatible followers, stage the batch and
// hand it to the executor.
func (s *Session) stageLoop() {
	var held *job
	for {
		// A free buffer set first: parking here holds no jobs, so Close
		// while the pipeline is saturated fails nothing spuriously.
		var bs *bufset
		select {
		case <-s.quit:
			s.failHeld(held)
			return
		case bs = <-s.free:
		}
		var lead *job
		if held != nil {
			lead, held = held, nil
		} else {
			select {
			case <-s.quit:
				return
			case j := <-s.jobs:
				s.take(j)
				lead = j
			}
		}
		// The hook runs with the lead in hand (never before the first job
		// arrives) so tests can gate batch formation deterministically.
		if s.beforeStage != nil {
			s.beforeStage()
		}
		var batch []*job
		batch, held = s.collect(lead)
		st := s.stage(bs, batch)
		if st == nil {
			s.free <- bs
			continue
		}
		select {
		case <-s.quit:
			s.finishBatch(batch, ErrClosed, true)
			s.failHeld(held)
			return
		case s.handoff <- st:
		}
	}
}

// executeLoop is the pipeline's second stage: run staged batches on the
// resident world and gather results. Quit is checked first so a Close
// issued mid-execution deterministically fails later staged batches
// instead of racing them.
func (s *Session) executeLoop() {
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case st := <-s.handoff:
			s.executeBatch(st)
		}
	}
}

// collect coalesces queued requests behind lead that share its A operand
// into one batch (FIFO order preserved). A request with a different A ends
// the batch and is returned as the next batch's lead. With BatchWindow set
// the stager waits up to the window for further arrivals while below
// MaxBatch and the queue is empty.
func (s *Session) collect(lead *job) (batch []*job, held *job) {
	batch = []*job{lead}
	if !s.batchable || s.maxBatch <= 1 {
		return batch, nil
	}
	var deadline <-chan time.Time
	for len(batch) < s.maxBatch {
		select {
		case j := <-s.jobs:
			s.take(j)
			if !sameOperand(j.a, lead.a) {
				return batch, j
			}
			batch = append(batch, j)
		default:
			if s.window <= 0 {
				return batch, nil
			}
			if deadline == nil {
				t := time.NewTimer(s.window)
				defer t.Stop()
				deadline = t.C
			}
			select {
			case j := <-s.jobs:
				s.take(j)
				if !sameOperand(j.a, lead.a) {
					return batch, j
				}
				batch = append(batch, j)
			case <-deadline:
				return batch, nil
			case <-s.quit:
				// Let the caller's quit handling fail the batch.
				return batch, nil
			}
		}
	}
	return batch, nil
}

// sameOperand reports whether two operands are the same matrix: the same
// backing storage (the scheduler-free fast path for callers reusing one A
// across requests), or equal element-wise — an O(M·K) check, trivial next
// to the 2·M·N·K flops a missed coalescing opportunity would leave on the
// table. NaN-bearing operands never compare equal and thus never batch.
func sameOperand(x, y *matrix.Dense) bool {
	if x == y {
		return true
	}
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return false
	}
	if x.Rows == 0 || x.Cols == 0 {
		return true
	}
	if &x.Data[0] == &y.Data[0] && x.Stride == y.Stride {
		return true
	}
	for i := 0; i < x.Rows; i++ {
		xr := x.Data[i*x.Stride : i*x.Stride+x.Cols]
		yr := y.Data[i*y.Stride : i*y.Stride+y.Cols]
		for c := range xr {
			if xr[c] != yr[c] {
				return false
			}
		}
	}
	return true
}

// plan returns the batchPlan for a batch of width k, building and caching
// it on first use. Only the staging goroutine calls it.
func (s *Session) plan(k int) (*batchPlan, error) {
	if k <= 1 {
		return s.base, nil
	}
	if p, ok := s.plans[k]; ok {
		return p, nil
	}
	spec, err := s.spec.WithRHS(k * s.req.N)
	if err != nil {
		return nil, err
	}
	es := spec.Shape()
	grid := spec.Opts.Grid
	bmB, err := dist.NewBlockMap(es.K, es.N, grid)
	if err != nil {
		return nil, err
	}
	bmC, err := dist.NewBlockMap(es.M, es.N, grid)
	if err != nil {
		return nil, err
	}
	p := &batchPlan{spec: spec, bmB: bmB, bmC: bmC}
	s.plans[k] = p
	return p, nil
}

// ensureBufs returns the buffer set's RHS tiles for width k, allocating
// the A tiles and the width's B/C tiles on first use. Tiles are zeroed at
// allocation; ScatterPart rewrites exactly the request region every time,
// so the zero pad fringe is preserved across reuses.
func (s *Session) ensureBufs(bs *bufset, plan *batchPlan, k int) *rhsBufs {
	if bs.aT == nil {
		bs.aT = allocTiles(s.bmA)
	}
	if bs.rhs == nil {
		bs.rhs = make(map[int]*rhsBufs)
	}
	rb, ok := bs.rhs[k]
	if !ok {
		rb = &rhsBufs{bT: allocTiles(plan.bmB), cT: allocTiles(plan.bmC)}
		bs.rhs[k] = rb
	}
	return rb
}

func allocTiles(bm *dist.BlockMap) []*matrix.Dense {
	tiles := make([]*matrix.Dense, bm.Grid().Size())
	for r := range tiles {
		tr, tc := bm.TileShape(r)
		tiles[r] = matrix.New(tr, tc)
	}
	return tiles
}

// stage scatters a batch's operands into the buffer set: A once (shared),
// each request's B at its column offset, C zeroed. Returns nil after
// failing the batch if no execution plan exists for the width (impossible
// for widths collect admits, kept as a guard).
func (s *Session) stage(bs *bufset, batch []*job) *staged {
	k := len(batch)
	plan, err := s.plan(k)
	if err != nil {
		s.finishBatch(batch, err, true)
		return nil
	}
	stageStart := time.Now()
	var rec *trace.Recorder
	for _, j := range batch {
		j.stats.QueueSeconds = stageStart.Sub(j.start).Seconds()
		if j.traced {
			if rec == nil {
				rec = trace.New(s.world.Size())
			}
			j.rec = rec
		}
	}
	rb := s.ensureBufs(bs, plan, k)
	s.bmA.ScatterPart(bs.aT, batch[0].a, 0, 0)
	for i, j := range batch {
		plan.bmB.ScatterPart(rb.bT, j.b, 0, i*s.req.N)
	}
	for _, t := range rb.cT {
		t.Zero()
	}
	setup := time.Since(stageStart)
	if rec != nil {
		es := plan.spec.Shape()
		rec.Host(trace.PhaseScatter, rec.Since(stageStart), setup.Seconds(),
			int64(8*(es.M*es.K+es.K*es.N)), 0)
	}
	// The double-buffering win, measured: staging time spent while another
	// request's execution was in flight, attributed evenly across the
	// batch.
	var perJob float64
	if es := s.execStart.Load(); es != 0 {
		begin := stageStart.UnixNano()
		if es > begin {
			begin = es
		}
		if end := time.Now().UnixNano(); end > begin {
			perJob = float64(end-begin) / 1e9 / float64(k)
		}
	}
	for _, j := range batch {
		j.stats.SetupSeconds = setup.Seconds()
		j.stats.OverlapSeconds = perJob
	}
	s.touch()
	return &staged{bs: bs, rb: rb, plan: plan, jobs: batch, rec: rec}
}

// executeBatch runs a staged batch on the resident world, gathers each
// request's column slice of the batched C, and returns the buffer set to
// the free pool.
func (s *Session) executeBatch(st *staged) {
	k := len(st.jobs)
	s.mu.Lock()
	s.stagedN -= k
	s.inFlight = true
	occupancy := k + s.stagedN + s.pending
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inFlight = false
		s.mu.Unlock()
	}()
	if s.beforeRun != nil {
		s.beforeRun()
	}
	s.touch()

	var mu sync.Mutex
	var algErr error
	s.execStart.Store(time.Now().UnixNano())
	runStart := time.Now()
	ranks, err := s.world.RunOnTraced(func(c *mpi.Comm) {
		r := c.Rank()
		if e := engine.Run(mpi.AsComm(c), st.plan.spec, st.bs.aT[r], st.rb.bT[r], st.rb.cT[r]); e != nil {
			mu.Lock()
			if algErr == nil {
				algErr = e
			}
			mu.Unlock()
		}
	}, st.rec)
	runSec := time.Since(runStart).Seconds()
	s.execStart.Store(0)
	if err == nil {
		err = algErr
	}
	if err != nil {
		s.finishBatch(st.jobs, err, false)
		s.free <- st.bs
		return
	}
	sum := mpi.Summarize(ranks)
	gatherStart := time.Now()
	for i, j := range st.jobs {
		j.stats.Messages = sum.Messages
		j.stats.Bytes = sum.Bytes
		j.stats.MaxRankCommSeconds = sum.MaxComm
		j.stats.MaxRankWaitSeconds = sum.MaxWait
		j.stats.GemmSeconds = sum.MaxGemm
		j.stats.CommSecondsByPhase = trace.CommPhaseMap(sum.CommByPhase)
		j.stats.BusyImbalance = sum.Imbalance
		j.stats.SpecKey = s.key
		j.stats.PredictedSecondsByPhase = s.spec.Predicted
		j.stats.RunSeconds = runSec
		j.stats.BatchSize = k
		j.stats.PipelineOccupancy = occupancy
		// Each request's product is its own column slice of the batched C;
		// GatherPart reads the request-shaped region straight out of the
		// tiles (the padded fringe is never materialised).
		out := matrix.New(s.req.M, s.req.N)
		st.plan.bmC.GatherPart(out, st.rb.cT, 0, i*s.req.N)
		j.out = out
	}
	if st.rec != nil {
		st.rec.Host(trace.PhaseGather, st.rec.Since(gatherStart),
			time.Since(gatherStart).Seconds(), int64(8*k*s.req.M*s.req.N), 0)
	}
	// Release the buffer set before completing the jobs: results live in
	// fresh per-request matrices, and an early release lets the stager
	// begin the next scatter that much sooner.
	s.free <- st.bs
	// Close the books before completing: a caller released by finish may
	// read Calls, or submit its next request and need this session Idle.
	s.calls.Add(int64(k))
	s.mu.Lock()
	s.inFlight = false
	s.mu.Unlock()
	for _, j := range st.jobs {
		j.stats.WallSeconds = time.Since(j.start).Seconds()
		j.finish(nil)
	}
	s.touch()
}

// finishBatch fails every job of a batch; adjustStaged is set when the
// jobs still count as staged (not yet handed to executeBatch, which does
// its own accounting).
func (s *Session) finishBatch(batch []*job, err error, adjustStaged bool) {
	if adjustStaged {
		s.mu.Lock()
		s.stagedN -= len(batch)
		s.mu.Unlock()
	}
	for _, j := range batch {
		j.finish(err)
	}
}

// failHeld fails a job the stager pulled off the queue as a prospective
// next-batch lead when quit arrives before it could be staged.
func (s *Session) failHeld(j *job) {
	if j == nil {
		return
	}
	s.mu.Lock()
	s.stagedN--
	s.mu.Unlock()
	j.finish(ErrClosed)
}

// drainHandoff fails batches that were staged but never picked up by the
// executor before quit.
func (s *Session) drainHandoff() {
	for {
		select {
		case st := <-s.handoff:
			s.finishBatch(st.jobs, ErrClosed, true)
		default:
			return
		}
	}
}

// drain fails every job that was enqueued (or reserved by a blocked
// sender) before Close marked the session closed.
func (s *Session) drain() {
	for {
		s.mu.Lock()
		p := s.pending
		s.mu.Unlock()
		if p == 0 {
			return
		}
		j := <-s.jobs
		s.mu.Lock()
		s.pending--
		s.mu.Unlock()
		j.finish(ErrClosed)
	}
}

// Close stops the session: the in-flight batch (if any) finishes, queued
// and staged-but-unexecuted requests fail with ErrClosed, and the resident
// world is released. It is idempotent and safe to call concurrently with
// Multiply.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	<-s.done
	s.world.Close()
	return nil
}
