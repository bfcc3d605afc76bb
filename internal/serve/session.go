// Package serve is the GEMM-as-a-service layer: the master-worker serving
// design of Dongarra et al. (Revisiting Matrix Product on Master-Worker
// Platforms) layered over this repository's transport-agnostic engine, so
// the paper's tuned HSUMMA schedules serve a *stream* of products. Between
// requests it keeps what a stream of same-shape products shares — the
// resolved plan, a queue and the operand scratch — and not the ranks,
// which every run spawns afresh.
//
// Three pieces compose the subsystem:
//
//   - Session: a per-spec work queue pinned to one resolved execution spec,
//     so a repeat multiply of the same shape pays no planning. Each batch
//     runs through Execute, the path the one-shot façade takes too: the
//     ranks are goroutines spawned for that run, they read views of the
//     caller's operands and accumulate into the result, and only an
//     operand that lacks the execution shape is copied, once, into
//     session-resident scratch. One runner loop takes a request, coalesces
//     queued requests that share its A operand into one batched multi-RHS
//     execution, and runs it.
//
//   - Scheduler: the admission-controlled front door. Requests are keyed by
//     their execution-shape key (engine.Spec.Key) and routed to a pool of
//     sessions, spinning sessions up on miss and retiring idle ones under a
//     configurable core budget; bounded queues apply backpressure
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

	"repro/internal/engine"
	"repro/internal/matrix"
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

// Stats reports one multiplication's execution statistics: the run
// statistics every live surface shares (RunStats, embedded so the JSON stays
// flat) plus the serving layer's queueing, batching and fidelity fields.
type Stats struct {
	RunStats
	// DecodeSeconds is the time the daemon spent reading and decoding the
	// request body into operands, before the request was queued — outside
	// WallSeconds. Set by the HTTP handler only; 0 for library callers.
	DecodeSeconds float64
	// QueueSeconds is the time the request waited behind earlier work on
	// the session queue before staging began.
	QueueSeconds float64
	// RunSeconds is the distributed execution itself — the rank goroutines'
	// run (of the whole batch, when coalesced), spawn included, excluding
	// queueing, staging and the crop.
	RunSeconds float64
	// SpecKey is the execution-shape key of the session that served the
	// request — the label the serve histograms and pprof samples carry.
	SpecKey string
	// BatchSize is the number of same-A requests coalesced into the single
	// execution that served this request (1 = unbatched).
	BatchSize int
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

// SessionConfig tunes a session's queueing and batching behaviour. The zero
// value means "serving defaults": QueueDepth 32 and opportunistic batching
// up to 8 requests.
type SessionConfig struct {
	// QueueDepth bounds the session's admission window — requests queued or
	// taken by the runner but not yet executing (default 32). Submit blocks
	// when it is full; TrySubmit returns ErrOverloaded.
	QueueDepth int
	// MaxBatch caps how many queued same-A requests the runner coalesces
	// into one multi-RHS execution. 0 defaults to 8; 1 disables batching.
	// Batching needs the algorithm to accept a widened RHS, so square-only
	// specs (Cannon, Fox) never batch regardless of this knob.
	MaxBatch int
	// BatchWindow is how long the runner, holding a batch smaller than
	// MaxBatch with an empty queue, waits for further coalescible arrivals
	// before executing what it has. 0 (the default) coalesces only requests
	// already queued — no added latency.
	BatchWindow time.Duration
}

// Session is a persistent execution context for one resolved spec: a work
// queue plus the scratch that operands lacking the execution shape are
// staged through (see Execute). It holds no ranks: every batch runs on rank
// goroutines spawned for that run. Concurrent Multiply calls are
// admitted through the session queue and served in arrival order by one
// runner loop, which may coalesce same-A requests into one batched run.
// Close drains gracefully (the in-flight batch finishes; queued requests and
// those the runner had taken but not started fail with ErrClosed).
type Session struct {
	spec engine.Spec
	req  matrix.Shape // requested (pre-padding) problem shape
	key  string

	// scratch holds the execution-shaped operand copies. Only the runner
	// goroutine touches it, so no lock is needed.
	scratch   Scratch
	batchable bool

	depth    int // admission window (QueueDepth)
	maxBatch int
	window   time.Duration

	jobs chan *job
	quit chan struct{}
	done chan struct{} // closed when the runner exits

	mu       sync.Mutex
	closed   bool
	pending  int  // jobs reserved for the queue but not yet taken by the runner
	taken    int  // jobs the runner holds (lead, followers, held) but is not executing
	inFlight bool // a batch is currently executing

	calls    atomic.Int64
	lastUsed atomic.Int64 // unix nanos; scheduler retirement order

	// Test hooks for making queue states deterministic: beforeStage runs
	// with a lead in hand, before followers are collected; beforeRun before
	// each batch executes; staged is handed the tiles the ranks are about to
	// read and accumulate into.
	beforeRun   func()
	beforeStage func()
	staged      func(aT, bT, cT []*matrix.Dense)
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
// pre-padding problem shape. It starts the session's runner goroutine,
// which lives until Close.
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
	mb := cfg.MaxBatch
	if mb <= 0 {
		mb = 8
	}
	s := &Session{
		spec: spec, req: reqShape, key: spec.Key(), scratch: make(Scratch),
		depth: depth, maxBatch: mb, window: cfg.BatchWindow,
		jobs: make(chan *job, depth),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	// Batching needs the algorithm to accept a widened RHS; probe once.
	if mb > 1 {
		if _, err := spec.WithRHS(2 * reqShape.N); err == nil {
			s.batchable = true
		}
	}
	s.touch()
	// Label the runner with the spec key so pprof profiles attribute
	// samples per served shape. Goroutines inherit their creator's labels,
	// so every run's rank goroutines carry the label too.
	go pprof.Do(context.Background(), pprof.Labels("hsumma_spec", s.key), func(context.Context) { s.run() })
	return s, nil
}

// Key returns the session's execution-shape key (engine.Spec.Key) — the
// identity the scheduler routes by.
func (s *Session) Key() string { return s.key }

// Shape returns the problem shape the session serves (pre-padding).
func (s *Session) Shape() matrix.Shape { return s.req }

// Spec returns the resolved execution spec the session is pinned to.
func (s *Session) Spec() engine.Spec { return s.spec }

// Calls returns the number of completed multiplications.
func (s *Session) Calls() int64 { return s.calls.Load() }

// Idle reports whether the session has no queued, no taken and no in-flight
// work — the precondition for the scheduler to retire it. A request the
// runner has dequeued but not started (the lead, a coalesced follower, or a
// different-A job held for the next batch) counts as work: retiring the
// session then would drop it.
func (s *Session) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending == 0 && s.taken == 0 && !s.inFlight
}

// LastUsed returns the time of the session's most recent activity.
func (s *Session) LastUsed() time.Time { return time.Unix(0, s.lastUsed.Load()) }

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// QueueLen returns the number of admitted requests that have not started
// executing — queued plus taken by the runner.
func (s *Session) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending + s.taken
}

// Executing reports whether a request is running right now.
func (s *Session) Executing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inFlight
}

// Multiply computes A·B on the session, blocking while earlier
// requests drain (the runner serves concurrent callers in arrival order).
// The operands must match the session's problem shape exactly. The session
// does not copy them at submission: the ranks read a and b in place (or copy
// them into scratch only when the batch is staged), so the caller must leave
// both untouched until Multiply returns — they are never written.
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
	// queued and taken work: the runner empties the channel while it
	// collects a batch, so channel occupancy alone is not the backlog.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, Stats{}, nil, ErrClosed
	}
	if !block && s.pending+s.taken >= s.depth {
		s.mu.Unlock()
		return nil, Stats{}, nil, ErrOverloaded
	}
	s.pending++
	s.mu.Unlock()
	// A blocking submit may wait here on a full queue; the runner (or the
	// drain loop after a concurrent Close) is guaranteed to take it. A
	// non-blocking one was admitted above and cannot block past depth.
	s.jobs <- j
	<-j.done
	return j.out, j.stats, j.rec, j.err
}

// run is the session's one runner: take a lead, collect the queued requests
// that share its A operand, execute the batch, repeat. Quit is checked with
// the batch in hand, so a Close issued while the previous batch was
// executing deterministically fails everything the runner had taken
// instead of racing it.
func (s *Session) run() {
	defer close(s.done)
	var held *job
	for {
		lead := held
		if lead == nil {
			select {
			case <-s.quit:
				s.drain()
				return
			case lead = <-s.jobs:
				s.take()
			}
		}
		// The hook runs with the lead in hand (never before the first job
		// arrives) so tests can gate batch formation deterministically.
		if s.beforeStage != nil {
			s.beforeStage()
		}
		var batch []*job
		batch, held = s.collect(lead)
		select {
		case <-s.quit:
			if held != nil {
				batch = append(batch, held)
			}
			s.mu.Lock()
			s.taken -= len(batch)
			s.mu.Unlock()
			s.fail(batch, ErrClosed)
			s.drain()
			return
		default:
		}
		s.execute(batch)
	}
}

// take moves one job from the queue into the runner's accounting.
func (s *Session) take() {
	s.mu.Lock()
	s.pending--
	s.taken++
	s.mu.Unlock()
}

// collect coalesces queued requests behind lead that share its A operand
// into one batch (FIFO order preserved). A request with a different A ends
// the batch and is returned as the next batch's lead. With BatchWindow set
// the runner waits up to the window for further arrivals while below
// MaxBatch and the queue is empty.
func (s *Session) collect(lead *job) (batch []*job, held *job) {
	batch = []*job{lead}
	if !s.batchable || s.maxBatch <= 1 {
		return batch, nil
	}
	var deadline <-chan time.Time // armed when the queue first runs dry
	for len(batch) < s.maxBatch {
		var j *job
		select {
		case j = <-s.jobs:
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
			case j = <-s.jobs:
			case <-deadline:
				return batch, nil
			case <-s.quit:
				// Let run's quit handling fail the batch.
				return batch, nil
			}
		}
		s.take()
		if !sameOperand(j.a, lead.a) {
			return batch, j
		}
		batch = append(batch, j)
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

// execute runs one batch through Execute — A staged
// once (shared), each request's B side by side — and hands every request
// its own product.
func (s *Session) execute(batch []*job) {
	k := len(batch)
	s.mu.Lock()
	s.taken -= k
	s.inFlight = true
	s.mu.Unlock()
	if s.beforeRun != nil {
		s.beforeRun()
	}
	s.touch()

	start := time.Now()
	var rec *trace.Recorder
	bs := make([]*matrix.Dense, k)
	for i, j := range batch {
		bs[i] = j.b
		j.stats.QueueSeconds = start.Sub(j.start).Seconds()
		if j.traced {
			if rec == nil {
				rec = trace.New(s.spec.Opts.Grid.Size())
			}
			j.rec = rec
		}
	}
	// A batch runs as one multiply of N' = k·N_req; the re-padding cannot
	// fail for a width collect admits (NewSession probed it).
	spec, err := s.spec, error(nil)
	if k > 1 {
		spec, err = s.spec.WithRHS(k * s.req.N)
	}
	var outs []*matrix.Dense
	var rs RunStats
	var runSec float64
	if err == nil {
		outs, rs, runSec, err = Execute(spec, batch[0].a, bs, s.scratch, rec, s.staged)
	}
	// Close the books before completing: a caller released by finish may
	// read Calls, or submit its next request and need this session Idle.
	s.mu.Lock()
	s.inFlight = false
	s.mu.Unlock()
	if err != nil {
		s.fail(batch, err)
		return
	}
	s.calls.Add(int64(k))
	for i, j := range batch {
		j.out = outs[i]
		j.stats.RunStats = rs
		j.stats.SpecKey = s.key
		j.stats.RunSeconds = runSec
		j.stats.BatchSize = k
		j.stats.WallSeconds = time.Since(j.start).Seconds()
		j.finish(nil)
	}
	s.touch()
}

// fail completes jobs the runner took but will not execute (or whose
// execution failed) with err.
func (s *Session) fail(batch []*job, err error) {
	for _, j := range batch {
		j.finish(err)
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
// requests and those the runner had taken but not started fail with
// ErrClosed, and the runner goroutine exits. It is idempotent and safe to
// call concurrently with Multiply.
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
	return nil
}
