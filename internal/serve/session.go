// Package serve is the GEMM-as-a-service layer: the master-worker serving
// design of Dongarra et al. (Revisiting Matrix Product on Master-Worker
// Platforms) layered over this repository's transport-agnostic engine, so
// the paper's tuned HSUMMA schedules serve a *stream* of products. Between
// requests it keeps what a stream of same-shape products shares — the
// resolved plan, a queue and the operand scratch — and neither the ranks,
// which every run spawns afresh, nor a runner, which lives only while the
// queue holds work.
//
// Three pieces compose the subsystem:
//
//   - Session: a per-spec work queue pinned to one resolved execution spec,
//     so a repeat multiply of the same shape pays no planning. Each batch
//     runs through Execute, the path the one-shot façade takes too: the
//     ranks are goroutines spawned for that run, they read views of the
//     caller's operands and accumulate into the result, and only an
//     operand that lacks the execution shape is copied, once, into
//     session-resident scratch. Work arriving at an idle session starts a
//     runner goroutine; it takes the head of the queue, coalesces the queued
//     requests behind it that share its A operand into one batched multi-RHS
//     execution, runs it, and exits when the queue is empty.
//
//   - Scheduler: the admission-controlled front door. Requests are keyed by
//     their execution-shape key (engine.Spec.Key) and routed to a bounded
//     pool of sessions, spinning sessions up on miss and retiring the
//     least-recently-used idle one when the pool is full. A request whose
//     ranks × threads exceed the core budget is refused before it is
//     resolved; bounded queues apply backpressure (ErrOverloaded) and
//     counters expose hits/misses, queue depths and latency quantiles.
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
	"slices"
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
	// ErrOverloaded reports backpressure: a bounded queue was full, or the
	// session pool was full and no session in it was idle. Clients should
	// retry with backoff (the HTTP layer maps it to 503 + Retry-After).
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrTooLarge reports a request that can never be admitted — it needs
	// more cores (ranks × threads) than the scheduler's core budget — so
	// retrying is pointless (the HTTP layer maps it to 400, not 503).
	ErrTooLarge = errors.New("serve: request exceeds the core budget")
)

// Stats reports one multiplication's execution statistics: the run
// statistics every live surface shares (RunStats, embedded so the JSON stays
// flat) plus the serving layer's queueing, batching and tracing fields.
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
	// TraceID names the flight-recorder capture this request was sampled
	// into (empty when the request was not sampled). The same id appears in
	// the request log record and at GET /debug/traces/{id}.
	TraceID string
}

// Session is a persistent execution context for one resolved spec: a work
// queue plus the scratch that operands lacking the execution shape are
// staged through (see Execute). It holds no ranks and, while its queue is
// empty, no goroutine: work arriving at an idle session starts a runner,
// which serves the queue in arrival order — coalescing same-A requests into
// one batched run of at most maxBatch — and exits when the queue is empty.
// At most queueDepth requests wait: Multiply blocks for a slot, while the
// scheduler's admission fails with ErrOverloaded. Close drains gracefully
// (the executing batch finishes; queued requests fail with ErrClosed).
type Session struct {
	spec   engine.Spec
	req    matrix.Shape // requested (pre-padding) problem shape
	key    string
	labels pprof.LabelSet // carried by the runner and every rank it spawns

	// scratch holds the execution-shaped operand copies. Only the runner
	// touches it, and one runner exits before the next starts, so no lock
	// is needed.
	scratch Scratch
	// batchable: the algorithm accepts a widened RHS, so same-A requests
	// coalesce. Square-only specs (Cannon, Fox) never batch.
	batchable bool

	mu        sync.Mutex
	changed   sync.Cond // on mu: the queue shrank, or the runner exited
	queue     []*job    // admitted and not yet executing, in arrival order
	running   bool      // a runner goroutine is live
	executing bool      // a batch is executing
	closed    bool

	calls    atomic.Int64
	lastUsed atomic.Int64 // unix nanos; scheduler retirement order

	// Test hooks for making queue states deterministic: beforeStage runs
	// with the head of the queue about to lead a batch, before followers
	// are collected; beforeRun before each batch executes; staged is handed
	// the tiles the ranks are about to read and accumulate into.
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

// wait blocks until the job is served or failed.
func (j *job) wait() (*matrix.Dense, Stats, error) {
	<-j.done
	return j.out, j.stats, j.err
}

// NewSession builds a session pinned to a resolved, padded execution spec
// (as produced by tune.ResolveSpec) serving requests of the given
// pre-padding problem shape. It starts no goroutine.
func NewSession(reqShape matrix.Shape, spec engine.Spec) (*Session, error) {
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
	key := spec.Key()
	s := &Session{
		spec: spec, req: reqShape, key: key, scratch: make(Scratch),
		// The spec key labels pprof samples per served shape.
		labels: pprof.Labels("hsumma_spec", key),
	}
	s.changed.L = &s.mu
	// Batching needs the algorithm to accept a widened RHS; probe once.
	_, err := spec.WithRHS(2 * reqShape.N)
	s.batchable = err == nil
	s.touch()
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

// Idle reports whether the session has no queued work and no runner — the
// precondition for the scheduler to retire it. A request stays queued until
// its batch starts executing, so one the runner is about to serve counts as
// work.
func (s *Session) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) == 0 && !s.running
}

// LastUsed returns the time of the session's most recent activity.
func (s *Session) LastUsed() time.Time { return time.Unix(0, s.lastUsed.Load()) }

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// QueueLen returns the number of admitted requests that have not started
// executing.
func (s *Session) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Executing reports whether a batch is running right now.
func (s *Session) Executing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.executing
}

// Multiply computes A·B on the session, blocking while earlier
// requests drain (the runner serves concurrent callers in arrival order).
// The operands must match the session's problem shape exactly. The session
// does not copy them at submission: the ranks read a and b in place (or copy
// them into scratch only when the batch is staged), so the caller must leave
// both untouched until Multiply returns — they are never written.
func (s *Session) Multiply(a, b *matrix.Dense) (*matrix.Dense, Stats, error) {
	j, err := s.submit(a, b, true, false)
	if err != nil {
		return nil, Stats{}, err
	}
	return j.wait()
}

// submit admits one request to the queue and returns it for the caller to
// wait on, starting a runner if the session has none. block selects
// Multiply's wait-for-a-slot over an immediate ErrOverloaded when the
// queue is full; a non-blocking submit never waits, so the scheduler calls
// it under its own lock. traced additionally records a per-rank span timeline for this one
// request (the scheduler's flight-recorder sampling) — tracing is per-job,
// so concurrent untraced requests on the same session pay nothing.
func (s *Session) submit(a, b *matrix.Dense, block, traced bool) (*job, error) {
	if a.Rows != s.req.M || a.Cols != s.req.K || b.Rows != s.req.K || b.Cols != s.req.N {
		return nil, fmt.Errorf("serve: operands %dx%d · %dx%d do not match session shape %v",
			a.Rows, a.Cols, b.Rows, b.Cols, s.req)
	}
	j := &job{a: a, b: b, start: time.Now(), traced: traced, done: make(chan struct{})}
	s.mu.Lock()
	defer s.mu.Unlock()
	for block && !s.closed && len(s.queue) >= queueDepth {
		s.changed.Wait()
	}
	if s.closed {
		return nil, ErrClosed
	}
	if len(s.queue) >= queueDepth {
		return nil, ErrOverloaded
	}
	s.queue = append(s.queue, j)
	if !s.running {
		s.running = true
		go pprof.Do(context.Background(), s.labels, func(context.Context) { s.run() })
	}
	return j, nil
}

// run is the session's runner: collect a batch from the queue, execute it,
// repeat, and exit when there is nothing left to collect.
func (s *Session) run() {
	for {
		// The hook runs only with work queued, so tests can gate batch
		// formation deterministically.
		if s.QueueLen() > 0 && s.beforeStage != nil {
			s.beforeStage()
		}
		s.mu.Lock()
		batch := s.collectLocked()
		if len(batch) == 0 {
			s.running = false
			s.changed.Broadcast()
			s.mu.Unlock()
			return
		}
		s.executing = true
		s.changed.Broadcast() // the batch's admission slots are free
		s.mu.Unlock()
		s.execute(batch)
	}
}

// collectLocked takes the next batch off the queue: the head, and behind it
// the requests that share the head's A operand, up to maxBatch, in arrival
// order. The first request with a different A ends the batch and stays
// queued to lead the next one. It never waits for arrivals, so coalescing
// adds no latency.
func (s *Session) collectLocked() []*job {
	if len(s.queue) == 0 {
		return nil
	}
	k := 1
	for s.batchable && k < maxBatch && k < len(s.queue) && sameOperand(s.queue[k].a, s.queue[0].a) {
		k++
	}
	batch := slices.Clone(s.queue[:k])
	// Shift the rest down so the taken jobs are not kept reachable by the
	// queue's backing array.
	n := copy(s.queue, s.queue[k:])
	clear(s.queue[n:])
	s.queue = s.queue[:n]
	return batch
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
	if s.beforeRun != nil {
		s.beforeRun()
	}
	s.touch()

	k := len(batch)
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
	// read Calls or the executing gauge.
	s.mu.Lock()
	s.executing = false
	s.mu.Unlock()
	if err != nil {
		for _, j := range batch {
			j.finish(err)
		}
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

// Close stops the session: a batch already executing finishes, queued
// requests fail with ErrClosed, later submissions are refused with
// ErrClosed, and Close returns once the runner, if any, has exited. It is
// idempotent and safe to call concurrently with Multiply.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, j := range s.queue {
		j.finish(ErrClosed)
	}
	s.queue = nil
	s.changed.Broadcast() // wake blocked submitters: they see closed
	for s.running {
		s.changed.Wait()
	}
	return nil
}
