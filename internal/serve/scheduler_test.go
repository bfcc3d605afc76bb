package serve

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/topo"
	"repro/internal/tune"
)

// TestSchedulerShapeRouting checks the shape-keyed routing contract: two
// distinct shapes spin up two sessions, and repeats of each land on the
// live session as hits.
func TestSchedulerShapeRouting(t *testing.T) {
	sc := NewScheduler(SchedulerConfig{CoreBudget: 64})
	defer sc.Close()

	mul := func(m, k, n int, seed uint64) {
		t.Helper()
		a := matrix.Random(m, k, seed)
		b := matrix.Random(k, n, seed+1)
		got, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxAbsDiff(got, reference(a, b)); d > oracleTol {
			t.Fatalf("wrong product: %g", d)
		}
	}

	for i := 0; i < 3; i++ {
		mul(32, 32, 32, uint64(i*2+1))
		mul(16, 24, 8, uint64(i*2+100))
	}

	m := sc.Metrics()
	if m.SessionsLive != 2 {
		t.Fatalf("SessionsLive = %d, want 2 (one per shape)", m.SessionsLive)
	}
	if m.SessionMisses != 2 {
		t.Fatalf("SessionMisses = %d, want 2", m.SessionMisses)
	}
	if m.SessionHits != 4 {
		t.Fatalf("SessionHits = %d, want 4", m.SessionHits)
	}
	if m.Completed != 6 || m.Requests != 6 {
		t.Fatalf("Completed/Requests = %d/%d, want 6/6", m.Completed, m.Requests)
	}
	if m.LatencyP50Seconds <= 0 || m.LatencyP99Seconds < m.LatencyP50Seconds {
		t.Fatalf("implausible latency quantiles p50=%g p99=%g", m.LatencyP50Seconds, m.LatencyP99Seconds)
	}
	if m.RanksLive != 0 {
		t.Fatalf("RanksLive = %d with nothing executing, want 0", m.RanksLive)
	}
}

// TestSchedulerPaddedShapesDoNotCollide is the regression test for
// shape-keyed routing with padding: two request shapes that pad to the
// same execution shape (16x16x16 and 15x16x16 on a 2x2 grid with b=4)
// must land on separate sessions — a session's staging buffers are pinned
// to the request shape — and both must keep succeeding in any order.
func TestSchedulerPaddedShapesDoNotCollide(t *testing.T) {
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16})
	defer sc.Close()

	rp := tune.ResolveParams{Procs: 4, BlockSize: 4}
	mul := func(m int) {
		t.Helper()
		a := matrix.Random(m, 16, uint64(m))
		b := matrix.Random(16, 16, uint64(m+1))
		got, _, err := sc.Multiply(a, b, rp)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if d := matrix.MaxAbsDiff(got, reference(a, b)); d > oracleTol {
			t.Fatalf("m=%d: wrong product (%g)", m, d)
		}
	}
	mul(16)
	mul(15) // pads to the same 16x16x16 execution shape
	mul(16)
	mul(15)
	m := sc.Metrics()
	if m.SessionsLive != 2 {
		t.Fatalf("SessionsLive = %d, want 2 (one per request shape)", m.SessionsLive)
	}
	if m.Completed != 4 {
		t.Fatalf("Completed = %d, want 4", m.Completed)
	}
}

// TestSchedulerRejectsInvalidSpecBeforeSession is the regression test for
// square-only specs that used to pass resolution: Cannon on 8 ranks (a
// 2×4 grid) spawned a resident session that held its cores until LRU
// retirement, then failed inside every rank. It must fail in resolution,
// with no session created.
func TestSchedulerRejectsInvalidSpecBeforeSession(t *testing.T) {
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16})
	defer sc.Close()
	a := matrix.Random(16, 16, 1)
	b := matrix.Random(16, 16, 2)
	if _, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 8, Algorithm: "cannon"}); err == nil {
		t.Fatal("cannon on 8 procs accepted")
	}
	if m := sc.Metrics(); m.SessionsLive != 0 || m.SessionMisses != 0 {
		t.Fatalf("SessionsLive = %d, SessionMisses = %d, want 0 and 0", m.SessionsLive, m.SessionMisses)
	}
}

// TestSchedulerRankBudget checks the session pool: once it holds
// maxSessions sessions a new shape retires the least-recently-used idle
// one, a new shape finding every session busy is rejected with
// ErrOverloaded, RanksLive counts the ranks of the batches executing, and
// a request larger than the whole budget is ErrTooLarge.
func TestSchedulerRankBudget(t *testing.T) {
	sc := NewScheduler(SchedulerConfig{CoreBudget: 8})
	defer sc.Close()

	mul := func(n, procs int) error {
		a := matrix.Random(n, n, 1)
		b := matrix.Random(n, n, 2)
		_, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: procs})
		return err
	}
	for i := 0; i < maxSessions; i++ {
		if err := mul(8+i, 4); err != nil {
			t.Fatal(err)
		}
	}
	if m := sc.Metrics(); m.SessionsLive != maxSessions || m.SessionsRetired != 0 || m.RanksLive != 0 {
		t.Fatalf("full pool: live=%d retired=%d ranks=%d, want %d/0/0", m.SessionsLive, m.SessionsRetired, m.RanksLive, maxSessions)
	}
	// One more shape: the oldest idle session (n = 8) retires.
	if err := mul(8+maxSessions, 4); err != nil {
		t.Fatal(err)
	}
	m := sc.Metrics()
	if m.SessionsRetired != 1 || m.SessionsLive != maxSessions {
		t.Fatalf("after retirement: retired=%d live=%d, want 1/%d", m.SessionsRetired, m.SessionsLive, maxSessions)
	}
	for _, s := range sc.Sessions() {
		if s.Shape() == matrix.Square(8) {
			t.Fatal("the least-recently-used session survived retirement")
		}
	}

	// Park one request in every session: none is idle, so a new shape is
	// backpressure, and every parked batch counts in RanksLive.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, which waits for the parked runners
	started := make(chan struct{}, maxSessions)
	res := make(chan error, maxSessions)
	for _, s := range sc.Sessions() {
		s.beforeRun = func() { started <- struct{}{}; <-gate }
		go func(n int) { res <- mul(n, 4) }(s.Shape().M)
	}
	for i := 0; i < maxSessions; i++ {
		<-started
	}
	if got := sc.Metrics().RanksLive; got != 4*maxSessions {
		t.Fatalf("RanksLive = %d with %d four-rank batches executing, want %d", got, maxSessions, 4*maxSessions)
	}
	if err := mul(64, 4); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("new shape with every session busy: want ErrOverloaded, got %v", err)
	}
	release()
	for i := 0; i < maxSessions; i++ {
		if err := <-res; err != nil {
			t.Fatal(err)
		}
	}

	// A request larger than the whole budget can never be admitted —
	// that is ErrTooLarge (non-retryable), not transient backpressure.
	if err := mul(64, 16); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("budget-exceeding request: want ErrTooLarge, got %v", err)
	}
	if sc.Metrics().Errors == 0 {
		t.Fatal("unservable request not counted as an error")
	}
}

// TestSchedulerCoreBudgetHybrid checks the budget unit is cores, not
// ranks: a request's ranks × threads must fit it (ErrTooLarge otherwise,
// even when its rank count alone would fit), sessions are not retired to
// make room for cores, and CoresLive counts a hybrid batch's ranks ×
// threads while it executes.
func TestSchedulerCoreBudgetHybrid(t *testing.T) {
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16})
	defer sc.Close()

	mul := func(n, procs, threads int) error {
		a := matrix.Random(n, n, 1)
		b := matrix.Random(n, n, 2)
		got, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: procs, Threads: threads})
		if err != nil {
			return err
		}
		if d := matrix.MaxAbsDiff(got, reference(a, b)); d > oracleTol {
			t.Errorf("n=%d procs=%d threads=%d: wrong product (%g)", n, procs, threads, d)
		}
		return nil
	}

	// 4 ranks × 2 threads = 8 cores, then 4 × 4 = 16: the whole budget,
	// beside the idle 8-core session.
	if err := mul(32, 4, 2); err != nil {
		t.Fatal(err)
	}
	if err := mul(48, 4, 4); err != nil {
		t.Fatal(err)
	}
	// 4 ranks fit the budget, but 4 ranks × 8 threads = 32 cores never
	// will: non-retryable ErrTooLarge, not backpressure.
	if err := mul(64, 4, 8); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-budget hybrid request: want ErrTooLarge, got %v", err)
	}
	if err := mul(32, 4, 0); err != nil {
		t.Fatal(err)
	}
	m := sc.Metrics()
	if m.SessionsRetired != 0 || m.SessionsLive != 3 || m.CoresLive != 0 || m.RanksLive != 0 {
		t.Fatalf("idle: retired=%d live=%d cores=%d ranks=%d, want 0/3/0/0",
			m.SessionsRetired, m.SessionsLive, m.CoresLive, m.RanksLive)
	}

	// While the 4 × 4 session executes, it is the host's load: 4 ranks,
	// 16 cores.
	var hybrid *Session
	for _, s := range sc.Sessions() {
		if s.Spec().Opts.Threads == 4 {
			hybrid = s
		}
	}
	gate, started := make(chan struct{}), make(chan struct{}, 1)
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, which waits for the parked runner
	hybrid.beforeRun = func() { started <- struct{}{}; <-gate }
	res := make(chan error, 1)
	go func() { res <- mul(48, 4, 4) }()
	<-started
	if m := sc.Metrics(); m.RanksLive != 4 || m.CoresLive != 16 {
		t.Fatalf("executing: RanksLive/CoresLive = %d/%d, want 4/16", m.RanksLive, m.CoresLive)
	}
	release()
	if err := <-res; err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerBudgetBeforeResolution pins the per-request ceiling on
// values that overflow ranks × threads or would make resolution factorise
// an absurd rank count: each is ErrTooLarge at once, opens no session and
// leaves the gauges sane.
func TestSchedulerBudgetBeforeResolution(t *testing.T) {
	sc := NewScheduler(SchedulerConfig{})
	defer sc.Close()
	a, b := matrix.Random(16, 16, 1), matrix.Random(16, 16, 2)
	for _, rp := range []tune.ResolveParams{
		{Procs: 4, Threads: 1 << 62},                         // 4 × 2^62 wraps to 0
		{Procs: 1<<62 + 3},                                   // factorising it takes seconds
		{Procs: 4, Grid: &topo.Grid{S: 1 << 32, T: 1 << 32}}, // S·T wraps to 0
	} {
		start := time.Now()
		_, _, err := sc.Multiply(a, b, rp)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%+v: want ErrTooLarge, got %v", rp, err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("%+v: rejected after %v, want under 100 ms", rp, d)
		}
	}
	if m := sc.Metrics(); m.SessionMisses != 0 || m.SessionsLive != 0 || m.CoresLive != 0 || m.Errors != 3 {
		t.Fatalf("misses=%d live=%d cores=%d errors=%d, want 0/0/0/3", m.SessionMisses, m.SessionsLive, m.CoresLive, m.Errors)
	}
	if _, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4}); err != nil {
		t.Fatalf("an ordinary request after the rejections: %v", err)
	}
}

// TestSchedulerBackpressure checks a full session queue surfaces
// ErrOverloaded through Scheduler.Multiply.
func TestSchedulerBackpressure(t *testing.T) {
	sc := NewScheduler(SchedulerConfig{CoreBudget: 8, QueueDepth: 1})
	defer sc.Close()

	shape := matrix.Square(16)
	a := matrix.Random(shape.M, shape.K, 1)
	b := matrix.Random(shape.K, shape.N, 2)

	// Prime the session, then gate its runner so the queue can fill.
	if _, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4}); err != nil {
		t.Fatal(err)
	}
	sessions := sc.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("want 1 session, have %d", len(sessions))
	}
	sess := sessions[0]
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	sess.beforeRun = func() {
		started <- struct{}{}
		<-gate
	}

	res := make(chan error, 2)
	go func() { _, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4}); res <- err }()
	<-started // executing, parked on the gate
	go func() { _, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4}); res <- err }()
	for sess.QueueLen() < 1 {
		runtime.Gosched()
	}

	if _, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: want ErrOverloaded, got %v", err)
	}
	m := sc.Metrics()
	if m.Rejected == 0 {
		t.Fatal("backpressure rejection not counted")
	}
	if m.Queued == 0 {
		t.Fatal("queued gauge should be non-zero while the queue is full")
	}
	if m.InFlight == 0 {
		t.Fatal("in-flight gauge should be non-zero while the runner is gated")
	}

	close(gate)
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	if err := <-res; err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerGracefulDrain checks Close semantics through the front
// door: in-flight requests finish with correct results, queued ones fail
// with ErrClosed, and new requests are refused.
func TestSchedulerGracefulDrain(t *testing.T) {
	sc := NewScheduler(SchedulerConfig{CoreBudget: 8, QueueDepth: 4})

	shape := matrix.Square(16)
	a := matrix.Random(shape.M, shape.K, 1)
	b := matrix.Random(shape.K, shape.N, 2)
	if _, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4}); err != nil {
		t.Fatal(err)
	}
	sess := sc.Sessions()[0]
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	sess.beforeRun = func() {
		started <- struct{}{}
		<-gate
	}

	type result struct {
		out *matrix.Dense
		err error
	}
	inflight := make(chan result, 1)
	go func() {
		out, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4})
		inflight <- result{out, err}
	}()
	<-started

	queued := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4})
			queued <- err
		}()
	}
	for sess.QueueLen() < 2 {
		runtime.Gosched()
	}

	done := make(chan struct{})
	go func() { sc.Close(); close(done) }()
	close(gate)
	<-done

	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request should survive Close, got %v", r.err)
	}
	if d := matrix.MaxAbsDiff(r.out, reference(a, b)); d > oracleTol {
		t.Fatalf("in-flight result wrong: %g", d)
	}
	for i := 0; i < 2; i++ {
		if err := <-queued; !errors.Is(err, ErrClosed) {
			t.Fatalf("queued request: want ErrClosed, got %v", err)
		}
	}
	if _, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close request: want ErrClosed, got %v", err)
	}
	// No request lost or double-executed: the server's completed count is
	// exactly the calls that returned a product (the primer and the
	// in-flight one), and every call is accounted for as completed, closed
	// out (two queued, one post-close) or refused.
	const products, closed = 2, 3
	m := sc.Metrics()
	if m.Completed != products {
		t.Fatalf("completed = %d, want %d (the calls that returned a product)", m.Completed, products)
	}
	if m.Errors != closed || m.Requests != m.Completed+m.Errors+m.Rejected {
		t.Fatalf("requests %d != completed %d + closed %d (want %d) + refused %d",
			m.Requests, m.Completed, m.Errors, closed, m.Rejected)
	}
}

// TestSchedulerConcurrentMixedShapes hammers the scheduler with concurrent
// requests of two shapes and checks every admitted result is exact — the
// mixed-traffic regime the daemon serves.
func TestSchedulerConcurrentMixedShapes(t *testing.T) {
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16, QueueDepth: 64})
	defer sc.Close()

	shapes := []matrix.Shape{matrix.Square(24), {M: 16, N: 8, K: 32}}
	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := shapes[i%2]
			a := matrix.Random(sh.M, sh.K, uint64(i+1))
			b := matrix.Random(sh.K, sh.N, uint64(i+200))
			got, _, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4})
			if err != nil {
				errs <- err
				return
			}
			if d := matrix.MaxAbsDiff(got, reference(a, b)); d > oracleTol {
				errs <- errors.New("wrong product under mixed concurrency")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := sc.Metrics()
	if m.Completed != callers {
		t.Fatalf("Completed = %d, want %d", m.Completed, callers)
	}
	if m.SessionsLive != 2 {
		t.Fatalf("SessionsLive = %d, want 2", m.SessionsLive)
	}
}
