package serve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/tune"
)

// oracleTol bounds the difference between the served product and the
// sequential oracle: the packed register-tiled kernel accumulates each
// entry through per-kc-block partial sums (and FMA on amd64), a different
// float association than Naive's strictly serial one.
const oracleTol = 1e-9

// reference computes the oracle product.
func reference(a, b *matrix.Dense) *matrix.Dense {
	c := matrix.New(a.Rows, b.Cols)
	blas.Naive(c, a, b)
	return c
}

// TestSessionCorrectness checks repeated multiplies of fresh operands on
// one session against the sequential oracle, including a padded
// (non-divisible) shape where the reused pad fringe must stay zero.
func TestSessionCorrectness(t *testing.T) {
	cases := []struct {
		name  string
		shape matrix.Shape
		rp    tune.ResolveParams
	}{
		{"divisible", matrix.Square(32), tune.ResolveParams{Procs: 4}},
		{"padded", matrix.Shape{M: 30, N: 26, K: 22}, tune.ResolveParams{Procs: 4}},
		{"rect", matrix.Shape{M: 48, N: 16, K: 32}, tune.ResolveParams{Procs: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rp := tc.rp
			rp.Shape = tc.shape
			spec, err := tune.ResolveSpec(rp)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(tc.shape, spec, SessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			for i := 0; i < 3; i++ {
				a := matrix.Random(tc.shape.M, tc.shape.K, uint64(10*i+1))
				b := matrix.Random(tc.shape.K, tc.shape.N, uint64(10*i+2))
				got, stats, err := sess.Multiply(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if d := matrix.MaxAbsDiff(got, reference(a, b)); d > oracleTol {
					t.Fatalf("call %d: max |diff| = %g vs oracle", i, d)
				}
				if stats.Messages == 0 || stats.WallSeconds <= 0 {
					t.Fatalf("call %d: implausible stats %+v", i, stats)
				}
			}
			if sess.Calls() != 3 {
				t.Fatalf("Calls() = %d, want 3", sess.Calls())
			}
		})
	}
}

// TestSessionShapeMismatch checks operands of the wrong shape are rejected
// without touching the queue.
func TestSessionShapeMismatch(t *testing.T) {
	shape := matrix.Square(16)
	spec, err := tune.ResolveSpec(tune.ResolveParams{Shape: shape, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(shape, spec, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, _, err := sess.Multiply(matrix.New(8, 16), matrix.New(16, 16)); err == nil {
		t.Fatal("mismatched operands accepted")
	}
}

// TestSessionConcurrentCallers drives one session from many goroutines:
// the queue must serialise them and every result must be exact.
func TestSessionConcurrentCallers(t *testing.T) {
	shape := matrix.Square(24)
	spec, err := tune.ResolveSpec(tune.ResolveParams{Shape: shape, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(shape, spec, SessionConfig{QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const callers = 12
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := matrix.Random(shape.M, shape.K, uint64(i+1))
			b := matrix.Random(shape.K, shape.N, uint64(i+100))
			got, _, err := sess.Multiply(a, b)
			if err != nil {
				errs <- err
				return
			}
			if d := matrix.MaxAbsDiff(got, reference(a, b)); d > oracleTol {
				errs <- errors.New("wrong product under concurrency")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if sess.Calls() != callers {
		t.Fatalf("Calls() = %d, want %d", sess.Calls(), callers)
	}
}

// TestSessionDrainOnClose checks the graceful-drain contract: the
// in-flight request finishes with a correct result, queued requests fail
// with ErrClosed, and new submissions after Close fail with ErrClosed.
func TestSessionDrainOnClose(t *testing.T) {
	shape := matrix.Square(16)
	spec, err := tune.ResolveSpec(tune.ResolveParams{Shape: shape, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(shape, spec, SessionConfig{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	sess.beforeRun = func() {
		started <- struct{}{}
		<-gate
	}

	a := matrix.Random(shape.M, shape.K, 1)
	b := matrix.Random(shape.K, shape.N, 2)

	type result struct {
		out *matrix.Dense
		err error
	}
	inflight := make(chan result, 1)
	go func() {
		out, _, err := sess.Multiply(a, b)
		inflight <- result{out, err}
	}()
	<-started // the first request is now executing, parked on the gate

	queuedRes := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, _, err := sess.Multiply(a, b)
			queuedRes <- err
		}()
	}
	// Wait until all three sit in the queue behind the gated request.
	for sess.QueueLen() < 3 {
		runtime.Gosched()
	}

	closed := make(chan struct{})
	go func() {
		sess.Close()
		close(closed)
	}()
	close(gate) // release the in-flight request
	<-closed

	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request should finish cleanly, got %v", r.err)
	}
	if d := matrix.MaxAbsDiff(r.out, reference(a, b)); d > oracleTol {
		t.Fatalf("in-flight result wrong after drain: %g", d)
	}
	for i := 0; i < 3; i++ {
		if err := <-queuedRes; !errors.Is(err, ErrClosed) {
			t.Fatalf("queued request %d: want ErrClosed, got %v", i, err)
		}
	}
	if _, _, err := sess.Multiply(a, b); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: want ErrClosed, got %v", err)
	}
}

// TestSessionBackpressure checks TryMultiply's bounded-queue rejection.
func TestSessionBackpressure(t *testing.T) {
	shape := matrix.Square(16)
	spec, err := tune.ResolveSpec(tune.ResolveParams{Shape: shape, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(shape, spec, SessionConfig{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	sess.beforeRun = func() {
		started <- struct{}{}
		<-gate
	}
	a := matrix.Random(shape.M, shape.K, 1)
	b := matrix.Random(shape.K, shape.N, 2)

	res := make(chan error, 2)
	go func() { _, _, err := sess.Multiply(a, b); res <- err }()
	<-started // executing, parked
	go func() { _, _, err := sess.Multiply(a, b); res <- err }()
	for sess.QueueLen() < 1 {
		runtime.Gosched()
	} // the queue (depth 1) is now full

	if _, _, err := sess.TryMultiply(a, b); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: want ErrOverloaded, got %v", err)
	}

	close(gate)
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	sess.Close()
}

// TestSessionStagesByViews pins the staging rule by aliasing, not timing.
// Rank 0's tiles, seen through the staged hook just before the run: an
// operand that has the execution shape is read at the caller's own first
// element (and C accumulates at the returned product's) — no element was
// copied and nothing is gathered; one that lacks it (padded, or the B and C
// of a k = 3 batch) sits in the session scratch. The caller's operands are
// bit-unchanged either way.
func TestSessionStagesByViews(t *testing.T) {
	first := func(m *matrix.Dense) *float64 { return &m.Data[0] }
	for _, tc := range []struct {
		name                      string
		shape                     matrix.Shape
		k                         int
		copiesA, copiesB, copiesC bool
	}{
		{"unpadded", matrix.Square(32), 1, false, false, false},
		{"K-only padded", matrix.Shape{M: 30, N: 26, K: 23}, 1, true, true, false},
		{"padded", matrix.Shape{M: 29, N: 27, K: 23}, 1, true, true, true},
		{"batch of 3", matrix.Square(32), 3, false, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := tune.ResolveSpec(tune.ResolveParams{Shape: tc.shape, Procs: 4})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(tc.shape, spec, SessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			var a0, b0, c0 *float64
			sess.staged = func(aT, bT, cT []*matrix.Dense) { a0, b0, c0 = first(aT[0]), first(bT[0]), first(cT[0]) }

			a := matrix.Random(tc.shape.M, tc.shape.K, 1)
			bs := make([]*matrix.Dense, tc.k)
			for i := range bs {
				bs[i] = matrix.Random(tc.shape.K, tc.shape.N, uint64(2+i))
			}
			aBefore, bBefore := a.Clone(), bs[0].Clone()
			var out *matrix.Dense
			if tc.k == 1 {
				if out, _, err = sess.Multiply(a, bs[0]); err != nil {
					t.Fatal(err)
				}
			} else {
				results := forceBatch(t, sess, a, bs)
				for _, r := range results {
					if r.err != nil || r.stats.BatchSize != tc.k {
						t.Fatalf("forced batch: err %v, BatchSize %d", r.err, r.stats.BatchSize)
					}
				}
				out = results[0].out
			}
			if !matrix.Equal(a, aBefore) || !matrix.Equal(bs[0], bBefore) {
				t.Fatal("the session wrote to a caller's operand")
			}
			for _, op := range []struct {
				name    string
				got     *float64
				caller  *matrix.Dense
				copies  bool
				scratch [2]int
			}{
				{"A", a0, a, tc.copiesA, [2]int{operandA, 0}},
				{"B", b0, bs[0], tc.copiesB, [2]int{operandB, tc.k}},
				{"C", c0, out, tc.copiesC, [2]int{operandC, tc.k}},
			} {
				sc := sess.scratch[op.scratch]
				switch {
				case op.copies && (sc == nil || op.got != first(sc)):
					t.Errorf("%s lacks the execution shape, but rank 0's tile does not alias the session scratch", op.name)
				case !op.copies && (sc != nil || op.got != first(op.caller)):
					t.Errorf("%s has the execution shape, but rank 0's tile does not alias the caller's matrix", op.name)
				}
			}
		})
	}
}

// TestWarmSessionAllocation is the session-level twin of the handler's and
// the façade's allocation budgets: a warm unpadded 256³ request allocates
// its 512 KB product plus O(p) view headers — a second buffer set, a copied
// operand or a gathered C each blow through it.
func TestWarmSessionAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds load at random under the race detector")
	}
	const n = 256
	spec, err := tune.ResolveSpec(tune.ResolveParams{Shape: matrix.Square(n), Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(matrix.Square(n), spec, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	a, b := matrix.Random(n, n, 1), matrix.Random(n, n, 2)
	run := func() {
		if _, _, err := sess.Multiply(a, b); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the payload pool and the kernel's packing buffers
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e3; kb > 8*n*n/1e3+150 {
		t.Fatalf("a warm request allocates %.0f KB; the product is %d KB and the budget 150 KB more", kb, 8*n*n/1000)
	} else {
		t.Logf("%.0f KB per warm request (product %d KB)", kb, 8*n*n/1000)
	}
}

// TestSessionHoldsNoRanks checks that an idle session holds no goroutine:
// neither ranks nor a runner. Once a 16-rank session has served a multiply,
// the process is back to its baseline while the session is still open. The
// run's rank goroutines and the runner exit as the queue empties, so the
// count is polled briefly rather than read once.
func TestSessionHoldsNoRanks(t *testing.T) {
	base := runtime.NumGoroutine()
	settlesTo := func(limit int) int {
		deadline := time.Now().Add(2 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= limit || time.Now().After(deadline) {
				return n
			}
			time.Sleep(time.Millisecond)
		}
	}
	shape := matrix.Square(64)
	spec, err := tune.ResolveSpec(tune.ResolveParams{Shape: shape, Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	if p := spec.Opts.Grid.Size(); p != 16 {
		t.Fatalf("resolved a %d-rank grid, want 16", p)
	}
	sess, err := NewSession(shape, spec, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, _, err := sess.Multiply(matrix.Random(64, 64, 1), matrix.Random(64, 64, 2)); err != nil {
		t.Fatal(err)
	}
	if n := settlesTo(base); n > base {
		t.Fatalf("%d goroutines after a multiply on an open session, want at most the baseline %d", n, base)
	}
}

// TestSessionSpecPprofLabel pins the profiler label README §Observability
// promises: the session's runner carries hsumma_spec = its spec key, and so
// does every rank goroutine a run spawns. The runner is read while parked
// in beforeRun; the ranks live only during a run, so the goroutine profile
// is read until a run is caught in progress.
func TestSessionSpecPprofLabel(t *testing.T) {
	const n = 384
	shape := matrix.Square(n)
	spec, err := tune.ResolveSpec(tune.ResolveParams{Shape: shape, Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(shape, spec, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	label := fmt.Sprintf(`# labels: {"hsumma_spec":%q}`, sess.Key())
	// goroutines returns the goroutine profile's records (debug=1: one per
	// distinct stack and label set) whose stack names fn.
	goroutines := func(fn string) []string {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, rec := range strings.Split(buf.String(), "\n\n") {
			if strings.Contains(rec, fn) {
				out = append(out, rec)
			}
		}
		return out
	}

	started, gate := make(chan struct{}, 1), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, which waits for the parked runner
	sess.beforeRun = func() { started <- struct{}{}; <-gate }
	a, b := matrix.Random(n, n, 1), matrix.Random(n, n, 2)
	done := make(chan error, 1)
	go func() { _, _, err := sess.Multiply(a, b); done <- err }()
	<-started
	runners := goroutines("serve.(*Session).run")
	if len(runners) != 1 || !strings.Contains(runners[0], label) {
		t.Fatalf("want one runner labeled %s, have:\n%s", label, strings.Join(runners, "\n\n"))
	}
	sess.beforeRun = func() { started <- struct{}{} }
	release()

	for caught, deadline := false, time.Now().Add(10*time.Second); !caught; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if time.Now().After(deadline) {
				t.Fatal("no run caught in progress before the deadline")
			}
			go func() { _, _, err := sess.Multiply(a, b); done <- err }()
			<-started
		default:
			for _, rec := range goroutines("mpi.RunStatsTraced") {
				if !strings.Contains(rec, label) {
					t.Fatalf("a rank goroutine lacks %s:\n%s", label, rec)
				}
				caught = true
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
