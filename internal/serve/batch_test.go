package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/tune"
)

// copyingReference is the staging rule's reference: pad A, lay the B's side
// by side in an execution-shaped matrix, Scatter private tiles, run the
// engine, Gather, crop — every step a copy. It returns each product and
// the run's traffic.
func copyingReference(t *testing.T, spec engine.Spec, a *matrix.Dense, bs []*matrix.Dense) ([]*matrix.Dense, int64, int64) {
	t.Helper()
	es, grid, n := spec.Shape(), spec.Opts.Grid, bs[0].Cols
	maps := [3]*dist.BlockMap{}
	for i, d := range [3][2]int{{es.M, es.K}, {es.K, es.N}, {es.M, es.N}} {
		var err error
		if maps[i], err = dist.NewBlockMap(d[0], d[1], grid); err != nil {
			t.Fatal(err)
		}
	}
	aP, bP := matrix.New(es.M, es.K), matrix.New(es.K, es.N)
	aP.View(0, 0, a.Rows, a.Cols).CopyFrom(a)
	for i, b := range bs {
		bP.View(0, i*n, b.Rows, n).CopyFrom(b)
	}
	aT, bT, cT := maps[0].Scatter(aP), maps[1].Scatter(bP), maps[2].Scatter(matrix.New(es.M, es.N))
	ranks, err := mpi.RunStats(grid.Size(), func(c *mpi.Comm) {
		r := c.Rank()
		if e := engine.Run(mpi.AsComm(c), spec, aT[r], bT[r], cT[r]); e != nil {
			t.Error(e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c := maps[2].Gather(cT)
	outs := make([]*matrix.Dense, len(bs))
	for i := range outs {
		outs[i] = c.View(0, i*n, a.Rows, n).Clone()
	}
	sum := mpi.Summarize(ranks)
	return outs, sum.Messages, sum.Bytes
}

// batchResult is one caller's view of a forced batch.
type batchResult struct {
	out   *matrix.Dense
	stats Stats
	err   error
}

// forceBatch submits one request per B, all sharing a, and makes the runner
// coalesce them deterministically, in order: the beforeStage hook parks it
// with the first request in hand, and each further request is submitted
// once its predecessor sits in the queue — so the batch is A · [B0 B1 …].
func forceBatch(t *testing.T, sess *Session, a *matrix.Dense, bs []*matrix.Dense) []batchResult {
	t.Helper()
	stageGate := make(chan struct{})
	sess.beforeStage = func() { <-stageGate }
	results := make([]batchResult, len(bs))
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func(i int, b *matrix.Dense) {
			defer wg.Done()
			out, st, err := sess.Multiply(a, b)
			results[i] = batchResult{out, st, err}
		}(i, b)
		// Request 0 heads the queue while the runner is parked on it;
		// request i sits behind it before the next one is submitted.
		for sess.QueueLen() < i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	// Admit the pass: the runner must coalesce all of them (they share A by
	// pointer) — and every later pass.
	close(stageGate)
	wg.Wait()
	return results
}

// TestBatchCoalescingBitIdentical forces a deterministic k = 3 coalesced
// batch and checks the batched run (each product, Messages, Bytes) is
// bit-identical to the one-shot path and to the copying reference on the
// same widened problem A · [B0 B1 B2] — and each request's slice to an
// unbatched product, bit for bit on every shape (one caller's sequential
// calls never share the queue, so they never coalesce). Multi-RHS
// batching preserves bitwise results because C[i,j] is a K-ordered dot
// product independent of neighbouring columns, and the kernel rounds it the
// same wherever its column lands in the rank's tile (blas
// TestGemmPositionIndependent), ragged and padded tiles included.
func TestBatchCoalescingBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape matrix.Shape
	}{
		{"b=1 panels", matrix.Shape{M: 30, N: 26, K: 22}},
		{"padded", matrix.Shape{M: 29, N: 27, K: 23}}, // every fringe in play
		{"divisible", matrix.Square(32)},              // only B and C go through scratch
	} {
		t.Run(tc.name, func(t *testing.T) {
			shape := tc.shape
			spec, err := tune.ResolveSpec(tune.ResolveParams{Shape: shape, Procs: 4})
			if err != nil {
				t.Fatal(err)
			}
			batched, err := NewSession(shape, spec)
			if err != nil {
				t.Fatal(err)
			}
			defer batched.Close()
			single, err := NewSession(shape, spec)
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()

			a := matrix.Random(shape.M, shape.K, 1)
			bs := make([]*matrix.Dense, 3)
			for i := range bs {
				bs[i] = matrix.Random(shape.K, shape.N, uint64(2+i))
			}
			// Twice: the second batch reuses the scratch the first one wrote.
			for round := 0; round < 2; round++ {
				results := forceBatch(t, batched, a, bs)
				wide, err := spec.WithRHS(len(bs) * shape.N)
				if err != nil {
					t.Fatal(err)
				}
				shot, shotStats, _, err := Execute(wide, a, bs, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref, refMsgs, refBytes := copyingReference(t, wide, a, bs)
				for i, r := range results {
					if r.err != nil {
						t.Fatalf("request %d: %v", i, r.err)
					}
					if r.stats.BatchSize != len(bs) {
						t.Fatalf("request %d: BatchSize = %d, want %d", i, r.stats.BatchSize, len(bs))
					}
					want, _, err := single.Multiply(a, bs[i])
					if err != nil {
						t.Fatal(err)
					}
					if !matrix.Equal(r.out, shot[i]) || !matrix.Equal(r.out, ref[i]) {
						t.Fatalf("request %d: batched result differs from the one-shot path or the copying reference (want bit-identical)", i)
					}
					if d := matrix.MaxAbsDiff(r.out, want); d != 0 {
						t.Fatalf("request %d: batched result differs from the unbatched product by %g", i, d)
					}
					if r.stats.Messages != shotStats.Messages || r.stats.Bytes != shotStats.Bytes ||
						r.stats.Messages != refMsgs || r.stats.Bytes != refBytes {
						t.Fatalf("request %d: traffic %d msg/%d B, one-shot %d/%d, copying reference %d/%d",
							i, r.stats.Messages, r.stats.Bytes, shotStats.Messages, shotStats.Bytes, refMsgs, refBytes)
					}
				}
			}
			if got := batched.Calls(); got != int64(2*len(bs)) {
				t.Fatalf("Calls() = %d, want %d", got, 2*len(bs))
			}
		})
	}
}

// TestSchedulerMixedShapesRace pushes concurrent mixed-shape traffic —
// including a padded and an exact shape that share one spec key but must
// not share a session — through a batching scheduler and checks every
// result bit-identical to an unbatched oracle. Run under -race this
// doubles as the runner's data-race test: ranks read callers' operands in
// place while other callers submit.
func TestSchedulerMixedShapesRace(t *testing.T) {
	shapes := []struct {
		shape matrix.Shape
		rp    tune.ResolveParams
	}{
		// 16³ and 15×16×16 resolve to the same padded execution shape (and
		// spec key) with BlockSize 4 on a 2x2 grid.
		{matrix.Square(16), tune.ResolveParams{Procs: 4, BlockSize: 4}},
		{matrix.Shape{M: 15, N: 16, K: 16}, tune.ResolveParams{Procs: 4, BlockSize: 4}},
		{matrix.Shape{M: 24, N: 24, K: 24}, tune.ResolveParams{Procs: 4}},
	}

	// Oracle: one session per shape, called sequentially (so nothing
	// coalesces) before the concurrent phase.
	type workload struct {
		shape matrix.Shape
		rp    tune.ResolveParams
		a, b  *matrix.Dense
		want  *matrix.Dense
	}
	var work []workload
	for si, sh := range shapes {
		rp := sh.rp
		rp.Shape = sh.shape
		spec, err := tune.ResolveSpec(rp)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewSession(sh.shape, spec)
		if err != nil {
			t.Fatal(err)
		}
		// Two operand pairs per shape; the first A is shared across both so
		// same-key batching can engage under concurrency.
		a0 := matrix.Random(sh.shape.M, sh.shape.K, uint64(1000+si))
		for v := 0; v < 2; v++ {
			b := matrix.Random(sh.shape.K, sh.shape.N, uint64(2000+10*si+v))
			want, _, err := oracle.Multiply(a0, b)
			if err != nil {
				oracle.Close()
				t.Fatal(err)
			}
			work = append(work, workload{sh.shape, sh.rp, a0, b, want})
		}
		oracle.Close()
	}

	sc := NewScheduler(SchedulerConfig{CoreBudget: 64})
	defer sc.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for it := 0; it < 6; it++ {
				wl := work[(seed+it)%len(work)]
				rp := wl.rp
				out, _, err := sc.Multiply(wl.a, wl.b, rp)
				if err != nil {
					errCh <- err
					return
				}
				if d := matrix.MaxAbsDiff(out, wl.want); d != 0 {
					errCh <- &mismatchError{d}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The same-spec-key shapes must still occupy distinct sessions.
	keys := map[string]bool{}
	for _, s := range sc.Sessions() {
		keys[s.Key()+"|"+s.Shape().String()] = true
	}
	if len(keys) < 3 {
		t.Fatalf("expected ≥3 distinct sessions, have %v", keys)
	}
}

type mismatchError struct{ d float64 }

func (e *mismatchError) Error() string { return "result differs from oracle (bitwise)" }

// TestIdleAccountsTakenWork locks in the scheduler-safety rule: a request
// the runner has dequeued but not started — the lead, a coalesced follower,
// or a different-A job held for the next batch — keeps the session
// non-idle, so LRU retirement can never reap it, and Close fails each of
// them with ErrClosed exactly once (a second finish would panic on the
// closed done channel).
func TestIdleAccountsTakenWork(t *testing.T) {
	shape := matrix.Square(16)
	spec, err := tune.ResolveSpec(tune.ResolveParams{Shape: shape, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(shape, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if !sess.Idle() {
		t.Fatal("a fresh session is not idle")
	}

	parked, gate := make(chan struct{}, 1), make(chan struct{})
	var once sync.Once
	sess.beforeStage = func() {
		once.Do(func() { parked <- struct{}{}; <-gate })
	}
	a1, a2 := matrix.Random(16, 16, 1), matrix.Random(16, 16, 2)
	b := matrix.Random(16, 16, 3)
	res := make(chan error, 3)
	submit := func(a *matrix.Dense) {
		go func() { _, _, err := sess.Multiply(a, b); res <- err }()
	}
	submit(a1) // the lead
	<-parked   // heading the queue, the runner parked before collect
	if sess.Idle() || sess.QueueLen() != 1 {
		t.Fatalf("lead parked: Idle() = %v, QueueLen() = %d; want false, 1", sess.Idle(), sess.QueueLen())
	}
	submit(a1) // a follower
	for sess.QueueLen() < 2 {
		time.Sleep(time.Millisecond)
	}
	submit(a2) // a different A: collect would leave it to lead the next batch
	for sess.QueueLen() < 3 {
		time.Sleep(time.Millisecond)
	}

	// Close while all three are admitted and none has started: Close fails
	// the queue, and the runner, released, finds nothing to collect.
	closed := make(chan struct{})
	go func() { sess.Close(); close(closed) }()
	for {
		sess.mu.Lock()
		c := sess.closed
		sess.mu.Unlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if sess.Idle() {
		t.Fatal("Idle() = true with three requests taken or queued")
	}
	close(gate)
	<-closed
	for i := 0; i < 3; i++ {
		if err := <-res; !errors.Is(err, ErrClosed) {
			t.Fatalf("taken request %d: want ErrClosed, got %v", i, err)
		}
	}
	if !sess.Idle() || sess.Calls() != 0 {
		t.Fatalf("after the drain: Idle() = %v, Calls() = %d; want true, 0", sess.Idle(), sess.Calls())
	}
}

// TestSquareOnlySpecsNeverBatch checks the cannot-batch fallback: a
// square-only algorithm (Cannon) serves same-A concurrent requests
// correctly with BatchSize pinned to 1.
func TestSquareOnlySpecsNeverBatch(t *testing.T) {
	shape := matrix.Square(16)
	spec, err := tune.ResolveSpec(tune.ResolveParams{
		Shape: shape, Procs: 4, Algorithm: engine.Cannon,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(shape, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.batchable {
		t.Fatal("square-only spec marked batchable")
	}
	a := matrix.Random(16, 16, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := matrix.Random(16, 16, uint64(10+i))
			out, st, err := sess.Multiply(a, b)
			if err != nil {
				errs <- err
				return
			}
			if st.BatchSize != 1 {
				errs <- &mismatchError{float64(st.BatchSize)}
				return
			}
			if d := matrix.MaxAbsDiff(out, reference(a, b)); d > oracleTol {
				errs <- &mismatchError{d}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
