package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/tune"
)

// wireRequest is one /multiply request in both wire forms.
type wireRequest struct {
	a, b, want *matrix.Dense
	json, raw  []byte
	rawPath    string
}

func newWireRequest(t testing.TB, a, b *matrix.Dense) wireRequest {
	t.Helper()
	want := matrix.New(a.Rows, b.Cols)
	blas.Gemm(want, a, b)
	body, err := json.Marshal(map[string]any{
		"m": a.Rows, "n": b.Cols, "k": a.Cols, "procs": 4, "algorithm": "hsumma",
		"a": a.Pack(nil), "b": b.Pack(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	return wireRequest{a: a, b: b, want: want, json: body,
		raw:     rawBody(append(a.Pack(nil), b.Pack(nil)...)...),
		rawPath: fmt.Sprintf("/multiply?m=%d&k=%d&n=%d&procs=4&algorithm=hsumma", a.Rows, a.Cols, b.Cols)}
}

// serve posts the request straight to the handler and returns the product
// and the response's stats.
func (wr wireRequest) serve(h http.Handler, raw bool) (*matrix.Dense, Stats, error) {
	r := httptest.NewRequest(http.MethodPost, "/multiply", bytes.NewReader(wr.json))
	if raw {
		r = httptest.NewRequest(http.MethodPost, wr.rawPath, bytes.NewReader(wr.raw))
		r.Header.Set("Content-Type", "application/octet-stream")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		return nil, Stats{}, fmt.Errorf("status %d: %s", rec.Code, rec.Body)
	}
	var res jsonResult
	if raw {
		if err := json.Unmarshal([]byte(rec.Header().Get("X-Hsumma-Stats")), &res.Stats); err != nil {
			return nil, Stats{}, err
		}
		if rec.Body.Len() != 8*wr.a.Rows*wr.b.Cols {
			return nil, Stats{}, fmt.Errorf("raw response has %d bytes", rec.Body.Len())
		}
		res.C = rawFloats(rec.Body.Bytes())
	} else if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		return nil, Stats{}, err
	}
	return matrix.FromSlice(wr.a.Rows, wr.b.Cols, res.C), res.Stats, nil
}

// TestScratchOwnershipUnderLoad drives one handler and one session from
// concurrent callers whose operands live in pooled scratches and whose
// products come from the product pool: two callers with different A (the
// stager compares them element-wise while both are live, then serves them
// apart, each into a pooled C), then two with the same A, so a coalesced
// batch executes straight out of two scratches and crops into pooled
// products. The callers alternate wire formats out of step, so a raw
// response written from a product's storage runs beside a JSON one. Every
// product is checked against blas.Gemm; run under -race it is the pin on
// the ownership rules written on scratch — releasing a scratch before
// Multiply returns, or a product before its response is written, makes it
// fail.
func TestScratchOwnershipUnderLoad(t *testing.T) {
	const n, perCaller = 24, 100
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16})
	defer sc.Close()
	h := NewHandler(sc, HandlerConfig{DefaultProcs: 4})
	warm := newWireRequest(t, matrix.Random(n, n, 1), matrix.Random(n, n, 2))
	if _, _, err := warm.serve(h, false); err != nil {
		t.Fatal(err)
	}
	// Two callers with one request each in flight make batches of at most
	// two. The runner holds each lead until the other caller's request is
	// queued behind it (or that caller is done), so every
	// staging either coalesces the second request (same A) or compares and
	// holds it (different A) — deterministically, not by timing.
	var active atomic.Int32
	sess := sc.Sessions()[0]
	sess.beforeStage = func() {
		for sess.QueueLen() < 2 && active.Load() > 1 {
			runtime.Gosched()
		}
	}
	// The in-place runs accumulate into a pooled product: count the ones
	// whose storage an earlier request's response was written from.
	var inPlace atomic.Bool
	seen, reused := map[*float64]bool{}, 0
	sess.staged = func(_, _, cT []*matrix.Dense) {
		if c := &cT[0].Data[0]; inPlace.Load() {
			if seen[c] {
				reused++
			}
			seen[c] = true
		}
	}

	run := func(aSeeds [2]uint64) (coalesced int) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		active.Store(int32(len(aSeeds)))
		for caller, aSeed := range aSeeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer active.Add(-1)
				a := matrix.Random(n, n, aSeed)
				for i := 0; i < perCaller; i++ {
					wr := newWireRequest(t, a, matrix.Random(n, n, uint64(1000*caller+i)))
					got, st, err := wr.serve(h, (i+caller)%2 == 1)
					if err != nil {
						t.Errorf("caller %d request %d: %v", caller, i, err)
						return
					}
					if d := matrix.MaxAbsDiff(got, wr.want); d > oracleTol {
						t.Errorf("caller %d request %d: product differs from blas.Gemm by %g", caller, i, d)
						return
					}
					if st.BatchSize > 1 {
						mu.Lock()
						coalesced++
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		return coalesced
	}
	inPlace.Store(true)
	if c := run([2]uint64{11, 12}); c != 0 {
		t.Fatalf("%d requests with different A were coalesced", c)
	}
	inPlace.Store(false)
	if reused == 0 {
		t.Fatalf("none of %d in-place runs reused a released product: the product pool is not in play", 2*perCaller)
	}
	if c := run([2]uint64{13, 13}); c != 2*perCaller {
		t.Fatalf("%d of %d same-A requests were coalesced, want all: the batched path must run on pooled operands", c, 2*perCaller)
	}
	if got := len(sc.Sessions()); got != 1 {
		t.Fatalf("%d sessions served one shape, want 1", got)
	}
}

// TestEarlyScratchReleaseCorrupts is the mutation check on the ownership
// rule, made deterministic: a scratch reused while its request is still
// queued changes that request's product. The session copies operands at
// staging, not at submission, so nothing short of Multiply returning makes
// the scratch free.
func TestEarlyScratchReleaseCorrupts(t *testing.T) {
	const n = 16
	first := newWireRequest(t, matrix.Random(n, n, 1), matrix.Random(n, n, 2))
	second := newWireRequest(t, matrix.Random(n, n, 3), matrix.Random(n, n, 4))
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16})
	defer sc.Close()
	rp := tune.ResolveParams{Procs: 4}
	if _, _, err := sc.Multiply(first.a, first.b, rp); err != nil {
		t.Fatal(err)
	}
	staging, gate := make(chan struct{}), make(chan struct{})
	sc.Sessions()[0].beforeStage = func() {
		close(staging)
		<-gate
	}

	decode := func(s *scratch, body []byte) (*matrix.Dense, *matrix.Dense) {
		if _, err := s.decodeJSON(bytes.NewReader(body), 1<<20); err != nil {
			t.Fatal(err)
		}
		return matrix.FromSlice(n, n, s.a), matrix.FromSlice(n, n, s.b)
	}
	s := &scratch{win: make([]byte, windowBytes)}
	a, b := decode(s, first.json)
	done := make(chan *matrix.Dense)
	go func() {
		out, _, err := sc.Multiply(a, b, rp)
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()
	<-staging              // the request is admitted and about to be staged…
	decode(s, second.json) // …when its scratch is handed to the next request
	close(gate)
	out := <-done
	if out == nil {
		return
	}
	if matrix.MaxAbsDiff(out, first.want) <= oracleTol {
		t.Fatal("the product survived its scratch being reused mid-queue: the session must have copied the operands earlier than staging, and the ownership comment on scratch is out of date")
	}
	if d := matrix.MaxAbsDiff(out, second.want); d > oracleTol {
		t.Fatalf("expected the second request's product after the overwrite, off by %g", d)
	}
}

// TestEarlyProductReleaseCorrupts is the mutation check on the product
// rule, made deterministic: a product put back before its raw response is
// written is the next request's C, whose run overwrites the bytes the first
// client reads. A raw response is written from the product's own storage,
// so nothing short of the write returning makes the product free. One P and
// no GC pin sync.Pool down: with the pool emptied, a Put is the next Get.
func TestEarlyProductReleaseCorrupts(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 16
	first := newWireRequest(t, matrix.Random(n, n, 1), matrix.Random(n, n, 2))
	second := newWireRequest(t, matrix.Random(n, n, 3), matrix.Random(n, n, 4))
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16})
	defer sc.Close()
	rp := tune.ResolveParams{Procs: 4}
	for products.Get() != nil {
	}
	out, _, err := sc.Multiply(first.a, first.b, rp)
	if err != nil {
		t.Fatal(err)
	}
	products.Put(out) // put back before the response is written…
	if _, _, err := sc.Multiply(second.a, second.b, rp); err != nil {
		t.Fatal(err) // …and taken by the next request
	}
	swapWire(out.Data)
	got := matrix.FromSlice(n, n, rawFloats(wireBytes(out.Data))) // the write
	if matrix.MaxAbsDiff(got, first.want) <= oracleTol {
		t.Fatal("the response survived its product being released before the write: the product is no longer pooled or no longer written in place, and the product contract on Execute is out of date")
	}
	if d := matrix.MaxAbsDiff(got, second.want); d > oracleTol {
		t.Fatalf("expected the second request's product after the reuse, off by %g", d)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so the budget
// below measures the handler and not a recorder's body buffer.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestHandlerAllocationBudget keeps the codec honest on the benchmark's
// serve request (256³, 4 ranks, HSUMMA): a warm handler allocates next to
// nothing — the product comes from the pool and goes back after the write,
// so a fresh 512 KB product, a body buffer, a decoded []float64 or an
// encoder copy of C each blow through the 0.1 MB budget.
func TestHandlerAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds load at random under the race detector")
	}
	const n = 256
	wr := newWireRequest(t, matrix.Random(n, n, 1), matrix.Random(n, n, 2))
	sc := NewScheduler(SchedulerConfig{})
	defer sc.Close()
	h := NewHandler(sc, HandlerConfig{DefaultProcs: 4})
	for _, tc := range []struct {
		name     string
		raw      bool
		budgetMB float64
	}{{"json", false, 0.1}, {"raw", true, 0.1}} {
		run := func() {
			r := httptest.NewRequest(http.MethodPost, "/multiply", bytes.NewReader(wr.json))
			if tc.raw {
				r = httptest.NewRequest(http.MethodPost, wr.rawPath, bytes.NewReader(wr.raw))
				r.Header.Set("Content-Type", "application/octet-stream")
			}
			w := &discardWriter{h: http.Header{}, code: http.StatusOK}
			h.ServeHTTP(w, r)
			if w.code != http.StatusOK {
				t.Fatalf("%s: status %d", tc.name, w.code)
			}
		}
		run() // session spin-up, scratch growth
		// The median run: sync.Pool keeps one scratch and one product per P
		// and drops idle ones at GC, so now and then a request finds none
		// and makes a new one — that is the pool's price, not the codec's.
		var perRun []float64
		for i := 0; i < 9; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			perRun = append(perRun, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		}
		sort.Float64s(perRun)
		if mb := perRun[len(perRun)/2]; mb > tc.budgetMB {
			t.Fatalf("%s: a warm request allocates %.2f MB; budget is %.1f MB (all runs: %.2f)", tc.name, mb, tc.budgetMB, perRun)
		} else {
			t.Logf("%s: %.2f MB per warm request", tc.name, mb)
		}
	}
}
