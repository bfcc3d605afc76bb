package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
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
// concurrent callers whose operands live in pooled scratches: two callers
// with different A (the stager compares them element-wise while both are
// live, then serves them apart), then two with the same A, so a coalesced
// batch executes straight out of two scratches. Every product is checked
// against blas.Gemm; run under -race it is the pin on the ownership rule
// written on scratch — releasing before Multiply returns makes it fail.
func TestScratchOwnershipUnderLoad(t *testing.T) {
	const n, perCaller = 24, 100
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16, MaxBatch: 2})
	defer sc.Close()
	h := NewHandler(sc, HandlerConfig{DefaultProcs: 4})
	warm := newWireRequest(t, matrix.Random(n, n, 1), matrix.Random(n, n, 2))
	if _, _, err := warm.serve(h, false); err != nil {
		t.Fatal(err)
	}
	// With MaxBatch 2 the runner holds each lead until the other caller's
	// request is queued behind it (or that caller is done), so every
	// staging either coalesces the second request (same A) or compares and
	// holds it (different A) — deterministically, not by timing.
	var active atomic.Int32
	sess := sc.Sessions()[0]
	sess.beforeStage = func() {
		for sess.QueueLen() < 2 && active.Load() > 1 {
			runtime.Gosched()
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
					got, st, err := wr.serve(h, i%2 == 1)
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
	if c := run([2]uint64{11, 12}); c != 0 {
		t.Fatalf("%d requests with different A were coalesced", c)
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
// serve request (256³, 4 ranks, HSUMMA): a warm handler may allocate the
// 512 KB product the session gathers into and little else — a body buffer,
// a decoded []float64 or an encoder copy of C each blow through it.
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
	}{{"json", false, 1.5}, {"raw", true, 1.0}} {
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
		// The median run: sync.Pool keeps one scratch per P and drops idle
		// ones at GC, so now and then a request finds none and grows a new
		// one — that is the pool's price, not the codec's.
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
