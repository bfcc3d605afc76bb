package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/trace"
	"repro/internal/tune"
)

// newTestRecorder builds a tiny one-span recorder for ring tests.
func newTestRecorder() *trace.Recorder {
	r := trace.New(1)
	r.Rank(0, trace.PhaseGemm, 0, 0.001, 0, 0)
	return r
}

// trackedKeys counts the spec keys the tracker holds an estimate for.
func trackedKeys(d *driftTracker) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.byKey)
}

// TestDriftTrackerStale drives the EWMA to a sustained 3x overrun and
// checks the stale verdict fires exactly once, resetting the key's state.
func TestDriftTrackerStale(t *testing.T) {
	d := newDriftTracker(3)
	pred := map[string]float64{"bcast": 1.0, "gemm": 2.0}
	meas := map[string]float64{"bcast": 3.0, "gemm": 6.0}
	var staleAt int
	for i := 1; i <= 3; i++ {
		ratio, stale := d.observe("k", pred, meas)
		if math.Abs(ratio-3.0) > 1e-12 {
			t.Fatalf("observation %d: ratio = %v, want 3.0", i, ratio)
		}
		if stale {
			staleAt = i
		}
	}
	if staleAt != 3 {
		t.Fatalf("stale fired at observation %d, want 3 (minSamples)", staleAt)
	}
	// The key's state must have reset: the next observation starts fresh
	// and cannot be stale again before minSamples accumulate.
	if _, stale := d.observe("k", pred, meas); stale {
		t.Fatal("stale re-fired immediately after reset")
	}
	if st := d.byKey["k"]; st == nil || st.n != 1 || st.total != 3.0 {
		t.Fatalf("post-reset state = %+v, want a fresh estimate: 1 sample, total 3.0", st)
	}
}

// TestDriftTrackerUnderrun checks the inverse side of the band: a model
// that overpredicts by 4x (ratio 0.25 < 1/driftThreshold) is just as stale.
func TestDriftTrackerUnderrun(t *testing.T) {
	d := newDriftTracker(2)
	pred := map[string]float64{"shift": 4.0}
	meas := map[string]float64{"shift": 1.0}
	if _, stale := d.observe("k", pred, meas); stale {
		t.Fatal("stale before minSamples")
	}
	if _, stale := d.observe("k", pred, meas); !stale {
		t.Fatal("sustained 0.25 ratio did not mark the plan stale")
	}
}

// TestDriftTrackerConvergence checks the EWMA settles: a transient spike
// followed by on-model requests decays back inside the band, never
// tripping staleness.
func TestDriftTrackerConvergence(t *testing.T) {
	d := newDriftTracker(8)
	pred := map[string]float64{"bcast": 1.0}
	if _, stale := d.observe("k", pred, map[string]float64{"bcast": 5.0}); stale {
		t.Fatal("single spike marked stale")
	}
	for i := 0; i < 20; i++ {
		if _, stale := d.observe("k", pred, map[string]float64{"bcast": 1.0}); stale {
			t.Fatalf("EWMA tripped stale while decaying toward 1.0 (iteration %d)", i)
		}
	}
	if ewma := d.byKey["k"].total; math.Abs(ewma-1.0) > 0.05 {
		t.Fatalf("total EWMA = %v after 20 on-model requests, want ~1.0", ewma)
	}
}

// TestDriftTrackerNoPrediction: requests without a prediction (or with
// nothing comparable) contribute nothing and report ratio 0.
func TestDriftTrackerNoPrediction(t *testing.T) {
	d := newDriftTracker(driftMinSamples)
	if ratio, stale := d.observe("k", nil, map[string]float64{"gemm": 1}); ratio != 0 || stale {
		t.Fatalf("nil prediction: ratio %v stale %v, want 0/false", ratio, stale)
	}
	if ratio, _ := d.observe("k", map[string]float64{"bcast": 1}, map[string]float64{"gemm": 1}); ratio != 0 {
		t.Fatalf("disjoint phases: ratio %v, want 0", ratio)
	}
	if n := trackedKeys(d); n != 0 {
		t.Fatalf("incomparable observations left state behind for %d keys", n)
	}
}

// TestSchedulerStaleKeepsPlan drives the scheduler's stale path with
// synthetic stats: a sustained 3x overrun on an auto-planned shape counts
// once in PlanStale, and the planner's memoised plan survives it — the next
// resolve of the shape is a cache hit, not a replan.
func TestSchedulerStaleKeepsPlan(t *testing.T) {
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16})
	defer sc.Close()
	const n = 32
	rp := tune.ResolveParams{Procs: 4, Algorithm: engine.Auto}
	_, st, err := sc.Multiply(matrix.Random(n, n, 1), matrix.Random(n, n, 2), rp)
	if err != nil {
		t.Fatal(err)
	}
	before := tune.Stats()
	for i := 0; i < driftMinSamples; i++ {
		overrun := Stats{SpecKey: st.SpecKey, BatchSize: 1}
		overrun.PredictedSecondsByPhase = map[string]float64{"bcast": 1, "gemm": 2}
		overrun.CommSecondsByPhase = map[string]float64{"bcast": 3}
		overrun.GemmSeconds = 6
		sc.observeDrift(&overrun)
		if overrun.ModelDriftRatio != 3 {
			t.Fatalf("observation %d: ModelDriftRatio = %v, want 3", i, overrun.ModelDriftRatio)
		}
	}
	if got := sc.Metrics().PlanStale; got != 1 {
		t.Fatalf("PlanStale = %d after %d observations at 3x, want 1", got, driftMinSamples)
	}
	rp.Shape = matrix.Shape{M: n, N: n, K: n}
	if _, err := tune.ResolveSpec(rp); err != nil {
		t.Fatal(err)
	}
	after := tune.Stats()
	if after.CacheMisses != before.CacheMisses || after.CacheHits != before.CacheHits+1 {
		t.Fatalf("planner stats went %+v -> %+v across a stale verdict, want one cache hit and no miss", before, after)
	}
}

// TestMeasuredPhasesBatchScaling: a coalesced batch's whole-batch stats
// scale down by the batch width before comparison.
func TestMeasuredPhasesBatchScaling(t *testing.T) {
	st := Stats{
		BatchSize: 4,
		RunStats:  RunStats{GemmSeconds: 8, CommSecondsByPhase: map[string]float64{"bcast": 4, "p2p": 2}},
	}
	m := measuredPhases(st)
	if m["bcast"] != 1 || m["p2p"] != 0.5 || m["gemm"] != 2 {
		t.Fatalf("measuredPhases = %v, want bcast:1 p2p:0.5 gemm:2", m)
	}
	// BatchSize 0 (untracked) must behave as width 1, not divide by zero.
	st.BatchSize = 0
	if m := measuredPhases(st); m["bcast"] != 4 {
		t.Fatalf("BatchSize 0: measuredPhases = %v, want unscaled", m)
	}
}

// TestFlightRecorderRing checks the bounded ring: monotonic ids, oldest
// evicted, evicted ids fetch as nil, listing newest first.
func TestFlightRecorderRing(t *testing.T) {
	f := newFlightRecorder(2)
	sh := matrix.Shape{M: 8, N: 8, K: 8}
	id1 := f.add("k", sh, 0.1, newTestRecorder())
	id2 := f.add("k", sh, 0.2, newTestRecorder())
	id3 := f.add("k", sh, 0.3, newTestRecorder())
	if id1 == id2 || id2 == id3 {
		t.Fatalf("ids not unique: %s %s %s", id1, id2, id3)
	}
	if f.get(id1) != nil {
		t.Fatalf("evicted capture %s still fetchable", id1)
	}
	if f.get(id2) == nil || f.get(id3) == nil {
		t.Fatal("retained captures not fetchable")
	}
	list := f.list()
	if len(list) != 2 || list[0].ID != id3 || list[1].ID != id2 {
		t.Fatalf("list = %+v, want [%s %s] newest first", list, id3, id2)
	}
	if last := f.last(); last == nil || last.ID != id3 {
		t.Fatalf("last = %+v, want %s", last, id3)
	}
	if e := f.get("t999999"); e != nil {
		t.Fatalf("unknown id fetched %+v", e)
	}
}

// TestSchedulerDriftStats: a completed request through the real scheduler
// carries both a prediction and a positive drift ratio in its stats.
func TestSchedulerDriftStats(t *testing.T) {
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16})
	defer sc.Close()
	n := 32
	a := matrix.Random(n, n, 11)
	b := matrix.Random(n, n, 12)
	_, st, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PredictedSecondsByPhase) == 0 {
		t.Fatal("Stats.PredictedSecondsByPhase is empty — resolution did not attach the plan prediction")
	}
	if st.ModelDriftRatio <= 0 {
		t.Fatalf("ModelDriftRatio = %v, want > 0", st.ModelDriftRatio)
	}
	if m := sc.Metrics(); m.ModelDriftP50 <= 0 {
		t.Fatalf("Metrics.ModelDriftP50 = %v, want > 0 after a completed request", m.ModelDriftP50)
	}
}

// TestSchedulerSampledBitIdentical is the pay-for-what-you-use invariant:
// with sampling on, an unsampled request's product is bit-identical to the
// sampling-off scheduler's, and only sampled requests carry a TraceID.
func TestSchedulerSampledBitIdentical(t *testing.T) {
	n := 32
	a := matrix.Random(n, n, 21)
	b := matrix.Random(n, n, 22)
	rp := tune.ResolveParams{Procs: 4}

	plain := NewScheduler(SchedulerConfig{CoreBudget: 16})
	defer plain.Close()
	ref, refSt, err := plain.Multiply(a, b, rp)
	if err != nil {
		t.Fatal(err)
	}
	if refSt.TraceID != "" {
		t.Fatalf("sampling-off request carries TraceID %q", refSt.TraceID)
	}

	// TraceSampleN=2: request 1 (seq 1) is unsampled, request 2 (seq 2)
	// sampled.
	sampled := NewScheduler(SchedulerConfig{CoreBudget: 16, TraceSampleN: 2})
	defer sampled.Close()
	out1, st1, err := sampled.Multiply(a, b, rp)
	if err != nil {
		t.Fatal(err)
	}
	if st1.TraceID != "" {
		t.Fatalf("unsampled request carries TraceID %q", st1.TraceID)
	}
	for i, v := range out1.Data {
		if v != ref.Data[i] {
			t.Fatalf("unsampled product differs from sampling-off scheduler at %d: %v != %v", i, v, ref.Data[i])
		}
	}
	out2, st2, err := sampled.Multiply(a, b, rp)
	if err != nil {
		t.Fatal(err)
	}
	if st2.TraceID == "" {
		t.Fatal("second request (1-in-2 sampling) has no TraceID")
	}
	for i, v := range out2.Data {
		if v != ref.Data[i] {
			t.Fatalf("sampled product differs at %d: %v != %v", i, v, ref.Data[i])
		}
	}
	if m := sampled.Metrics(); m.TraceSampled != 1 {
		t.Fatalf("Metrics.TraceSampled = %d, want 1", m.TraceSampled)
	}
	if rec := sampled.FlightGet(st2.TraceID); rec == nil {
		t.Fatalf("sampled capture %s not in the flight recorder", st2.TraceID)
	}
}

// TestHTTPFlightRecorderJoin is the three-way telemetry join: one sampled
// request's trace id must agree across the response stats, the request
// log record, the flight-recorder listing (fetchable as a valid trace),
// the critical-path report and the metrics counters.
func TestHTTPFlightRecorderJoin(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16, TraceSampleN: 1})
	srv := httptest.NewServer(NewHandler(sc, HandlerConfig{DefaultProcs: 4, Logger: logger}))
	defer func() {
		srv.Close()
		sc.Close()
	}()

	resp, err := http.Post(srv.URL+"/multiply", "application/json", bytes.NewReader(multiplyBody(t, 16, 4)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multiply status %d", resp.StatusCode)
	}
	var res jsonResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	id := res.Stats.TraceID
	if id == "" {
		t.Fatal("1-in-1 sampled response has no Stats.TraceID")
	}

	// Join 1: the request log record carries the same trace id.
	var record map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &record); err != nil {
		t.Fatalf("request log is not one JSON record: %v\n%s", err, logBuf.String())
	}
	if record["trace_id"] != id {
		t.Fatalf("logged trace_id %v, stats say %q", record["trace_id"], id)
	}
	if _, ok := record["model_drift"]; !ok {
		t.Fatalf("request log missing model_drift: %v", record)
	}

	// Join 2: the listing includes the id and the capture fetches as a
	// valid Chrome trace document.
	lresp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Traces []FlightSummary `json:"traces"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Traces) == 0 || listing.Traces[0].ID != id {
		t.Fatalf("flight listing %+v does not lead with %s", listing.Traces, id)
	}
	if listing.Traces[0].Spans == 0 {
		t.Fatal("sampled capture summary reports zero spans")
	}
	tresp, err := http.Get(srv.URL + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s status %d", id, tresp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&doc); err != nil {
		t.Fatalf("fetched capture is not valid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("fetched capture has no events")
	}
	// The capture covers the whole request: spans for every rank.
	ranksSeen := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			ranksSeen[ev.Tid] = true
		}
	}
	for r := 0; r < 4; r++ {
		if !ranksSeen[r] {
			t.Fatalf("trace has no spans for rank %d (seen %v)", r, ranksSeen)
		}
	}

	// Join 3: the critical-path report analyses a known capture.
	cresp, err := http.Get(srv.URL + "/debug/critpath")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/critpath status %d", cresp.StatusCode)
	}
	var crit struct {
		TraceID string `json:"trace_id"`
		Report  struct {
			WallSeconds float64 `json:"wall_seconds"`
		} `json:"report"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&crit); err != nil {
		t.Fatal(err)
	}
	if crit.TraceID != id || crit.Report.WallSeconds <= 0 {
		t.Fatalf("critpath = %+v, want trace_id %s and positive wall", crit, id)
	}

	// Join 4: the counters agree.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"hsumma_serve_trace_sampled_total 1",
		"hsumma_serve_plan_stale_total 0",
		"hsumma_serve_model_drift_p50",
		"hsumma_serve_model_drift_ratio_bucket",
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, raw)
		}
	}

	// An evicted/unknown id is a clean 404.
	nresp, err := http.Get(srv.URL + "/debug/traces/t999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, nresp.Body)
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown capture id returned %d, want 404", nresp.StatusCode)
	}
}

// TestHTTPFlightEndpointsGuarded: with sampling off the flight-recorder
// endpoints refuse with 403, like the one-shot trace arm.
func TestHTTPFlightEndpointsGuarded(t *testing.T) {
	srv, _ := newTestServer(t) // TraceSampleN defaults to 0
	for _, path := range []string{"/debug/traces", "/debug/traces/t000001", "/debug/critpath"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("ungated %s returned %d, want 403", path, resp.StatusCode)
		}
	}
}
