package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
	if !strings.Contains(string(raw), "hsumma_serve_trace_sampled_total 1") {
		t.Fatalf("/metrics missing hsumma_serve_trace_sampled_total 1:\n%s", raw)
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
