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

	"repro/internal/matrix"
	"repro/internal/tune"
)

// multiplyBody builds a JSON multiply request for an n×n problem on p
// ranks.
func multiplyBody(t *testing.T, n, p int) []byte {
	t.Helper()
	a := matrix.Random(n, n, 5)
	b := matrix.Random(n, n, 6)
	body, err := json.Marshal(map[string]any{
		"m": n, "n": n, "k": n, "procs": p, "algorithm": "hsumma",
		"a": a.Pack(nil), "b": b.Pack(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestStatsPhaseDecomposition checks the serve Stats extension: the queue/
// run decomposition, the per-phase breakdown summing to the critical
// rank's comm time, and the spec key stamp.
func TestStatsPhaseDecomposition(t *testing.T) {
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16})
	defer sc.Close()
	n := 32
	a := matrix.Random(n, n, 7)
	b := matrix.Random(n, n, 8)
	_, st, err := sc.Multiply(a, b, tune.ResolveParams{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.SpecKey == "" {
		t.Fatal("Stats.SpecKey is empty")
	}
	if st.QueueSeconds < 0 || st.RunSeconds <= 0 {
		t.Fatalf("queue %g / run %g seconds, want >= 0 and > 0", st.QueueSeconds, st.RunSeconds)
	}
	if st.GemmSeconds <= 0 {
		t.Fatalf("GemmSeconds = %g, want > 0", st.GemmSeconds)
	}
	if st.BusyImbalance < 1 {
		t.Fatalf("BusyImbalance = %g, want >= 1", st.BusyImbalance)
	}
	var sum float64
	for _, sec := range st.CommSecondsByPhase {
		sum += sec
	}
	if math.Abs(sum-st.MaxRankCommSeconds) > 1e-9+1e-9*st.MaxRankCommSeconds {
		t.Fatalf("phase breakdown sums to %g, MaxRankCommSeconds is %g", sum, st.MaxRankCommSeconds)
	}
}

// TestHTTPMetricsHistograms checks the new exposition: per-key latency
// histograms and the lease/planner counters appear after traffic flows.
func TestHTTPMetricsHistograms(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/multiply", "application/json", bytes.NewReader(multiplyBody(t, 16, 4)))
	if err != nil {
		t.Fatal(err)
	}
	var res jsonResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("multiply status %d, decode error %v", resp.StatusCode, err)
	}
	// The codec's share is reported to the client as well as scraped.
	if res.Stats.DecodeSeconds <= 0 {
		t.Fatalf("Stats.DecodeSeconds = %g, want > 0", res.Stats.DecodeSeconds)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	text := string(raw)
	for _, want := range []string{
		"hsumma_serve_queue_wait_seconds_bucket",
		"hsumma_serve_stage_seconds_bucket",
		"hsumma_serve_execute_seconds_bucket",
		"hsumma_serve_request_seconds_bucket",
		"hsumma_serve_request_seconds_count",
		"hsumma_serve_decode_seconds_bucket",
		"hsumma_serve_decode_seconds_count{key=",
		"hsumma_serve_encode_seconds_bucket",
		"hsumma_serve_encode_seconds_count{key=",
		"hsumma_serve_leases_active",
		"hsumma_serve_plan_sim_runs_total",
		"hsumma_serve_plan_refine_seconds_total",
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// The histogram families are labeled by spec key.
	if !strings.Contains(text, `hsumma_serve_request_seconds_bucket{key="`) {
		t.Fatalf("/metrics histograms are not labeled by spec key:\n%s", text)
	}
}

// TestHTTPRequestLogging checks the slog middleware: one JSON record per
// request carrying the id echoed in X-Request-Id, plus the multiply
// enrichment fields.
func TestHTTPRequestLogging(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	sc := NewScheduler(SchedulerConfig{CoreBudget: 16})
	srv := httptest.NewServer(NewHandler(sc, HandlerConfig{DefaultProcs: 4, Logger: logger}))
	defer func() {
		srv.Close()
		sc.Close()
	}()

	resp, err := http.Post(srv.URL+"/multiply", "application/json", bytes.NewReader(multiplyBody(t, 16, 4)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("response has no X-Request-Id header")
	}

	var record map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &record); err != nil {
		t.Fatalf("request log is not one JSON record: %v\n%s", err, logBuf.String())
	}
	if record["req_id"] != reqID {
		t.Fatalf("logged req_id %v, header says %q", record["req_id"], reqID)
	}
	for _, field := range []string{"method", "path", "status", "duration_s", "outcome", "spec_key", "shape", "queue_wait_s", "decode_s", "encode_s"} {
		if _, ok := record[field]; !ok {
			t.Fatalf("request log missing %q: %v", field, record)
		}
	}
	if record["outcome"] != "ok" || record["path"] != "/multiply" {
		t.Fatalf("unexpected log record %v", record)
	}
}

// TestHistogramQuantile sanity-checks the hand-rolled estimator.
func TestHistogramQuantile(t *testing.T) {
	hv := newHistogramVec("test_seconds", "test")
	for i := 0; i < 100; i++ {
		hv.observe("k", 0.003) // lands in the (0.0025, 0.005] bucket
	}
	p50 := hv.quantile(0.5)
	if p50 < 0.0025 || p50 > 0.005 {
		t.Fatalf("p50 = %g, want within the owning bucket (0.0025, 0.005]", p50)
	}
	if q := hv.quantile(0.99); q < 0.0025 || q > 0.005 {
		t.Fatalf("p99 = %g, want within the owning bucket", q)
	}
	empty := newHistogramVec("empty_seconds", "test")
	if q := empty.quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
}
