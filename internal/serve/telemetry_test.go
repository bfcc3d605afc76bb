package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
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
// histograms and the planner counters appear after traffic flows.
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

// TestBatchBoundsEndAtMaxBatch: the batch-size buckets are the powers of
// two up to the batch cap, so no series sits above the largest batch a
// session can run (it would always read the same as the cap's bucket).
func TestBatchBoundsEndAtMaxBatch(t *testing.T) {
	want := 1.0
	for _, b := range batchBounds {
		if b != want {
			t.Fatalf("batch bounds %v: want the powers of two up to %d", batchBounds, maxBatch)
		}
		want *= 2
	}
	if last := batchBounds[len(batchBounds)-1]; last != maxBatch {
		t.Fatalf("batch bounds %v end at %g, want the batch cap %d", batchBounds, last, maxBatch)
	}
}

// TestRetiredKeysFoldIntoOther is the cardinality bound on the per-spec-key
// series: 40 distinct shapes through a scheduler whose pool holds
// maxSessions sessions leave at most live + 1 key values in every
// spec-keyed family (and in the drift tracker's keys), the retired ones
// folded into "other" with every observation kept — Σ _count is still the
// completed requests, the latency quantiles still read — and the
// exposition stays well-formed: HELP and TYPE once per family, no series
// twice.
func TestRetiredKeysFoldIntoOther(t *testing.T) {
	const shapes, callers = 40, 4
	sc := NewScheduler(SchedulerConfig{CoreBudget: 8})
	defer sc.Close()
	h := NewHandler(sc, HandlerConfig{DefaultProcs: 4})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < shapes; i += callers {
				n := 8 + i
				wr := newWireRequest(t, matrix.Random(n, n, uint64(i)), matrix.Random(n, n, uint64(100+i)))
				for {
					got, _, err := wr.serve(h, i%2 == 1)
					if err != nil && strings.Contains(err.Error(), "status 503") {
						runtime.Gosched() // no idle session to retire: backpressure, retry
						continue
					}
					if err != nil {
						t.Errorf("shape %d: %v", n, err)
					} else if d := matrix.MaxAbsDiff(got, wr.want); d > oracleTol {
						t.Errorf("shape %d: product off by %g", n, d)
					}
					break
				}
			}
		}()
	}
	wg.Wait()

	m := sc.Metrics()
	if m.Completed != shapes || m.SessionsLive > maxSessions || m.SessionsRetired < shapes-maxSessions {
		t.Fatalf("completed %d, live %d, retired %d; want %d, ≤ %d, ≥ %d", m.Completed, m.SessionsLive, m.SessionsRetired, shapes, maxSessions, shapes-maxSessions)
	}
	if m.LatencyP50Seconds <= 0 || m.LatencyP99Seconds < m.LatencyP50Seconds {
		t.Fatalf("latency quantiles lost in the fold: p50 %g, p99 %g", m.LatencyP50Seconds, m.LatencyP99Seconds)
	}
	if got := trackedKeys(sc.drift); got > m.SessionsLive {
		t.Fatalf("drift tracker holds %d keys for %d live sessions", got, m.SessionsLive)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	keys := map[string]map[string]bool{} // family → key label values
	counts := map[string]int{}           // family → Σ _count
	seen, help, typ := map[string]bool{}, map[string]int{}, map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		if f := strings.Fields(line); f[0] == "#" {
			if f[1] == "HELP" {
				help[f[2]]++
			} else {
				typ[f[2]]++
			}
			continue
		}
		series, value, _ := strings.Cut(line, " ")
		if seen[series] {
			t.Fatalf("series %s appears twice", series)
		}
		seen[series] = true
		name, labels, _ := strings.Cut(series, "{")
		_, rest, ok := strings.Cut(labels, `key="`)
		if !ok || !strings.HasSuffix(name, "_count") || name == "hsumma_serve_model_drift_ratio_count" {
			continue // not a spec-keyed histogram (the drift family is keyed by phase)
		}
		key, _, _ := strings.Cut(rest, `"`)
		if keys[name] == nil {
			keys[name] = map[string]bool{}
		}
		keys[name][key] = true
		v, _ := strconv.Atoi(value)
		counts[name] += v
	}
	for name, n := range help {
		if n != 1 || typ[name] != 1 {
			t.Fatalf("family %s has %d HELP and %d TYPE lines", name, n, typ[name])
		}
	}
	if len(keys) != 7 {
		t.Fatalf("%d spec-keyed families scraped, want 7: %v", len(keys), keys)
	}
	for name, ks := range keys {
		if len(ks) > m.SessionsLive+1 || !ks[otherKey] {
			t.Errorf("%s carries %d key values for %d live sessions (other present: %v)", name, len(ks), m.SessionsLive, ks[otherKey])
		}
		if counts[name] != shapes {
			t.Errorf("%s: Σ _count = %d, want the %d completed requests", name, counts[name], shapes)
		}
	}
}
