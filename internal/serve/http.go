package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/tune"
)

// HandlerConfig tunes the HTTP face of a scheduler.
type HandlerConfig struct {
	// DefaultProcs is the rank count used when a request does not pin one
	// (default 16).
	DefaultProcs int
	// Platform is the machine the planner tunes auto requests (and the
	// /plan endpoint's default) for; nil means the Grid'5000 preset.
	Platform *machine.Platform
	// MaxBodyBytes bounds request bodies (default 256 MiB — a 2048² pair
	// of float64 operands is 64 MiB).
	MaxBodyBytes int64
	// Logger, when set, emits one structured log record per request
	// (request id, method, path, status, duration, and — for multiplies —
	// spec key, shape and queue wait). Responses carry the id back in
	// X-Request-Id. Nil disables request logging.
	Logger *slog.Logger
}

func (c HandlerConfig) withDefaults() HandlerConfig {
	if c.DefaultProcs <= 0 {
		c.DefaultProcs = 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	return c
}

// handler is the daemon's HTTP surface over one Scheduler.
type handler struct {
	sc     *Scheduler
	cfg    HandlerConfig
	mux    *http.ServeMux
	reqSeq atomic.Int64

	// The codec's share of a request, per spec key: the two stages outside
	// the scheduler's queue/stage/execute decomposition.
	histDecode, histEncode *histogramVec
}

// NewHandler wires the serving endpoints over a scheduler:
//
//	POST /multiply     — one GEMM; JSON body or raw little-endian float64s
//	GET  /plan         — the autotuning planner's ranked plan for a problem
//	GET  /metrics      — scheduler + plan-cache counters, Prometheus format
//	GET  /healthz      — liveness
//	GET  /debug/traces      — (sampling only) the flight recorder's capture
//	                          ring, newest first
//	GET  /debug/traces/{id} — one sampled capture as Chrome trace-event JSON
//	GET  /debug/critpath    — critical-path report over the newest capture
func NewHandler(sc *Scheduler, cfg HandlerConfig) http.Handler {
	h := &handler{sc: sc, cfg: cfg.withDefaults(), mux: http.NewServeMux(),
		histDecode: newHistogramVec("hsumma_serve_decode_seconds", "Time reading and decoding the request body into operands."),
		histEncode: newHistogramVec("hsumma_serve_encode_seconds", "Time encoding the product into the response body."),
	}
	sc.mu.Lock()
	sc.specKeyed = append(sc.specKeyed, h.histDecode, h.histEncode)
	sc.mu.Unlock()
	h.mux.HandleFunc("POST /multiply", h.multiply)
	h.mux.HandleFunc("GET /plan", h.plan)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	h.mux.HandleFunc("GET /debug/traces", h.debugTraces)
	h.mux.HandleFunc("GET /debug/traces/{id}", h.debugTraceByID)
	h.mux.HandleFunc("GET /debug/critpath", h.debugCritPath)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return h
}

// reqLogKey carries the per-request attribute sink handlers append to
// (spec key, shape, queue wait) so the middleware can log one record per
// request.
type reqLogKey struct{}

type reqLog struct{ attrs []slog.Attr }

// logAttrs appends structured fields to the current request's log record;
// a no-op when logging is disabled.
func logAttrs(r *http.Request, attrs ...slog.Attr) {
	if rl, ok := r.Context().Value(reqLogKey{}).(*reqLog); ok {
		rl.attrs = append(rl.attrs, attrs...)
	}
}

// statusWriter records the status code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes)
	if h.cfg.Logger == nil {
		h.mux.ServeHTTP(w, r)
		return
	}
	id := fmt.Sprintf("%08x", h.reqSeq.Add(1))
	w.Header().Set("X-Request-Id", id)
	rl := &reqLog{}
	r = r.WithContext(context.WithValue(r.Context(), reqLogKey{}, rl))
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	h.mux.ServeHTTP(sw, r)
	level := slog.LevelInfo
	if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
		level = slog.LevelDebug
	}
	attrs := append([]slog.Attr{
		slog.String("req_id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Float64("duration_s", time.Since(start).Seconds()),
	}, rl.attrs...)
	h.cfg.Logger.LogAttrs(r.Context(), level, "request", attrs...)
}

// requireSampling guards the flight-recorder endpoints: they only exist
// when the daemon samples traces (-trace-sample) — a trace allocates a span
// timeline and names internal shapes, so capture is opt-in.
func (h *handler) requireSampling(w http.ResponseWriter) bool {
	if !h.sc.TraceSampling() {
		http.Error(w, "serve: flight recorder disabled (start the daemon with -trace-sample N)", http.StatusForbidden)
		return false
	}
	return true
}

// debugTraces lists the flight recorder's sampled captures, newest first.
func (h *handler) debugTraces(w http.ResponseWriter, r *http.Request) {
	if !h.requireSampling(w) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Traces []FlightSummary `json:"traces"`
	}{Traces: h.sc.FlightList()})
}

// debugTraceByID streams one sampled capture as Chrome trace-event JSON.
func (h *handler) debugTraceByID(w http.ResponseWriter, r *http.Request) {
	if !h.requireSampling(w) {
		return
	}
	id := r.PathValue("id")
	rec := h.sc.FlightGet(id)
	if rec == nil {
		http.Error(w, fmt.Sprintf("serve: no sampled trace %q (evicted or never captured)", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rec.WriteJSON(w)
}

// debugCritPath serves the critical-path report over the newest sampled
// capture: which rank and phase gate wall time, the per-rank busy/wait
// split, and the top blocking edges.
func (h *handler) debugCritPath(w http.ResponseWriter, r *http.Request) {
	if !h.requireSampling(w) {
		return
	}
	id, spans := h.sc.FlightLast()
	if len(spans) == 0 {
		http.Error(w, "serve: no sampled trace captured yet", http.StatusNotFound)
		return
	}
	rep := trace.CriticalPath(spans)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		TraceID string                    `json:"trace_id"`
		Report  *trace.CriticalPathReport `json:"report"`
	}{TraceID: id, Report: rep})
}

// httpError maps serving errors onto status codes: backpressure and drain
// are 503 (retryable), everything else a 400-class client error.
func httpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// maxDim bounds each requested matrix dimension. 2^24 keeps every product
// of two dimensions within 2^48 — far from int64 overflow — so the
// element-count arithmetic below is safe against crafted query parameters;
// the real admission limit is MaxBodyBytes.
const maxDim = 1 << 24

// maxPlanProcs bounds /plan's rank count; it admits the paper's exascale
// projection (2^20 ranks, ranked analytically) with headroom while keeping
// the candidate enumeration itself bounded.
const maxPlanProcs = 1 << 22

// validateDims guards the request dimensions before any size arithmetic:
// positive, bounded, and with operand AND result byte sizes under the body
// limit (a small-K request could otherwise demand a result allocation far
// beyond anything its operands paid for).
func validateDims(m, n, k int, maxBytes int64) error {
	if m <= 0 || n <= 0 || k <= 0 {
		return fmt.Errorf("serve: m, n, k must be positive (have %d, %d, %d)", m, n, k)
	}
	if m > maxDim || n > maxDim || k > maxDim {
		return fmt.Errorf("serve: dimension exceeds limit %d (have m=%d, n=%d, k=%d)", maxDim, m, n, k)
	}
	if bytes := (int64(m)*int64(k) + int64(k)*int64(n)) * 8; bytes > maxBytes {
		return fmt.Errorf("serve: operands need %d bytes, above the %d-byte body limit", bytes, maxBytes)
	}
	if bytes := int64(m) * int64(n) * 8; bytes > maxBytes {
		return fmt.Errorf("serve: result needs %d bytes, above the %d-byte limit", bytes, maxBytes)
	}
	return nil
}

// jsonMultiply is one multiply request's shape and knobs in wire form,
// before name resolution: the JSON body of POST /multiply minus its two
// operand members — "a" and "b", row-major number arrays, are scanned by
// the codec (codec.go) and never reach encoding/json — and what a raw
// body's query parameters are parsed into. m, n, k are required and must
// match the operands' lengths.
type jsonMultiply struct {
	M     int    `json:"m"`
	N     int    `json:"n"`
	K     int    `json:"k"`
	Procs int    `json:"procs,omitempty"`
	Alg   string `json:"algorithm,omitempty"`
	Grid  []int  `json:"grid,omitempty"`
	// Groups is HSUMMA's G.
	Groups int `json:"groups,omitempty"`
	// The shared execution knobs under their wire names (block_size,
	// outer_block_size, broadcast, threads). Broadcast holds the name as
	// sent until resolveParams canonicalises it. The scheduler accounts a
	// session as ranks × threads cores.
	core.Knobs
}

// jsonResult is the JSON response of POST /multiply. The handler does not
// marshal it — appendResult writes the same bytes — but it is the wire
// contract clients and tests decode into.
type jsonResult struct {
	M     int       `json:"m"`
	N     int       `json:"n"`
	C     []float64 `json:"c"`
	Stats Stats     `json:"stats"`
}

func (h *handler) multiply(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	raw := strings.HasPrefix(ct, "application/octet-stream")
	if !raw && ct != "" && !strings.HasPrefix(ct, "application/json") {
		http.Error(w, fmt.Sprintf("unsupported Content-Type %q (want application/json or application/octet-stream)", ct), http.StatusUnsupportedMediaType)
		return
	}
	sc := scratchPool.Get().(*scratch)
	// Released only here, after Multiply has returned and the response is
	// written: the operands and a JSON response alias the scratch.
	defer scratchPool.Put(sc)
	parse := h.parseJSON
	if raw {
		parse = h.parseRaw
	}
	decodeStart := time.Now()
	a, b, rp, err := parse(r, sc)
	decodeSec := time.Since(decodeStart).Seconds()
	if err != nil {
		httpError(w, err)
		return
	}
	out, stats, err := h.sc.Multiply(a, b, rp)
	if err != nil {
		logAttrs(r, slog.String("outcome", "error"), slog.String("error", err.Error()))
		httpError(w, err)
		return
	}
	// Released only after the write below has returned: a raw response is
	// written from the product's own storage.
	defer products.Put(out)
	stats.DecodeSeconds = decodeSec
	statsJSON, err := json.Marshal(stats)
	if err != nil {
		http.Error(w, "serve: encoding stats: "+err.Error(), http.StatusInternalServerError)
		return
	}
	encodeStart := time.Now()
	w.Header().Set("Content-Type", "application/json")
	var body []byte
	if raw {
		swapWire(out.Data)
		body = wireBytes(out.Data)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Hsumma-Stats", string(statsJSON))
		w.Header().Set("X-Hsumma-Shape", fmt.Sprintf("%dx%d", out.Rows, out.Cols))
	} else if sc.out, err = appendResult(sc.out[:0], out, statsJSON); err != nil {
		// The multiply ran, but JSON has no spelling for ±Inf or NaN; the
		// header is still unwritten, so say so instead of a truncated 200.
		h.sc.errors.Add(1)
		logAttrs(r, slog.String("outcome", "error"), slog.String("error", err.Error()))
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	} else {
		body = sc.out
	}
	encodeSec := time.Since(encodeStart).Seconds()
	h.sc.observeKeyed(h.histDecode, stats.SpecKey, decodeSec)
	h.sc.observeKeyed(h.histEncode, stats.SpecKey, encodeSec)
	logAttrs(r,
		slog.String("outcome", "ok"),
		slog.String("spec_key", stats.SpecKey),
		slog.String("shape", fmt.Sprintf("%dx%dx%d", a.Rows, b.Cols, a.Cols)),
		slog.Float64("decode_s", decodeSec),
		slog.Float64("queue_wait_s", stats.QueueSeconds),
		slog.Float64("execute_s", stats.RunSeconds),
		slog.Float64("encode_s", encodeSec),
		slog.Int("batch_size", stats.BatchSize),
		slog.Float64("model_drift", stats.ModelDriftRatio),
	)
	if stats.TraceID != "" {
		// Present exactly when the request was sampled into the flight
		// recorder: the id joins this log record to GET /debug/traces/{id}.
		logAttrs(r, slog.String("trace_id", stats.TraceID))
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// parseJSON decodes the JSON multiply body into the scratch's operands.
func (h *handler) parseJSON(r *http.Request, sc *scratch) (_, _ *matrix.Dense, rp tune.ResolveParams, err error) {
	req, err := sc.decodeJSON(r.Body, h.cfg.MaxBodyBytes)
	if err != nil {
		return nil, nil, rp, err
	}
	if err := validateDims(req.M, req.N, req.K, h.cfg.MaxBodyBytes); err != nil {
		return nil, nil, rp, err
	}
	if len(sc.a) != req.M*req.K {
		return nil, nil, rp, fmt.Errorf("serve: a has %d elements, want m*k = %d", len(sc.a), req.M*req.K)
	}
	if len(sc.b) != req.K*req.N {
		return nil, nil, rp, fmt.Errorf("serve: b has %d elements, want k*n = %d", len(sc.b), req.K*req.N)
	}
	if rp, err = h.resolveParams(req); err != nil {
		return nil, nil, rp, err
	}
	return matrix.FromSlice(req.M, req.K, sc.a), matrix.FromSlice(req.K, req.N, sc.b), rp, nil
}

// parseRaw decodes the raw body: m*k float64s of A immediately followed by
// k*n float64s of B, little-endian; the shape and config arrive as query
// parameters (m, k, n, procs, algorithm, grid=SxT, groups, block_size,
// outer_block_size, broadcast, threads).
func (h *handler) parseRaw(r *http.Request, sc *scratch) (_, _ *matrix.Dense, rp tune.ResolveParams, err error) {
	q := r.URL.Query()
	req := jsonMultiply{Alg: q.Get("algorithm")}
	req.Broadcast = sched.Algorithm(q.Get("broadcast"))
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"m", &req.M}, {"n", &req.N}, {"k", &req.K}, {"procs", &req.Procs}, {"groups", &req.Groups},
		{"block_size", &req.BlockSize}, {"outer_block_size", &req.OuterBlockSize},
		{"threads", &req.Threads},
	} {
		if v := q.Get(p.name); v == "" {
			continue
		} else if *p.dst, err = strconv.Atoi(v); err != nil {
			return nil, nil, rp, fmt.Errorf("serve: bad %s: %w", p.name, err)
		}
	}
	m, n, k := req.M, req.N, req.K
	if m <= 0 || n <= 0 || k <= 0 {
		return nil, nil, rp, fmt.Errorf("serve: raw bodies need positive m, k, n query parameters (have %d, %d, %d)", m, k, n)
	}
	if err := validateDims(m, n, k, h.cfg.MaxBodyBytes); err != nil {
		return nil, nil, rp, err
	}
	if g := q.Get("grid"); g != "" {
		s, t, ok := strings.Cut(g, "x")
		si, err1 := strconv.Atoi(s)
		ti, err2 := strconv.Atoi(t)
		if !ok || err1 != nil || err2 != nil {
			return nil, nil, rp, fmt.Errorf("serve: bad grid %q (want SxT)", g)
		}
		req.Grid = []int{si, ti}
	}
	if rp, err = h.resolveParams(req); err != nil {
		return nil, nil, rp, err
	}

	// The length is decided before a byte is read when the client declared
	// it (a chunked body declares none and is measured by reading).
	need := int64(m*k+k*n) * 8
	if r.ContentLength >= 0 && r.ContentLength != need {
		return nil, nil, rp, fmt.Errorf("serve: raw body has %d bytes, want (m*k + k*n)*8 = %d", r.ContentLength, need)
	}
	sc.a, sc.b = sized(sc.a, m*k), sized(sc.b, k*n)
	for _, dst := range [][]float64{sc.a, sc.b} {
		if _, err := io.ReadFull(r.Body, wireBytes(dst)); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = fmt.Errorf("shorter than (m*k + k*n)*8 = %d bytes", need)
			}
			return nil, nil, rp, fmt.Errorf("serve: reading raw body: %w", err)
		}
		swapWire(dst)
	}
	if n, _ := r.Body.Read(sc.win[:1]); n > 0 {
		return nil, nil, rp, fmt.Errorf("serve: raw body is longer than (m*k + k*n)*8 = %d bytes", need)
	}
	return matrix.FromSlice(m, k, sc.a), matrix.FromSlice(k, n, sc.b), rp, nil
}

// resolveParams assembles the shared resolution input from request knobs,
// applying the handler's defaults.
func (h *handler) resolveParams(kn jsonMultiply) (tune.ResolveParams, error) {
	if kn.Threads < 0 {
		return tune.ResolveParams{}, fmt.Errorf("serve: threads must be non-negative, have %d", kn.Threads)
	}
	rp := tune.ResolveParams{Procs: kn.Procs, Groups: kn.Groups, Platform: h.cfg.Platform}
	rp.SetKnobs(kn.Knobs)
	if rp.Procs <= 0 {
		rp.Procs = h.cfg.DefaultProcs
	}
	if kn.Alg != "" {
		a, err := engine.AlgorithmByName(kn.Alg)
		if err != nil {
			return tune.ResolveParams{}, err
		}
		rp.Algorithm = a
	}
	if len(kn.Grid) == 2 {
		g, err := topo.NewGrid(kn.Grid[0], kn.Grid[1])
		if err != nil {
			return tune.ResolveParams{}, err
		}
		rp.Grid = &g
	} else if len(kn.Grid) != 0 {
		return tune.ResolveParams{}, fmt.Errorf("serve: grid must be [S, T], have %v", kn.Grid)
	}
	if kn.Broadcast != "" {
		b, err := sched.ByName(string(kn.Broadcast))
		if err != nil {
			return tune.ResolveParams{}, err
		}
		rp.Broadcast = b
	}
	return rp, nil
}

// plan serves the autotuning planner: GET /plan?m=&n=&k=&p=&platform=&quick=.
func (h *handler) plan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	geti := func(name string) (int, error) {
		v := q.Get(name)
		if v == "" {
			return 0, nil
		}
		return strconv.Atoi(v)
	}
	n, err := geti("n")
	if err != nil {
		httpError(w, err)
		return
	}
	m, err := geti("m")
	if err != nil {
		httpError(w, err)
		return
	}
	k, err := geti("k")
	if err != nil {
		httpError(w, err)
		return
	}
	p, err := geti("p")
	if err != nil {
		httpError(w, err)
		return
	}
	if p <= 0 {
		p = h.cfg.DefaultProcs
	}
	if m <= 0 {
		m = n
	}
	if k <= 0 {
		k = n
	}
	if n <= 0 || m <= 0 || k <= 0 {
		httpError(w, fmt.Errorf("serve: /plan needs n (square) or m, n, k"))
		return
	}
	if m > maxDim || n > maxDim || k > maxDim || p > maxPlanProcs {
		httpError(w, fmt.Errorf("serve: /plan problem too large (dims <= %d, p <= %d)", maxDim, maxPlanProcs))
		return
	}
	pf := machine.Grid5000()
	if h.cfg.Platform != nil {
		pf = *h.cfg.Platform
	}
	if name := q.Get("platform"); name != "" {
		pf, err = machine.ByName(name)
		if err != nil {
			httpError(w, err)
			return
		}
	}
	quick := q.Get("quick") != "0" // quick by default: this is a serving hot path
	// No rank guard is needed: the planner replays nothing above
	// tune.AutoProcs ranks, where one virtual run costs seconds of host CPU.
	pl, err := tune.PlanFor(tune.Request{
		Platform: pf,
		Shape:    matrix.Shape{M: m, N: n, K: k},
		P:        p,
		Quick:    quick,
	})
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(pl)
}

// metrics renders the scheduler and plan-cache counters in Prometheus text
// exposition format.
func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	m := h.sc.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	emit := func(name, help, typ string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	emit("hsumma_serve_requests_total", "Multiply requests received.", "counter", float64(m.Requests))
	emit("hsumma_serve_completed_total", "Multiply requests completed successfully.", "counter", float64(m.Completed))
	emit("hsumma_serve_errors_total", "Multiply requests failed (excluding backpressure).", "counter", float64(m.Errors))
	emit("hsumma_serve_rejected_total", "Multiply requests rejected by backpressure (503).", "counter", float64(m.Rejected))
	emit("hsumma_serve_session_hits_total", "Requests routed to a live session.", "counter", float64(m.SessionHits))
	emit("hsumma_serve_session_misses_total", "Requests that had to spin up a session.", "counter", float64(m.SessionMisses))
	emit("hsumma_serve_sessions_retired_total", "Idle sessions retired to admit a new shape into the full session pool.", "counter", float64(m.SessionsRetired))
	emit("hsumma_serve_sessions_live", "Live sessions.", "gauge", float64(m.SessionsLive))
	emit("hsumma_serve_ranks_live", "Ranks of the batches executing right now.", "gauge", float64(m.RanksLive))
	emit("hsumma_serve_cores_live", "Cores (ranks × threads) of the batches executing right now.", "gauge", float64(m.CoresLive))
	emit("hsumma_serve_queued", "Requests waiting in session queues.", "gauge", float64(m.Queued))
	emit("hsumma_serve_in_flight", "Requests executing right now.", "gauge", float64(m.InFlight))
	emit("hsumma_serve_plan_cache_hits_total", "Tune plan-cache hits.", "counter", float64(m.PlanCacheHits))
	emit("hsumma_serve_plan_cache_misses_total", "Tune plan-cache misses.", "counter", float64(m.PlanCacheMisses))
	emit("hsumma_serve_plan_sim_runs_total", "Candidates the tune planner replayed on the event engine.", "counter", float64(m.PlanSimRuns))
	emit("hsumma_serve_plan_refine_seconds_total", "Wall time the tune planner spent replaying candidates on the event engine.", "counter", m.PlanRefineSeconds)
	emit("hsumma_serve_batch_size_mean", "Mean coalesced batch size across completed requests.", "gauge", m.BatchSizeMean)
	emit("hsumma_serve_plan_stale_total", "Requests whose sustained measured/predicted drift marked their plan stale.", "counter", float64(m.PlanStale))
	emit("hsumma_serve_trace_sampled_total", "Requests sampled into the flight recorder.", "counter", float64(m.TraceSampled))
	emit("hsumma_serve_model_drift_p50", "Median per-phase measured/predicted cost ratio, pooled over the phases of every completed request that carried a prediction (1.0 = plan model exact).", "gauge", m.ModelDriftP50)
	emit("hsumma_serve_uptime_seconds", "Process uptime.", "gauge", time.Since(startTime).Seconds())
	fmt.Fprintf(w, "# HELP hsumma_serve_latency_seconds Completed-request latency quantiles, read off hsumma_serve_request_seconds across all spec keys.\n")
	fmt.Fprintf(w, "# TYPE hsumma_serve_latency_seconds summary\n")
	fmt.Fprintf(w, "hsumma_serve_latency_seconds{quantile=\"0.5\"} %g\n", m.LatencyP50Seconds)
	fmt.Fprintf(w, "hsumma_serve_latency_seconds{quantile=\"0.99\"} %g\n", m.LatencyP99Seconds)
	h.histDecode.write(w)
	h.sc.histQueue.write(w)
	h.sc.histStage.write(w)
	h.sc.histExec.write(w)
	h.histEncode.write(w)
	h.sc.histE2E.write(w)
	h.sc.histBatch.write(w)
	h.sc.histDrift.write(w)
}
