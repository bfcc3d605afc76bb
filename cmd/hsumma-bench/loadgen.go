package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hsumma "repro"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/tune"
)

// The -loadgen mode drives a hsumma-serve daemon with a matrix of named
// traffic scenarios — steady single-shape, mixed-shape, bursty arrivals,
// deliberate overload and drain-under-close — verifies every response
// against the local sequential reference, benchmarks warm-session vs
// one-shot and pipelined vs serial serving throughput, and writes
// BENCH_serve.json (the CI serve-smoke artefact). With -url empty it spins
// up an in-process server (same handler the daemon serves), so the mode
// also works standalone; the overload and drain scenarios always run
// against dedicated in-process schedulers because they need to control
// admission limits and Close() timing.
//
// The baseline gate (ci/bench-serve-baseline.json) is deliberately a set
// of *ratio* gates: zero verification failures, warm-session throughput at
// least min_throughput_ratio of one-shot, traced at least min_trace_ratio
// of untraced, and the pipelined+batched scheduler at least
// min_pipeline_ratio of the serial (PipelineDepth=1, MaxBatch=1) one at
// the same benchmark point. The pipeline ratio's upside comes from
// coalescing same-A requests (one A scatter and one engine run for k
// right-hand sides) and from overlapping staging with execution; the floor
// only demands it never makes serving slower.

// loadShape is one traffic class the generator fires.
type loadShape struct {
	M, N, K int
	Procs   int
	Alg     string
}

func (s loadShape) String() string {
	return fmt.Sprintf("%dx%dx%d/p%d/%s", s.M, s.N, s.K, s.Procs, s.Alg)
}

// scenarioReport is one named traffic scenario's outcome in BENCH_serve.json.
type scenarioReport struct {
	Name string `json:"name"`
	// Mode is "http" for scenarios driven through the daemon URL and
	// "inproc" for the ones that need their own scheduler (overload, drain).
	Mode        string   `json:"mode"`
	DurationS   float64  `json:"duration_s"`
	Concurrency int      `json:"concurrency"`
	Shapes      []string `json:"shapes"`

	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	Rejected  int64 `json:"rejected_503"`
	Verified  int64 `json:"verified"`
	BadResult int64 `json:"bad_results"`
	// ClosedClean counts workers that observed ErrClosed and stopped
	// cleanly (drain scenario only).
	ClosedClean int64 `json:"closed_clean,omitempty"`

	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	// ModelDriftP50 is the median measured/predicted cost ratio across the
	// scenario's verified responses (0 when none carried a prediction) —
	// the plan-fidelity signal, per traffic class.
	ModelDriftP50 float64 `json:"model_drift_p50"`

	Pass bool   `json:"pass"`
	Note string `json:"note,omitempty"`
}

// loadgenReport is the BENCH_serve.json schema. The top-level traffic
// counters aggregate the HTTP-driven scenarios (steady, mix, burst);
// per-scenario breakdowns live under "scenarios".
type loadgenReport struct {
	URL         string  `json:"url"`
	InProcess   bool    `json:"in_process"`
	DurationS   float64 `json:"duration_s"`
	Concurrency int     `json:"concurrency"`

	Shapes    []string `json:"shapes"`
	Requests  int64    `json:"requests"`
	Errors    int64    `json:"errors"`
	Rejected  int64    `json:"rejected_503"`
	Verified  int64    `json:"verified"`
	BadResult int64    `json:"bad_results"`

	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`

	// Server-side time decomposition of the verified requests, read back
	// from each response's stats: queue wait, staging (pad + scatter +
	// zero) and distributed execution.
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	StageP50Ms     float64 `json:"stage_p50_ms"`
	StageP99Ms     float64 `json:"stage_p99_ms"`
	ExecuteP50Ms   float64 `json:"execute_p50_ms"`
	ExecuteP99Ms   float64 `json:"execute_p99_ms"`

	Scenarios []scenarioReport `json:"scenarios"`

	SessionBench  sessionBenchReport  `json:"session_vs_oneshot"`
	TraceBench    traceBenchReport    `json:"traced_vs_untraced"`
	SampledBench  sampledBenchReport  `json:"sampled_vs_unsampled"`
	PipelineBench pipelineBenchReport `json:"pipelined_vs_serial"`
	// PipelineRatio mirrors PipelineBench.Ratio at the top level for easy
	// extraction; the baseline's min_pipeline_ratio floor gates it.
	PipelineRatio float64 `json:"pipeline_ratio"`

	GatePass bool   `json:"gate_pass"`
	GateNote string `json:"gate_note,omitempty"`
}

// traceBenchReport records the traced vs untraced Multiply throughput
// comparison — the "tracing costs nothing when off, little when on" gate.
type traceBenchReport struct {
	N           int     `json:"n"`
	P           int     `json:"p"`
	Iters       int     `json:"iters"`
	UntracedRPS float64 `json:"untraced_rps"`
	TracedRPS   float64 `json:"traced_rps"`
	// Ratio is traced/untraced requests per second; the baseline's
	// min_trace_ratio floor gates it.
	Ratio float64 `json:"ratio"`
	// MinRatio echoes the enforced floor (0 when no baseline was given).
	MinRatio float64 `json:"min_ratio,omitempty"`
}

// sampledBenchReport records the flight-recorder overhead comparison:
// identical scheduler traffic with TraceSampleN enabled vs disabled. Only
// 1 in N requests pays span recording, so the floor sits with the traced
// gate at 0.95 — sampling must stay pay-for-what-you-use.
type sampledBenchReport struct {
	N       int `json:"n"`
	P       int `json:"p"`
	Iters   int `json:"iters"`
	SampleN int `json:"sample_n"`
	// UnsampledRPS is the TraceSampleN=0 scheduler; SampledRPS runs the
	// same traffic with 1-in-SampleN flight recording on.
	UnsampledRPS float64 `json:"unsampled_rps"`
	SampledRPS   float64 `json:"sampled_rps"`
	// Ratio is sampled/unsampled requests per second; the baseline's
	// min_sampled_trace_ratio floor gates it.
	Ratio float64 `json:"ratio"`
	// MinRatio echoes the enforced floor (0 when no baseline was given).
	MinRatio float64 `json:"min_ratio,omitempty"`
}

// sessionBenchReport records the warm-session vs one-shot comparison.
type sessionBenchReport struct {
	N     int `json:"n"`
	P     int `json:"p"`
	Iters int `json:"iters"`
	// Threads is the per-rank thread count both paths ran with
	// (min(4, NumCPU)) and Cores the host's logical CPUs: on a 1-core
	// host Threads is 1 and the ratio measures plan/map/buffer reuse
	// alone; with free cores the hybrid kernel shrinks compute, so the
	// amortised setup is a larger share and the ratio widens.
	Threads         int     `json:"threads"`
	Cores           int     `json:"cores"`
	OneShotRPS      float64 `json:"oneshot_rps"`
	SessionRPS      float64 `json:"session_rps"`
	ThroughputRatio float64 `json:"throughput_ratio"`
	OneShotSetupMs  float64 `json:"oneshot_setup_ms"`
	SessionSetupMs  float64 `json:"session_setup_ms"`
	SetupRatio      float64 `json:"setup_ratio"`
	// TargetRatio echoes the aspirational 2x session-reuse target the
	// ratio is tracked against (informational; the gate enforces the
	// baseline's min_throughput_ratio).
	TargetRatio float64 `json:"target_ratio"`
}

// pipelineBenchReport records the pipelined+batched vs serial scheduler
// comparison: identical traffic (concurrent same-A, distinct-B requests)
// through two schedulers that differ only in PipelineDepth/MaxBatch.
type pipelineBenchReport struct {
	N           int `json:"n"`
	P           int `json:"p"`
	Requests    int `json:"requests"`
	Concurrency int `json:"concurrency"`
	// SerialRPS is the PipelineDepth=1, MaxBatch=1 scheduler — the
	// pre-pipelining serving path, preserved bit-identically.
	SerialRPS    float64 `json:"serial_rps"`
	PipelinedRPS float64 `json:"pipelined_rps"`
	// Ratio is pipelined/serial requests per second.
	Ratio float64 `json:"ratio"`
	// BatchSizeMean and OverlapSeconds are the pipelined side's scheduler
	// metrics: how much coalescing and stage/execute overlap the traffic
	// actually produced.
	BatchSizeMean  float64 `json:"batch_size_mean"`
	OverlapSeconds float64 `json:"overlap_seconds"`
	// MinRatio echoes the enforced floor (0 when no baseline was given).
	MinRatio float64 `json:"min_ratio,omitempty"`
}

// loadgenBaseline is the committed gate schema (ci/bench-serve-baseline.json).
type loadgenBaseline struct {
	// MinThroughputRatio is the enforced floor for warm-session vs
	// one-shot requests/sec at the benchmark point.
	MinThroughputRatio float64 `json:"min_throughput_ratio"`
	// TargetThroughputRatio is the aspirational session-reuse target,
	// recorded in the report for trajectory tracking.
	TargetThroughputRatio float64 `json:"target_throughput_ratio"`
	// MinTraceRatio is the enforced floor for traced vs untraced Multiply
	// throughput (0 disables the gate).
	MinTraceRatio float64 `json:"min_trace_ratio"`
	// MinSampledTraceRatio is the enforced floor for scheduler throughput
	// with 1-in-N flight-recorder sampling on vs off (0 disables the gate).
	MinSampledTraceRatio float64 `json:"min_sampled_trace_ratio"`
	// MinPipelineRatio is the enforced floor for pipelined+batched vs
	// serial scheduler throughput (0 disables the gate).
	MinPipelineRatio float64 `json:"min_pipeline_ratio"`
}

// allScenarios is the canonical scenario order.
var allScenarios = []string{"steady", "mix", "burst", "overload", "drain"}

// driftAgg collects per-request measured/predicted ratios for a
// scenario's model_drift_p50.
type driftAgg struct {
	mu sync.Mutex
	v  []float64
}

func (d *driftAgg) add(r float64) {
	if r > 0 {
		d.mu.Lock()
		d.v = append(d.v, r)
		d.mu.Unlock()
	}
}

func (d *driftAgg) p50() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.v) == 0 {
		return 0
	}
	s := append([]float64(nil), d.v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// prepared is one pre-built request: marshalled body plus the reference
// product every response is verified against.
type prepared struct {
	shape loadShape
	body  []byte
	want  *matrix.Dense
}

// prepareBodies builds a few operand pairs per shape (reused round-robin).
func prepareBodies(shapes []loadShape) []prepared {
	var preps []prepared
	for si, s := range shapes {
		for seed := 0; seed < 2; seed++ {
			a := matrix.Random(s.M, s.K, uint64(100*si+2*seed+1))
			b := matrix.Random(s.K, s.N, uint64(100*si+2*seed+2))
			body, err := json.Marshal(map[string]any{
				"m": s.M, "n": s.N, "k": s.K, "procs": s.Procs, "algorithm": s.Alg,
				"a": a.Pack(nil), "b": b.Pack(nil),
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			want := matrix.New(s.M, s.N)
			hsummaReference(want, a, b)
			preps = append(preps, prepared{shape: s, body: body, want: want})
		}
	}
	return preps
}

// httpAgg accumulates the top-level traffic aggregates across the
// HTTP-driven scenarios. All percentiles come from the shared
// internal/serve histogram quantile code, so the loadgen's numbers agree
// with /metrics by construction.
type httpAgg struct {
	seconds                  float64
	lat, queue, stage, exec  *serve.Histogram
	requests, errs, rejected int64
	verified, bad            int64
}

func newHTTPAgg() *httpAgg {
	return &httpAgg{
		lat:   serve.NewHistogram(),
		queue: serve.NewHistogram(),
		stage: serve.NewHistogram(),
		exec:  serve.NewHistogram(),
	}
}

func runLoadgen(url string, durationS float64, conc int, quick bool, outPath, baselinePath, scenarioList string) {
	rep := loadgenReport{Concurrency: conc, DurationS: durationS}

	selected := parseScenarios(scenarioList)

	// Without a URL, serve in-process: same scheduler + handler as the
	// daemon.
	if url == "" {
		sc := serve.NewScheduler(serve.SchedulerConfig{CoreBudget: 64, QueueDepth: 2 * conc})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: serve.NewHandler(sc, serve.HandlerConfig{DefaultProcs: 16})}
		go srv.Serve(ln)
		defer func() {
			srv.Close()
			sc.Close()
		}()
		url = "http://" + ln.Addr().String()
		rep.InProcess = true
	}
	rep.URL = url

	shapes := []loadShape{
		{M: 256, N: 256, K: 256, Procs: 16, Alg: "hsumma"},
		{M: 128, N: 64, K: 128, Procs: 4, Alg: "summa"},
	}
	if quick {
		shapes = []loadShape{
			{M: 64, N: 64, K: 64, Procs: 4, Alg: "hsumma"},
			{M: 48, N: 24, K: 48, Procs: 4, Alg: "summa"},
		}
	}
	for _, s := range shapes {
		rep.Shapes = append(rep.Shapes, s.String())
	}
	preps := prepareBodies(shapes)

	// Each selected HTTP scenario gets an equal slice of the requested
	// duration; overload and drain size themselves.
	nHTTP := 0
	for _, name := range selected {
		if name == "steady" || name == "mix" || name == "burst" {
			nHTTP++
		}
	}
	perScenario := durationS
	if nHTTP > 1 {
		perScenario = durationS / float64(nHTTP)
	}

	agg := newHTTPAgg()
	for _, name := range selected {
		var sr scenarioReport
		switch name {
		case "steady":
			sr = driveHTTP("steady", url, preps[:2], conc, perScenario, false, agg)
		case "mix":
			sr = driveHTTP("mix", url, preps, conc, perScenario, false, agg)
		case "burst":
			sr = driveHTTP("burst", url, preps, conc, perScenario, true, agg)
		case "overload":
			sr = runOverloadScenario(quick, durationS)
		case "drain":
			sr = runDrainScenario(quick)
		}
		rep.Scenarios = append(rep.Scenarios, sr)
		fmt.Fprintf(os.Stderr, "scenario %-8s [%s]: %d requests (%d verified, %d rejected, %d errors, %d bad) — %.1f req/s, p50 %.1fms p99 %.1fms%s\n",
			sr.Name, sr.Mode, sr.Requests, sr.Verified, sr.Rejected, sr.Errors, sr.BadResult,
			sr.ThroughputRPS, sr.P50Ms, sr.P99Ms, scenarioSuffix(sr))
	}

	rep.Requests = agg.requests
	rep.Errors = agg.errs
	rep.Rejected = agg.rejected
	rep.Verified = agg.verified
	rep.BadResult = agg.bad
	if agg.seconds > 0 {
		rep.ThroughputRPS = float64(agg.verified) / agg.seconds
	}
	rep.P50Ms = 1000 * agg.lat.Quantile(0.5)
	rep.P99Ms = 1000 * agg.lat.Quantile(0.99)
	rep.QueueWaitP50Ms = 1000 * agg.queue.Quantile(0.5)
	rep.QueueWaitP99Ms = 1000 * agg.queue.Quantile(0.99)
	rep.StageP50Ms = 1000 * agg.stage.Quantile(0.5)
	rep.StageP99Ms = 1000 * agg.stage.Quantile(0.99)
	rep.ExecuteP50Ms = 1000 * agg.exec.Quantile(0.5)
	rep.ExecuteP99Ms = 1000 * agg.exec.Quantile(0.99)

	rep.SessionBench = runSessionBench(quick)
	rep.TraceBench = runTraceBench(quick)
	rep.SampledBench = runSampledBench(quick)
	rep.PipelineBench = runPipelineBench(quick)
	rep.PipelineRatio = rep.PipelineBench.Ratio

	// Gate: every scenario passed (zero verification failures, expected
	// backpressure/drain behaviour), and the benchmark ratios clear the
	// baseline floors.
	rep.GatePass = true
	for _, sr := range rep.Scenarios {
		if !sr.Pass {
			rep.GatePass = false
			rep.GateNote = fmt.Sprintf("scenario %s failed: %s", sr.Name, sr.Note)
			break
		}
	}
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: reading baseline: %v\n", err)
			os.Exit(1)
		}
		var base loadgenBaseline
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: parsing baseline: %v\n", err)
			os.Exit(1)
		}
		rep.SessionBench.TargetRatio = base.TargetThroughputRatio
		if rep.GatePass && rep.SessionBench.ThroughputRatio < base.MinThroughputRatio {
			rep.GatePass = false
			rep.GateNote = fmt.Sprintf("session/oneshot throughput ratio %.3f below baseline floor %.3f",
				rep.SessionBench.ThroughputRatio, base.MinThroughputRatio)
		}
		rep.TraceBench.MinRatio = base.MinTraceRatio
		if rep.GatePass && base.MinTraceRatio > 0 && rep.TraceBench.Ratio < base.MinTraceRatio {
			rep.GatePass = false
			rep.GateNote = fmt.Sprintf("traced/untraced throughput ratio %.3f below baseline floor %.3f",
				rep.TraceBench.Ratio, base.MinTraceRatio)
		}
		rep.SampledBench.MinRatio = base.MinSampledTraceRatio
		if rep.GatePass && base.MinSampledTraceRatio > 0 && rep.SampledBench.Ratio < base.MinSampledTraceRatio {
			rep.GatePass = false
			rep.GateNote = fmt.Sprintf("sampled/unsampled throughput ratio %.3f below baseline floor %.3f",
				rep.SampledBench.Ratio, base.MinSampledTraceRatio)
		}
		rep.PipelineBench.MinRatio = base.MinPipelineRatio
		if rep.GatePass && base.MinPipelineRatio > 0 && rep.PipelineRatio < base.MinPipelineRatio {
			rep.GatePass = false
			rep.GateNote = fmt.Sprintf("pipelined/serial throughput ratio %.3f below baseline floor %.3f",
				rep.PipelineRatio, base.MinPipelineRatio)
		}
	}

	out := os.Stdout
	if outPath != "" && outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.Encode(rep)

	fmt.Fprintf(os.Stderr, "loadgen: %d requests (%d verified, %d rejected, %d errors, %d bad) — %.1f req/s, p50 %.1fms p99 %.1fms\n",
		rep.Requests, rep.Verified, rep.Rejected, rep.Errors, rep.BadResult, rep.ThroughputRPS, rep.P50Ms, rep.P99Ms)
	fmt.Fprintf(os.Stderr, "session bench: one-shot %.2f req/s, warm session %.2f req/s (ratio %.3f; setup %.2fms -> %.2fms)\n",
		rep.SessionBench.OneShotRPS, rep.SessionBench.SessionRPS, rep.SessionBench.ThroughputRatio,
		rep.SessionBench.OneShotSetupMs, rep.SessionBench.SessionSetupMs)
	fmt.Fprintf(os.Stderr, "trace bench: untraced %.2f req/s, traced %.2f req/s (ratio %.3f)\n",
		rep.TraceBench.UntracedRPS, rep.TraceBench.TracedRPS, rep.TraceBench.Ratio)
	fmt.Fprintf(os.Stderr, "sampled bench: unsampled %.2f req/s, 1-in-%d sampled %.2f req/s (ratio %.3f)\n",
		rep.SampledBench.UnsampledRPS, rep.SampledBench.SampleN, rep.SampledBench.SampledRPS, rep.SampledBench.Ratio)
	fmt.Fprintf(os.Stderr, "pipeline bench: serial %.2f req/s, pipelined %.2f req/s (ratio %.3f; mean batch %.2f, overlap %.3fs)\n",
		rep.PipelineBench.SerialRPS, rep.PipelineBench.PipelinedRPS, rep.PipelineRatio,
		rep.PipelineBench.BatchSizeMean, rep.PipelineBench.OverlapSeconds)
	if !rep.GatePass {
		fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: %s\n", rep.GateNote)
		os.Exit(1)
	}
}

// parseScenarios resolves the -scenarios flag into a validated, ordered
// scenario list.
func parseScenarios(list string) []string {
	if list == "" || list == "all" {
		return allScenarios
	}
	valid := make(map[string]bool, len(allScenarios))
	for _, s := range allScenarios {
		valid[s] = true
	}
	var out []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !valid[name] {
			fmt.Fprintf(os.Stderr, "loadgen: unknown scenario %q (valid: %s)\n", name, strings.Join(allScenarios, ","))
			os.Exit(1)
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return allScenarios
	}
	return out
}

func scenarioSuffix(sr scenarioReport) string {
	if sr.Name == "drain" {
		return fmt.Sprintf(", %d closed clean", sr.ClosedClean)
	}
	if !sr.Pass {
		return " — FAIL: " + sr.Note
	}
	return ""
}

// driveHTTP fires one HTTP traffic scenario: conc workers POST the
// prepared bodies round-robin for `seconds`, verifying every 200 response
// against its reference product. With burst set, arrivals are gated to a
// 300ms-on / 300ms-off duty cycle so the server sees alternating queue
// build-up and idle drains instead of a constant closed loop.
func driveHTTP(name, url string, preps []prepared, conc int, seconds float64, burst bool, agg *httpAgg) scenarioReport {
	const (
		burstPeriod = 600 * time.Millisecond
		burstOn     = 300 * time.Millisecond
	)
	var requests, errCount, rejected, verified, badResult atomic.Int64
	lat := serve.NewHistogram()
	var drift driftAgg
	client := &http.Client{Timeout: 60 * time.Second}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(deadline); i++ {
				if burst {
					if off := time.Since(start) % burstPeriod; off >= burstOn {
						// Sleep out the quiet half of the duty cycle.
						time.Sleep(burstPeriod - off)
						continue
					}
				}
				p := preps[i%len(preps)]
				t0 := time.Now()
				resp, err := client.Post(url+"/multiply", "application/json", bytes.NewReader(p.body))
				requests.Add(1)
				if err != nil {
					errCount.Add(1)
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCount.Add(1)
					continue
				}
				if resp.StatusCode == http.StatusServiceUnavailable {
					rejected.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errCount.Add(1)
					continue
				}
				latS := time.Since(t0).Seconds()
				var res struct {
					M, N  int
					C     []float64
					Stats serve.Stats
				}
				if err := json.Unmarshal(body, &res); err != nil || len(res.C) != p.shape.M*p.shape.N {
					badResult.Add(1)
					continue
				}
				lat.Observe(latS)
				drift.add(res.Stats.ModelDriftRatio)
				agg.lat.Observe(latS)
				agg.queue.Observe(res.Stats.QueueSeconds)
				agg.stage.Observe(res.Stats.SetupSeconds)
				agg.exec.Observe(res.Stats.RunSeconds)
				got := matrix.FromSlice(p.shape.M, p.shape.N, res.C)
				if d := matrix.MaxAbsDiff(got, p.want); d > 1e-9 {
					badResult.Add(1)
					continue
				}
				verified.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	sr := scenarioReport{
		Name: name, Mode: "http",
		DurationS:     elapsed,
		Concurrency:   conc,
		Requests:      requests.Load(),
		Errors:        errCount.Load(),
		Rejected:      rejected.Load(),
		Verified:      verified.Load(),
		BadResult:     badResult.Load(),
		P50Ms:         1000 * lat.Quantile(0.5),
		P99Ms:         1000 * lat.Quantile(0.99),
		ModelDriftP50: drift.p50(),
	}
	for _, p := range preps {
		if len(sr.Shapes) == 0 || sr.Shapes[len(sr.Shapes)-1] != p.shape.String() {
			sr.Shapes = append(sr.Shapes, p.shape.String())
		}
	}
	if elapsed > 0 {
		sr.ThroughputRPS = float64(sr.Verified) / elapsed
	}
	sr.Pass = sr.Errors == 0 && sr.BadResult == 0 && sr.Verified > 0
	if !sr.Pass {
		sr.Note = "traffic failed verification"
	}

	agg.seconds += elapsed
	agg.requests += sr.Requests
	agg.errs += sr.Errors
	agg.rejected += sr.Rejected
	agg.verified += sr.Verified
	agg.bad += sr.BadResult
	return sr
}

// inprocPair is one operand pair with its precomputed reference product
// for the scheduler-direct scenarios.
type inprocPair struct {
	a, b, want *matrix.Dense
}

func makePairs(s loadShape, n int, seed uint64) []inprocPair {
	pairs := make([]inprocPair, n)
	for i := range pairs {
		a := matrix.Random(s.M, s.K, seed+uint64(2*i))
		b := matrix.Random(s.K, s.N, seed+uint64(2*i)+1)
		want := matrix.New(s.M, s.N)
		hsummaReference(want, a, b)
		pairs[i] = inprocPair{a: a, b: b, want: want}
	}
	return pairs
}

// runOverloadScenario hammers a deliberately under-provisioned in-process
// scheduler (tiny queue) with more concurrent clients than it admits: the
// expected outcome is a mix of verified responses and clean ErrOverloaded
// rejections, with zero errors and zero bad results — backpressure sheds
// load instead of corrupting or wedging it. Distinct A operands keep the
// batcher from coalescing the excess away.
func runOverloadScenario(quick bool, durationS float64) scenarioReport {
	shape := loadShape{M: 64, N: 64, K: 64, Procs: 4, Alg: "hsumma"}
	if quick {
		shape = loadShape{M: 32, N: 32, K: 32, Procs: 4, Alg: "hsumma"}
	}
	pairs := makePairs(shape, 4, 7000)
	rp := tune.ResolveParams{Procs: shape.Procs, Algorithm: engine.Algorithm(shape.Alg)}

	sc := serve.NewScheduler(serve.SchedulerConfig{CoreBudget: 64, QueueDepth: 2})
	defer sc.Close()

	conc := 8
	seconds := math.Min(2, math.Max(0.5, durationS/3))
	var requests, errCount, rejected, verified, badResult atomic.Int64
	lat := serve.NewHistogram()
	var drift driftAgg
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(deadline); i++ {
				p := pairs[i%len(pairs)]
				t0 := time.Now()
				out, st, err := sc.Multiply(p.a, p.b, rp)
				requests.Add(1)
				switch {
				case errors.Is(err, serve.ErrOverloaded):
					rejected.Add(1)
					time.Sleep(200 * time.Microsecond)
				case err != nil:
					errCount.Add(1)
				case matrix.MaxAbsDiff(out, p.want) > 1e-9:
					badResult.Add(1)
				default:
					lat.Observe(time.Since(t0).Seconds())
					drift.add(st.ModelDriftRatio)
					verified.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	sr := scenarioReport{
		Name: "overload", Mode: "inproc",
		DurationS:     elapsed,
		Concurrency:   conc,
		Shapes:        []string{shape.String()},
		Requests:      requests.Load(),
		Errors:        errCount.Load(),
		Rejected:      rejected.Load(),
		Verified:      verified.Load(),
		BadResult:     badResult.Load(),
		P50Ms:         1000 * lat.Quantile(0.5),
		P99Ms:         1000 * lat.Quantile(0.99),
		ModelDriftP50: drift.p50(),
	}
	if elapsed > 0 {
		sr.ThroughputRPS = float64(sr.Verified) / elapsed
	}
	sr.Pass = sr.Errors == 0 && sr.BadResult == 0 && sr.Verified > 0 && sr.Rejected > 0
	switch {
	case sr.Errors > 0 || sr.BadResult > 0:
		sr.Note = "overload traffic failed verification"
	case sr.Verified == 0:
		sr.Note = "no requests admitted under overload"
	case sr.Rejected == 0:
		sr.Note = "no backpressure observed (expected ErrOverloaded rejections)"
	}
	return sr
}

// runDrainScenario verifies drain-under-close: concurrent clients stream
// requests at an in-process scheduler, Close() lands mid-traffic, and
// every worker must end with a clean ErrClosed — no hangs, no errors, no
// bad results. The accounting cross-check is the "no request lost or
// double-executed" assertion: the scheduler's completed counter must equal
// the number of responses clients actually received and verified.
func runDrainScenario(quick bool) scenarioReport {
	shape := loadShape{M: 64, N: 64, K: 64, Procs: 4, Alg: "hsumma"}
	if quick {
		shape = loadShape{M: 32, N: 32, K: 32, Procs: 4, Alg: "hsumma"}
	}
	pairs := makePairs(shape, 3, 9000)
	rp := tune.ResolveParams{Procs: shape.Procs, Algorithm: engine.Algorithm(shape.Alg)}

	sc := serve.NewScheduler(serve.SchedulerConfig{CoreBudget: 64, QueueDepth: 16})

	conc := 6
	var requests, errCount, rejected, verified, badResult, closedClean atomic.Int64
	lat := serve.NewHistogram()
	var drift driftAgg
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				p := pairs[i%len(pairs)]
				t0 := time.Now()
				out, st, err := sc.Multiply(p.a, p.b, rp)
				requests.Add(1)
				switch {
				case errors.Is(err, serve.ErrClosed):
					closedClean.Add(1)
					return
				case errors.Is(err, serve.ErrOverloaded):
					rejected.Add(1)
					time.Sleep(200 * time.Microsecond)
				case err != nil:
					errCount.Add(1)
				case matrix.MaxAbsDiff(out, p.want) > 1e-9:
					badResult.Add(1)
				default:
					lat.Observe(time.Since(t0).Seconds())
					drift.add(st.ModelDriftRatio)
					verified.Add(1)
				}
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	sc.Close()
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	m := sc.Metrics()

	sr := scenarioReport{
		Name: "drain", Mode: "inproc",
		DurationS:     elapsed,
		Concurrency:   conc,
		Shapes:        []string{shape.String()},
		Requests:      requests.Load(),
		Errors:        errCount.Load(),
		Rejected:      rejected.Load(),
		Verified:      verified.Load(),
		BadResult:     badResult.Load(),
		ClosedClean:   closedClean.Load(),
		P50Ms:         1000 * lat.Quantile(0.5),
		P99Ms:         1000 * lat.Quantile(0.99),
		ModelDriftP50: drift.p50(),
	}
	if elapsed > 0 {
		sr.ThroughputRPS = float64(sr.Verified) / elapsed
	}
	sr.Pass = true
	switch {
	case sr.Errors > 0 || sr.BadResult > 0:
		sr.Pass, sr.Note = false, "drain traffic failed verification"
	case sr.Verified == 0:
		sr.Pass, sr.Note = false, "no requests completed before close"
	case sr.ClosedClean != int64(conc):
		sr.Pass, sr.Note = false, fmt.Sprintf("%d of %d workers ended without a clean ErrClosed", int64(conc)-sr.ClosedClean, conc)
	case m.Completed != sr.Verified:
		sr.Pass, sr.Note = false, fmt.Sprintf("request lost or double-executed: server completed %d, clients verified %d", m.Completed, sr.Verified)
	case sr.Requests != sr.Verified+sr.Rejected+sr.ClosedClean:
		sr.Pass, sr.Note = false, "client-side request accounting does not balance"
	}
	return sr
}

// hsummaReference computes the sequential oracle (blas.Naive through the
// façade helper, avoiding a direct dependency here).
func hsummaReference(dst, a, b *matrix.Dense) {
	res := hsumma.Reference((*hsumma.Matrix)(a), (*hsumma.Matrix)(b))
	dst.CopyFrom((*matrix.Dense)(res))
}

// runPipelineBench drives identical traffic through a serial scheduler
// (PipelineDepth=1, MaxBatch=1 — the pre-pipelining serving path) and a
// pipelined+batched one (the defaults), and reports the throughput ratio.
// The traffic is the batcher's home turf by construction — concurrent
// requests sharing one A with distinct right-hand sides — because that is
// the serving pattern the coalescer exists for; the serial side runs the
// very same stream. Every response is still verified against the
// sequential reference.
func runPipelineBench(quick bool) pipelineBenchReport {
	n, p, total, conc := 128, 16, 96, 8
	if quick {
		n, p, total, conc = 96, 16, 48, 8
	}
	rp := tune.ResolveParams{Procs: p, Algorithm: engine.HSUMMA}
	a := matrix.Random(n, n, 41)
	const nRHS = 4
	bs := make([]*matrix.Dense, nRHS)
	wants := make([]*matrix.Dense, nRHS)
	for i := range bs {
		bs[i] = matrix.Random(n, n, uint64(42+i))
		wants[i] = matrix.New(n, n)
		hsummaReference(wants[i], a, bs[i])
	}

	measure := func(cfg serve.SchedulerConfig) (float64, serve.Metrics) {
		sc := serve.NewScheduler(cfg)
		defer sc.Close()
		// Warm the session (world spin-up, plan and buffer caches).
		if _, _, err := sc.Multiply(a, bs[0], rp); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		iters := total / conc
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					j := (w*iters + i) % nRHS
					out, _, err := sc.Multiply(a, bs[j], rp)
					if err != nil {
						fmt.Fprintln(os.Stderr, "pipeline bench:", err)
						os.Exit(1)
					}
					if matrix.MaxAbsDiff(out, wants[j]) > 1e-9 {
						fmt.Fprintln(os.Stderr, "pipeline bench: result verification failed")
						os.Exit(1)
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(t0).Seconds()
		return float64(conc*iters) / elapsed, sc.Metrics()
	}

	serialRPS, _ := measure(serve.SchedulerConfig{
		CoreBudget: 256, QueueDepth: 4 * conc,
		PipelineDepth: 1, MaxBatch: 1,
	})
	pipedRPS, pm := measure(serve.SchedulerConfig{
		CoreBudget: 256, QueueDepth: 4 * conc,
	})

	pb := pipelineBenchReport{
		N: n, P: p, Requests: total, Concurrency: conc,
		SerialRPS:      serialRPS,
		PipelinedRPS:   pipedRPS,
		BatchSizeMean:  pm.BatchSizeMean,
		OverlapSeconds: pm.PipelineOverlapSeconds,
	}
	if serialRPS > 0 {
		pb.Ratio = pipedRPS / serialRPS
	}
	if math.IsNaN(pb.Ratio) || math.IsInf(pb.Ratio, 0) {
		pb.Ratio = 0
	}
	return pb
}

// runSessionBench measures warm-session vs one-shot Multiply throughput at
// the serving benchmark point (n=512, p=16; a scaled-down n=128 with
// -quick) — the same comparison BenchmarkSessionThroughput reports.
func runSessionBench(quick bool) sessionBenchReport {
	// Iteration counts are sized so each timed side runs ~1s with the
	// packed kernel; at ~30ms per n=512 request, fewer iters made the
	// ratio noise-bound.
	n, p, iters := 512, 16, 30
	if quick {
		n, p, iters = 128, 16, 40
	}
	// Both paths run hybrid ranks when the host has free cores — same
	// fairness as before (identical configs), but compute shrinks and the
	// session's amortised setup becomes the visible difference.
	threads := runtime.NumCPU()
	if threads > 4 {
		threads = 4
	}
	cfg := hsumma.Config{Procs: p, Algorithm: hsumma.AlgHSUMMA, Threads: threads}
	a := hsumma.RandomMatrix(n, n, 1)
	b := hsumma.RandomMatrix(n, n, 2)

	// Warm both paths (plan caches, allocator) before timing.
	if _, _, err := hsumma.Multiply(a, b, cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var oneSetup float64
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		_, st, err := hsumma.Multiply(a, b, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		oneSetup += st.SetupSeconds
	}
	oneShot := time.Since(t0).Seconds()

	sess, err := hsumma.NewSession(hsumma.SquareShape(n), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer sess.Close()
	if _, _, err := sess.Multiply(a, b); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var sessSetup float64
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		_, st, err := sess.Multiply(a, b)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sessSetup += st.SetupSeconds
	}
	sessWall := time.Since(t0).Seconds()

	rb := sessionBenchReport{
		N: n, P: p, Iters: iters,
		Threads: threads, Cores: runtime.NumCPU(),
		OneShotRPS:     float64(iters) / oneShot,
		SessionRPS:     float64(iters) / sessWall,
		OneShotSetupMs: 1000 * oneSetup / float64(iters),
		SessionSetupMs: 1000 * sessSetup / float64(iters),
		TargetRatio:    2.0,
	}
	rb.ThroughputRatio = rb.SessionRPS / rb.OneShotRPS
	if rb.SessionSetupMs > 0 {
		rb.SetupRatio = rb.OneShotSetupMs / rb.SessionSetupMs
	}
	if math.IsNaN(rb.ThroughputRatio) || math.IsInf(rb.ThroughputRatio, 0) {
		rb.ThroughputRatio = 0
	}
	return rb
}

// runTraceBench measures untraced vs traced Multiply throughput on the
// same configuration — the observability overhead gate. The untraced side
// is the nil-recorder fast path every default run takes; the traced side
// pays span recording on every communication call and local multiply.
// Three alternating rounds are timed and the best ratio gated: round
// noise on a shared CI host easily exceeds the real overhead, and a
// genuine systematic regression depresses every round, not just the
// unluckiest one.
func runTraceBench(quick bool) traceBenchReport {
	n, p, iters := 256, 16, 30
	if quick {
		n, p, iters = 128, 16, 30
	}
	cfg := hsumma.Config{Procs: p, Algorithm: hsumma.AlgHSUMMA}
	a := hsumma.RandomMatrix(n, n, 3)
	b := hsumma.RandomMatrix(n, n, 4)
	if _, _, err := hsumma.Multiply(a, b, cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	tb := traceBenchReport{N: n, P: p, Iters: iters}
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if _, _, err := hsumma.Multiply(a, b, cfg); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		untracedRPS := float64(iters) / time.Since(t0).Seconds()

		t0 = time.Now()
		for i := 0; i < iters; i++ {
			if _, _, _, err := hsumma.MultiplyTraced(a, b, cfg); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		tracedRPS := float64(iters) / time.Since(t0).Seconds()

		if untracedRPS <= 0 {
			continue
		}
		if ratio := tracedRPS / untracedRPS; ratio > tb.Ratio {
			tb.UntracedRPS, tb.TracedRPS, tb.Ratio = untracedRPS, tracedRPS, ratio
		}
	}
	return tb
}

// runSampledBench measures scheduler throughput with the flight recorder's
// 1-in-N sampling on vs off — the "always-on tracing stays
// pay-for-what-you-use" gate. Identical warmed traffic drives two
// schedulers differing only in TraceSampleN; like runTraceBench, three
// alternating rounds are timed and the best ratio gated, because
// shared-host round noise dwarfs the real 1-in-N recording cost.
func runSampledBench(quick bool) sampledBenchReport {
	n, p, iters, sampleN := 256, 16, 30, 4
	if quick {
		n, p, iters, sampleN = 128, 16, 30, 4
	}
	rp := tune.ResolveParams{Procs: p, Algorithm: engine.HSUMMA}
	a := matrix.Random(n, n, 51)
	b := matrix.Random(n, n, 52)
	want := matrix.New(n, n)
	hsummaReference(want, a, b)

	measure := func(sc *serve.Scheduler) float64 {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			out, _, err := sc.Multiply(a, b, rp)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sampled bench:", err)
				os.Exit(1)
			}
			if matrix.MaxAbsDiff(out, want) > 1e-9 {
				fmt.Fprintln(os.Stderr, "sampled bench: result verification failed")
				os.Exit(1)
			}
		}
		return float64(iters) / time.Since(t0).Seconds()
	}

	plain := serve.NewScheduler(serve.SchedulerConfig{CoreBudget: 64, QueueDepth: 8})
	defer plain.Close()
	sampled := serve.NewScheduler(serve.SchedulerConfig{
		CoreBudget: 64, QueueDepth: 8, TraceSampleN: sampleN,
	})
	defer sampled.Close()
	// Warm both sessions (world spin-up, plan and buffer caches).
	measureWarm := func(sc *serve.Scheduler) {
		if _, _, err := sc.Multiply(a, b, rp); err != nil {
			fmt.Fprintln(os.Stderr, "sampled bench:", err)
			os.Exit(1)
		}
	}
	measureWarm(plain)
	measureWarm(sampled)

	sb := sampledBenchReport{N: n, P: p, Iters: iters, SampleN: sampleN}
	for round := 0; round < 3; round++ {
		unsampledRPS := measure(plain)
		sampledRPS := measure(sampled)
		if unsampledRPS <= 0 {
			continue
		}
		if ratio := sampledRPS / unsampledRPS; ratio > sb.Ratio {
			sb.UnsampledRPS, sb.SampledRPS, sb.Ratio = unsampledRPS, sampledRPS, ratio
		}
	}
	return sb
}
