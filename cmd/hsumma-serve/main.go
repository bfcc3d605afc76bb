// Command hsumma-serve is the GEMM-as-a-service daemon: an HTTP front end
// over the serving subsystem (internal/serve), keeping one session — a
// resolved plan, a queue and operand scratch — per execution shape and
// routing concurrent multiply requests onto them.
//
//	hsumma-serve -addr :8080 -platform grid5000 -core-budget 256
//
// Endpoints:
//
//	POST /multiply   one GEMM; JSON body:
//	                   {"m":512,"n":512,"k":512,"procs":16,
//	                    "algorithm":"hsumma","threads":4,"a":[...],"b":[...]}
//	                 or raw little-endian float64s (A then B) with the
//	                 shape in query parameters:
//	                   /multiply?m=512&k=512&n=512&procs=16&threads=4
//	GET  /plan       the autotuning planner's ranked plan:
//	                   /plan?n=4096&p=256&platform=bgp
//	GET  /metrics    scheduler + plan-cache counters, per-key latency
//	                 histograms (Prometheus format)
//	GET  /healthz    liveness
//	GET  /debug/traces     (only with -trace-sample) the flight recorder's
//	                       sampled captures; /debug/traces/{id} fetches one
//	                       as Chrome trace-event JSON (-trace-sample 1
//	                       captures every multiply)
//	GET  /debug/critpath   (only with -trace-sample) critical-path report
//	                       over the newest sampled capture
//	GET  /debug/pprof/...  (only with -pprof) the Go runtime profiler
//
// The daemon logs one structured JSON record per request (log/slog):
// request id, method, path, status, duration, and for multiplies the spec
// key, shape and queue wait. -log-level picks the floor (debug also logs
// /metrics and /healthz scrapes).
//
// Each run's ranks — goroutines spawned for that run — read the request's
// operands in place (the decoded body is the operand until the response is
// written; only a padded shape or a coalesced batch is copied, once, into
// the session's scratch), and one runner loop per session coalesces queued
// same-A requests into one multi-right-hand-side execution; -max-batch 1
// turns the coalescing off.
//
// Sessions are accounted in cores — ranks × per-rank threads — against the
// core budget. Backpressure (bounded session queues, core budget) surfaces
// as 503 with Retry-After; a SIGINT/SIGTERM drains gracefully — in-flight
// requests finish, queued ones get a clean error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/blas"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		pfName     = flag.String("platform", "", "platform preset the planner tunes auto requests for (grid5000[-cal], bgp[-cal], exascale; empty = grid5000)")
		coreBudget = flag.Int("core-budget", 256, "max cores (ranks × threads) reserved across live sessions; idle sessions retire LRU-first to admit a new shape")
		queueDepth = flag.Int("queue-depth", 32, "per-session bounded queue depth")
		maxBatch   = flag.Int("max-batch", 0, "max same-A requests coalesced into one multi-RHS execution, 1 = no batching (default 8)")
		batchWin   = flag.Duration("batch-window", 0, "extra wait for same-A arrivals before executing a non-full batch (0 = coalesce only what is already queued)")
		procs      = flag.Int("default-procs", 16, "rank count for requests that do not pin one")
		kernCalib  = flag.Bool("kernel-calib", false, "at startup, time the threaded kernel on this host and calibrate the planner's intra-rank speedup curve from the measured scaling (off = the 3% default serial fraction)")
		withPprof  = flag.Bool("pprof", false, "expose the Go profiler under /debug/pprof/")
		traceEvery = flag.Int("trace-sample", 0, "flight recorder: sample 1 in N multiplies into a bounded trace ring served at /debug/traces (0 = off)")
		traceRing  = flag.Int("trace-ring", 0, "flight-recorder ring capacity (default 16 captures)")
		driftRepl  = flag.Bool("drift-replan", false, "invalidate a shape's memoised plan when its measured/predicted cost drifts persistently past -drift-threshold")
		driftThr   = flag.Float64("drift-threshold", 0, "sustained measured/predicted ratio (or inverse) that marks a plan stale (default 2.0)")
		logLevel   = flag.String("log-level", "info", "log floor: debug, info, warn or error")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "hsumma-serve: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *kernCalib {
		if fit, ok := calibrateThreads(); ok {
			logger.Info("thread scaling calibrated",
				"cores", runtime.GOMAXPROCS(0),
				"serial_fraction", fit,
				"default", machine.DefaultThreadOverhead,
			)
		} else {
			logger.Warn("-kernel-calib: one core, nothing to fit; keeping the default serial fraction",
				"default", machine.DefaultThreadOverhead)
		}
	}

	hcfg := serve.HandlerConfig{
		DefaultProcs: *procs,
		Logger:       logger,
	}
	if *pfName != "" {
		pf, err := machine.ByName(*pfName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		hcfg.Platform = &pf
	}

	sched := serve.NewScheduler(serve.SchedulerConfig{
		CoreBudget:     *coreBudget,
		QueueDepth:     *queueDepth,
		MaxBatch:       *maxBatch,
		BatchWindow:    *batchWin,
		TraceSampleN:   *traceEvery,
		TraceRingSize:  *traceRing,
		DriftReplan:    *driftRepl,
		DriftThreshold: *driftThr,
	})
	handler := serve.NewHandler(sched, hcfg)
	if *withPprof {
		// An outer mux: the service endpoints stay exactly as NewHandler
		// wires them, with the profiler grafted alongside. Deliberately
		// opt-in — /debug/pprof on an open port leaks heap contents.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logger.Info("draining", "note", "in-flight requests finish, queued ones error out")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		sched.Close()
		close(done)
	}()

	logger.Info("listening",
		"addr", *addr,
		"core_budget", *coreBudget,
		"queue_depth", *queueDepth,
		"max_batch", *maxBatch,
		"batch_window", batchWin.String(),
		"default_procs", *procs,
		"pprof", *withPprof,
		"trace_sample", *traceEvery,
		"drift_replan", *driftRepl,
		"log_level", level.String(),
	)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen failed", "error", err)
		os.Exit(1)
	}
	<-done
}

// calibrateThreads fits the planner's intra-rank speedup curve to this
// host: one 512³ product through blas.ParallelGemm at 1, 2, 4 … GOMAXPROCS
// threads (best of 3 each), the t → speedup-over-one-thread points handed
// to machine.CalibrateFromScaling. The fit replaces the default 3% serial
// fraction, so auto-planned thread budgets reflect what the host's cores
// actually deliver; ok is false on a one-core host, which has no point to
// fit. Serial configurations are unaffected (Speedup(1) stays exactly 1).
func calibrateThreads() (fit float64, ok bool) {
	const n = 512
	a, b, c := matrix.Random(n, n, 1), matrix.Random(n, n, 2), matrix.New(n, n)
	best := func(threads int) float64 {
		s := math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			blas.ParallelGemm(c, a, b, threads)
			s = math.Min(s, time.Since(t0).Seconds())
		}
		return s
	}
	one := best(1)
	points := map[int]float64{}
	for t := 2; t <= runtime.GOMAXPROCS(0); t *= 2 {
		points[t] = one / best(t)
	}
	return machine.CalibrateFromScaling(points)
}
