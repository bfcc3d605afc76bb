package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef mirrors one entry of BENCHMARK.json (the test asserts the two
// lists are equal). Bound is the share of the parent's median by which an
// end-to-end metric may worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a caller of the system sees; the same names on
// every workload. An op is one Multiply, one HTTP request or one Simulate,
// timed at the caller with verification outside the timed span. Failures are
// not a metric here: the result line carries them as failed/attempted, and
// the per-layer list repeats them as load.fail_share.
var endToEnd = []metricDef{
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the ledger: one row per number a layer (= internal module)
// gives, measured from outside in the traced pass or read from values the
// layer returns. A layer that is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	// Host-side spans of the decomposed live multiply.
	{Name: "tune.resolve_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.scatter_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.gather_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.scatter_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "mpi.run_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.spawn_ms", Unit: "ms", Better: "lower"},
	// Per-rank aggregates (mpi.Summarize / serve.Stats).
	{Name: "mpi.comm_max_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.bcast_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.p2p_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.comm_share", Unit: "ratio", Better: "lower"},
	{Name: "mpi.bcast_us", Unit: "us", Better: "lower"},
	{Name: "mpi.bcast_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "mpi.messages", Unit: "count", Better: "lower"},
	{Name: "mpi.bytes_mb", Unit: "MB", Better: "lower"},
	{Name: "mpi.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "mpi.wait_share", Unit: "ratio", Better: "lower"},
	{Name: "blas.gemm_max_ms", Unit: "ms", Better: "lower"},
	{Name: "blas.gemm_share", Unit: "ratio", Better: "lower"},
	{Name: "blas.panel_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "blas.square_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "blas.parallel_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "blas.ops_per_byte", Unit: "flop/B", Better: "higher"},
	{Name: "hsumma.seq_ratio", Unit: "ratio", Better: "lower"},
	{Name: "hsumma.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "hsumma.wall_gap_share", Unit: "ratio", Better: "lower"},
	// One serve op timed at four depths, and the self times between them.
	{Name: "serve.http_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.scheduler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.session_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.net_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.codec_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sched_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.codec_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stage_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_mean", Unit: "ratio", Better: "higher"},
	{Name: "serve.session_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.body_mb", Unit: "MB", Better: "lower"},
	// Virtual engines and the simulated result (exact; a change is a
	// fidelity change).
	{Name: "evsim.sim_ms", Unit: "ms", Better: "lower"},
	{Name: "evsim.ranksteps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "simnet.sim_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.total_s", Unit: "s", Better: "lower"},
	{Name: "sim.comm_s", Unit: "s", Better: "lower"},
	{Name: "sim.messages", Unit: "count", Better: "lower"},
	{Name: "sim.bytes_gb", Unit: "GB", Better: "lower"},
	{Name: "sim.comm_ratio", Unit: "ratio", Better: "higher"},
	// Planner and closed-form model (set-up cost under algorithm=auto).
	{Name: "tune.plan_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "tune.plan_cached_us", Unit: "us", Better: "lower"},
	{Name: "tune.simruns", Unit: "count", Better: "lower"},
	{Name: "model.predict_us", Unit: "us", Better: "lower"},
	// Overhead of the two tracers, load diagnostics, process and memory.
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.lib_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "load.ops", Unit: "count", Better: "higher"},
	{Name: "load.op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "load.traced_op_ms", Unit: "ms", Better: "lower"},
	{Name: "load.gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "load.fail_share", Unit: "ratio", Better: "lower"},
	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "proc.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "mem.copy_gbps", Unit: "GB/s", Better: "higher"},
}

// value is one reported number with its unit, as the result line wants it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's numbers by name; units come from the
// definitions when the run is rendered.
type metrics map[string]float64

// render resolves the collected numbers against a definition list: every
// defined metric appears, with 0 for one the workload did not measure (those
// names are returned too).
func (m metrics) render(defs []metricDef) (out map[string]value, unmeasured []string) {
	out = make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			unmeasured = append(unmeasured, d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, unmeasured
}

// checkDefined panics on a collected name that no list defines — a
// programming error — so a typo cannot silently drop a number.
func (m metrics) checkDefined() {
	known := make(map[string]bool)
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for name := range m {
		if !known[name] {
			panic("bench: metric " + name + " is not in the definition lists")
		}
	}
}

// result is everything one run of one workload reports; `bench -all`
// gathers one per workload into a suite.
type result struct {
	Workload  string           `json:"workload"`
	Why       string           `json:"why"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Callers   int              `json:"callers"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	// Unmeasured names the per-layer metrics that read 0 because the layer
	// is not on this workload's path, as opposed to a measured zero.
	Unmeasured []string `json:"unmeasured,omitempty"`
	Host       host     `json:"host"`
}

// suite is the file `bench -all` writes and bench/results/ keeps.
type suite struct {
	PR        string            `json:"pr"`
	Host      host              `json:"host"`
	Workloads map[string]result `json:"workloads"`
}

// print lists every metric by name with its unit, one per line.
func (r result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  window %.1fs  callers %d  attempted %d  failed %d  correct %v\n",
		r.Workload, r.Seed, r.Seconds, r.Callers, r.Attempted, r.Failed, r.Correct)
	printSection(w, "end-to-end", endToEnd, r.EndToEnd, nil)
	if r.PerLayer != nil {
		printSection(w, "per-layer", perLayer, r.PerLayer, r.Unmeasured)
	}
}

func printSection(w io.Writer, title string, defs []metricDef, vals map[string]value, unmeasured []string) {
	off := make(map[string]bool, len(unmeasured))
	for _, n := range unmeasured {
		off[n] = true
	}
	fmt.Fprintf(w, "  %s:\n", title)
	for _, d := range defs {
		note := ""
		if off[d.Name] {
			note = "  (layer not on this workload's path)"
		}
		v := vals[d.Name]
		fmt.Fprintf(w, "    %-28s %16.6g %-8s%s\n", d.Name, v.Value, v.Unit, note)
	}
}

// workloadNames returns the suite's workload names in a stable order.
func (s suite) workloadNames() []string {
	names := make([]string, 0, len(s.Workloads))
	for n := range s.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
