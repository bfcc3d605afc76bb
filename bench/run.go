package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// opts are the knobs of one run. quick and corrupt exist for the package's
// own tests: quick trims repetition counts (never problem sizes) so a smoke
// of every workload fits a unit-test budget, corrupt damages every result
// before verification to prove the oracle counts it.
type opts struct {
	seed    int64
	window  time.Duration
	trace   bool
	quick   bool
	corrupt bool
}

// pick returns full, or short under quick.
func (o opts) pick(full, short int) int {
	if o.quick {
		return short
	}
	return full
}

// workload is one set of inputs the benchmark runs. All are closed loop:
// `callers` callers that each wait for a reply before sending the next op.
type workload struct {
	name, why string
	callers   int
	// setup is the workload's set-up as setup_s defines it: generate
	// operands and references from the seed, start whatever serves the ops,
	// run the cold first op and the fixed-count warm-up.
	setup func(o opts) (instance, error)
}

// instance is a set-up workload, ready for timed ops.
type instance interface {
	// op runs one op for the given caller and returns the caller-observed
	// time and whether the verified result was right. Verification runs
	// after the timed span.
	op(caller int) (time.Duration, bool)
	// layers adds the layer numbers read from values the timed ops returned.
	layers(m metrics)
	// traced is the traced pass: a fixed number of ops with a span around
	// every call into a layer, plus the isolated layer probes. It returns
	// how many ops it attempted and how many were wrong.
	traced(tr *tracer, m metrics) (attempted, failed int)
	// flops is the arithmetic of one op (0 when the op moves no data).
	flops() float64
	close()
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median, which keeps one slow page-fault storm from reading as a
// regression. The last instance is the one measured.
const setupReps = 3

// rateSegments is the number of equal-count segments ops_per_s is the
// median of (see segmentRate).
const rateSegments = 5

type opSample struct {
	done float64 // seconds since the window opened, after verification
	ms   float64 // caller-observed op time
	ok   bool
}

// runWindow drives the closed loop for the length of the window and returns
// every op in completion order.
func runWindow(callers int, window time.Duration, op func(caller int) (time.Duration, bool)) []opSample {
	per := make([][]opSample, callers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < window {
				d, ok := op(c)
				per[c] = append(per[c], opSample{done: time.Since(start).Seconds(), ms: ms(d), ok: ok})
			}
		}(c)
	}
	wg.Wait()
	var all []opSample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	return all
}

// runWorkload sets the workload up, measures the timed window with tracing
// off and, when asked, runs the traced pass. The tracer is nil without one.
func runWorkload(w workload, o opts) (result, *tracer, error) {
	m := metrics{}
	var inst instance
	setups := make([]float64, 0, setupReps)
	for r := 0; r < o.pick(setupReps, 1); r++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		t0 := time.Now()
		var err error
		if inst, err = w.setup(o); err != nil {
			return result{}, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	m["setup_s"] = median(setups)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops := runWindow(w.callers, o.window, inst.op)
	runtime.ReadMemStats(&after)

	var lat, done []float64
	for _, s := range ops {
		if s.ok {
			lat = append(lat, s.ms)
			done = append(done, s.done)
		}
	}
	attempted, failed := len(ops), len(ops)-len(lat)
	m["op_ms_p50"] = median(lat)
	m["ops_per_s"] = segmentRate(done, rateSegments)
	m["load.ops"] = float64(len(lat))
	m["load.op_ms_p90"] = percentile(lat, 0.9)
	if f := inst.flops(); f > 0 {
		m["load.gflops"] = m["ops_per_s"] * f / 1e9
	}
	n := float64(attempted)
	m["proc.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / n / 1e6
	m["proc.mallocs_per_op"] = float64(after.Mallocs-before.Mallocs) / n
	m["proc.gc_pause_ms_per_op"] = float64(after.PauseTotalNs-before.PauseTotalNs) / n / 1e6
	inst.layers(m)

	var tr *tracer
	if o.trace {
		tr = newTracer()
		a, f := inst.traced(tr, m)
		attempted, failed = attempted+a, failed+f
		// Read the high-water mark before the copy probe adds its arrays.
		m["proc.peak_rss_mb"] = peakRSSMB()
		m["mem.copy_gbps"] = copyGBps(o.pick(7, 2))
	}
	m["load.fail_share"] = float64(failed) / float64(attempted)
	m.checkDefined()

	res := result{
		Workload: w.name, Why: w.why, Seed: o.seed, Seconds: o.window.Seconds(), Callers: w.callers,
		Correct: failed == 0 && len(lat) > 0, Attempted: attempted, Failed: failed,
		Host: fingerprint(),
	}
	res.EndToEnd, _ = m.render(endToEnd)
	if o.trace {
		res.PerLayer, res.Unmeasured = m.render(perLayer)
	}
	return res, tr, nil
}
