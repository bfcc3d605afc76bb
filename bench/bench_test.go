package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestSegmentRate(t *testing.T) {
	// 100 ops at a steady 10/s, except that segment three stalls for 5 s:
	// the mean rate drops by a third, the median of the segments does not.
	var done []float64
	now := 0.0
	for i := 0; i < 100; i++ {
		now += 0.1
		if i == 50 {
			now += 5
		}
		done = append(done, now)
	}
	if got := segmentRate(done, 5); math.Abs(got-10) > 1e-9 {
		t.Errorf("segmentRate with one stalled segment = %v, want 10", got)
	}
	if got := segmentRate(done[:3], 5); math.Abs(got-10) > 1e-9 {
		t.Errorf("segmentRate of 3 ops = %v, want ops/elapsed = 10", got)
	}
	if got := segmentRate(nil, 5); got != 0 {
		t.Errorf("segmentRate of no ops = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	msec := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10 * msec},
		{ID: 1, Parent: 0, Name: "a", Start: 1 * msec, End: 4 * msec},
		{ID: 2, Parent: 0, Name: "b", Start: 4 * msec, End: 9 * msec},
		{ID: 3, Parent: 2, Name: "c", Start: 5 * msec, End: 6 * msec},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"op": 2, "a": 3, "b": 4, "c": 1} {
		if got := self[name]; len(got) != 1 || math.Abs(got[0]-want) > 1e-12 {
			t.Errorf("self time of %s = %v, want [%v]", name, got, want)
		}
	}
	if got := durations(spans)["b"][0]; got != 5 {
		t.Errorf("duration of b = %v, want 5", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDefinitionsMatchBenchmarkJSON holds the lists compiled into the
// program against the contract file at the root of the repository.
func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the program's default window is %v", bj.RunSeconds, defaultSeconds)
	}
	seen := map[string]bool{}
	unique := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	ws := workloads()
	if len(ws) != len(bj.Workloads) {
		t.Fatalf("%d workloads in the program, %d in BENCHMARK.json", len(ws), len(bj.Workloads))
	}
	for i, w := range ws {
		unique("workload", w.name)
		if w.name != bj.Workloads[i].Name || w.why != bj.Workloads[i].Why {
			t.Errorf("workload %d is %q in the program and %q in BENCHMARK.json (or their reasons differ)", i, w.name, bj.Workloads[i].Name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	for _, c := range []struct {
		kind      string
		have, the []metricDef
	}{{"end-to-end", endToEnd, bj.EndToEnd}, {"per-layer", perLayer, bj.PerLayer}} {
		if len(c.have) != len(c.the) {
			t.Fatalf("%d %s metrics in the program, %d in BENCHMARK.json", len(c.have), c.kind, len(c.the))
		}
		for i, d := range c.have {
			unique(c.kind+" metric", d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the allowed characters", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			if d != c.the[i] {
				t.Errorf("%s metric %d: program has %+v, BENCHMARK.json has %+v", c.kind, i, d, c.the[i])
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs every workload for half a second with its traced pass:
// nothing may fail, every defined metric must be reported, the live
// decompositions must close, and the Chrome trace must parse.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, tr, err := runWorkload(w, opts{seed: 3, window: 500 * time.Millisecond, trace: true, quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if got := res.PerLayer["load.fail_share"].Value; got != 0 {
				t.Errorf("load.fail_share = %v, want 0", got)
			}
			for _, d := range endToEnd {
				if v := res.EndToEnd[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, %d defined", len(res.PerLayer), len(perLayer))
			}
			if res.PerLayer["mpi.run_ms"].Value > 0 { // the live workloads
				if got := res.PerLayer["hsumma.unattributed_share"].Value; got > 0.05 {
					t.Errorf("hsumma.unattributed_share = %v: the layer spans do not sum to the op", got)
				}
			}
			var buf bytes.Buffer
			if err := tr.writeChrome(&buf); err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
				t.Fatalf("Chrome trace does not parse: %v", err)
			}
			if len(chrome.TraceEvents) == 0 || chrome.TraceEvents[0].Ph != "X" {
				t.Errorf("Chrome trace holds %d events", len(chrome.TraceEvents))
			}
		})
	}
}

// TestOracleCountsCorruption damages one element of every response and
// expects the run to say so.
func TestOracleCountsCorruption(t *testing.T) {
	w, _ := workloadByName("serve_raw")
	res, _, err := runWorkload(w, opts{seed: 1, window: 200 * time.Millisecond, trace: true, quick: true, corrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("correct=%v failed=%d of %d, want every op counted as failed", res.Correct, res.Failed, res.Attempted)
	}
	if got := res.PerLayer["load.fail_share"].Value; got != 1 {
		t.Errorf("load.fail_share = %v, want 1", got)
	}
}

func TestCompare(t *testing.T) {
	lower, higher := metricDef{Better: "lower"}, metricDef{Better: "higher"}
	if got := worseBy(lower, 10, 12); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("lower-is-better 10 -> 12 is worse by %v, want 0.2", got)
	}
	if got := worseBy(higher, 10, 12); math.Abs(got+0.2) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 12 is worse by %v, want -0.2", got)
	}

	dir := t.TempDir()
	write := func(name string, opMs float64) string {
		r := result{Workload: "live_comm", EndToEnd: map[string]value{
			"op_ms_p50": {opMs, "ms"}, "ops_per_s": {80, "1/s"}, "setup_s": {0.3, "s"}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, suite{Workloads: map[string]result{r.Workload: r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := endToEnd[0].Bound // op_ms_p50's
	a, near, far := write("a.json", 12), write("near.json", 12*(1+bound/2)), write("far.json", 12*(1+2*bound))
	if code := compareMain([]string{a, near}, io.Discard); code != 0 {
		t.Errorf("compare within the bound exits %d, want 0", code)
	}
	if code := compareMain([]string{a, far}, io.Discard); code != 1 {
		t.Errorf("compare beyond the bound exits %d, want 1", code)
	}
	// A single workload's result file is accepted in place of a suite.
	single := filepath.Join(dir, "single.json")
	if err := writeJSON(single, result{Workload: "live_comm", EndToEnd: map[string]value{"op_ms_p50": {12, "ms"}}}); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{single, single}, io.Discard); code != 0 {
		t.Errorf("compare of a result with itself exits %d, want 0", code)
	}
}
