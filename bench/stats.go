package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the two closest ranks; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// segmentRate is the throughput estimator behind ops_per_s: done holds the
// completion times (seconds since the window opened, ascending) of the
// verified ops; the window is cut into `segments` runs of equal op count and
// the median of the per-segment rates is returned. A stall that hits one
// segment of a run on a shared host therefore does not move the result,
// while a sustained slowdown moves every segment. With fewer ops than
// segments it degrades to ops / elapsed.
func segmentRate(done []float64, segments int) float64 {
	n := len(done)
	if n == 0 {
		return 0
	}
	if n < 2*segments {
		return float64(n) / done[n-1]
	}
	rates := make([]float64, 0, segments)
	prevEnd, prevIdx := 0.0, 0
	for s := 1; s <= segments; s++ {
		idx := s * n / segments
		end := done[idx-1]
		if dt := end - prevEnd; dt > 0 {
			rates = append(rates, float64(idx-prevIdx)/dt)
		}
		prevEnd, prevIdx = end, idx
	}
	return median(rates)
}

// sampleSet gathers per-op readings under the name of the metric they feed;
// the metric is their median.
type sampleSet map[string][]float64

func (s sampleSet) add(name string, v float64) { s[name] = append(s[name], v) }

func (s sampleSet) merge(o sampleSet) {
	for name, xs := range o {
		s[name] = append(s[name], xs...)
	}
}

func (s sampleSet) medians(m metrics) {
	for name, xs := range s {
		m[name] = median(xs)
	}
}

// span is one timed interval recorded by the benchmark around a call into a
// layer. Spans of one op share Op; Parent is the span that caused this one
// (-1 for the op's root span); Lane is the caller that ran it. Times are
// offsets from the tracer's epoch.
type span struct {
	ID, Parent, Op, Lane int
	Name                 string
	Start, End           time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory and is written out as Chrome trace-event JSON
// when the workload ends. The serve workloads trace with all their callers
// active, hence the lock; read spans only once the callers have finished.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span on a caller's lane and returns its id; end closes it.
func (t *tracer) begin(lane int, name string, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Lane: lane, Name: name, Start: time.Since(t.epoch)})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, one self time per recorded span in
// milliseconds: the span's duration minus the part its direct children
// cover. Children of one parent run back to back on one goroutine, so their
// durations do not overlap and the subtraction is exact.
func selfTimes(spans []span) map[string][]float64 {
	covered := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], ms(s.dur()-covered[s.ID]))
	}
	return out
}

// durations returns, per span name, the full duration of each span in
// milliseconds.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], ms(s.dur()))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// the same container internal/trace writes, so both open in Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as {"traceEvents": [...]}, one thread lane
// per caller. Nesting is carried by time containment within a lane, and
// repeated in args for tools that want the causal parent.
func (t *tracer) writeChrome(w io.Writer) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Tid:  s.Lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{"ms", events})
}

// sampleSeconds times fn and returns the median seconds per call over
// `samples` samples, each long enough (fn repeated until minSample has
// passed) that the clock's resolution does not show.
func sampleSeconds(samples int, minSample time.Duration, fn func()) float64 {
	inner := 1
	for {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		if dt := time.Since(t0); dt >= minSample || inner >= 1<<20 {
			break
		}
		inner *= 2
	}
	per := make([]float64, samples)
	for s := range per {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		per[s] = time.Since(t0).Seconds() / float64(inner)
	}
	return median(per)
}
