package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/matrix"
	"repro/internal/trace"
)

// This file is the serving layer's plan-fidelity machinery: a per-spec-key
// EWMA of the measured/predicted all-phase cost ratio (the drift tracker),
// and a bounded ring of sampled span timelines (the flight recorder). Both
// are observability aids — nothing on the execution path depends on them,
// and with sampling off a request's execution is bit-identical to the
// untracked layer.

// driftBounds are the ratio-bucket upper bounds of the
// hsumma_serve_model_drift_ratio histogram: measured/predicted, centred on
// 1.0 (model exact), roughly geometric so symmetric drift lands in
// symmetric buckets.
var driftBounds = []float64{0.25, 0.5, 0.71, 0.9, 1.0, 1.1, 1.4, 2, 4, 8}

// driftState is one spec key's running fidelity estimate: the EWMA of the
// all-phase ratio (Σ measured / Σ predicted over the predicted phases), a
// less noisy staleness signal than any single phase, and its sample count.
type driftState struct {
	total float64
	n     int
}

// driftTracker keeps per-spec-key drift state and decides when a plan has
// gone stale: the total-ratio EWMA has settled (≥ minSamples) outside
// [1/driftThreshold, driftThreshold]. On a stale verdict the key's state
// resets, so one bad plan counts once, not once per subsequent request.
type driftTracker struct {
	minSamples int
	alpha      float64

	mu    sync.Mutex
	byKey map[string]*driftState
}

// driftThreshold is the sustained measured/predicted ratio (or its
// inverse) that marks a plan stale; driftMinSamples is the settling count
// the scheduler's tracker uses before a key can be marked.
const (
	driftThreshold  = 2.0
	driftMinSamples = 8
)

func newDriftTracker(minSamples int) *driftTracker {
	return &driftTracker{minSamples: minSamples, alpha: 0.3, byKey: make(map[string]*driftState)}
}

// driftRatio is one request's all-phase measured/predicted ratio over the
// phases both sides carry (0 when nothing is comparable).
func driftRatio(predicted, measured map[string]float64) float64 {
	var predSum, measSum float64
	for ph, p := range predicted {
		if m, ok := measured[ph]; ok && p > 0 && m > 0 {
			predSum += p
			measSum += m
		}
	}
	if predSum <= 0 {
		return 0
	}
	return measSum / predSum
}

// observe folds one request's measured phase seconds against its plan's
// prediction. It returns the request's instantaneous all-phase ratio (0
// when nothing was comparable) and whether this observation tipped the key
// into the stale regime.
func (d *driftTracker) observe(key string, predicted, measured map[string]float64) (ratio float64, stale bool) {
	ratio = driftRatio(predicted, measured)
	if ratio == 0 {
		return 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.byKey[key]
	if st == nil {
		st = &driftState{}
		d.byKey[key] = st
	}
	if st.n == 0 {
		st.total = ratio
	} else {
		st.total += d.alpha * (ratio - st.total)
	}
	st.n++
	if st.n >= d.minSamples && (st.total > driftThreshold || st.total < 1/driftThreshold) {
		// Reset so the key starts a fresh estimate.
		delete(d.byKey, key)
		return ratio, true
	}
	return ratio, false
}

// forget drops a retired key's state: a session that comes back for the
// shape starts a fresh estimate. (An EWMA has no meaningful merge, and no
// verdict is ever read off a catch-all key, so there is nothing to fold.)
func (d *driftTracker) forget(key string) {
	d.mu.Lock()
	delete(d.byKey, key)
	d.mu.Unlock()
}

// measuredPhases builds the drift comparison's measured side from one
// request's stats: the per-phase comm seconds plus the gemm time, scaled
// down by the coalesced batch width. The scaling is an approximation —
// gemm and the RHS traffic grow linearly with width, the A-side broadcast
// does not — but it keeps batched requests comparable to their
// single-request prediction within the tracker's threshold.
func measuredPhases(st Stats) map[string]float64 {
	k := float64(st.BatchSize)
	if k < 1 {
		k = 1
	}
	m := make(map[string]float64, len(st.CommSecondsByPhase)+1)
	for ph, v := range st.CommSecondsByPhase {
		m[ph] = v / k
	}
	if st.GemmSeconds > 0 {
		m["gemm"] = st.GemmSeconds / k
	}
	return m
}

// flightEntry is one sampled request's capture.
type flightEntry struct {
	ID      string
	Time    time.Time
	SpecKey string
	Shape   matrix.Shape
	Wall    float64
	Rec     *trace.Recorder
}

// FlightSummary is the listing form of one capture (GET /debug/traces).
type FlightSummary struct {
	ID          string    `json:"id"`
	Time        time.Time `json:"time"`
	SpecKey     string    `json:"spec_key"`
	Shape       string    `json:"shape"`
	WallSeconds float64   `json:"wall_seconds"`
	Spans       int       `json:"spans"`
}

// flightRingSize bounds the scheduler's flight-recorder ring.
const flightRingSize = 16

// flightRecorder is the bounded ring of sampled traces. Adds evict the
// oldest entry once the ring is full; ids are monotonic, so a fetch of an
// evicted id is a clean 404 rather than aliased data.
type flightRecorder struct {
	mu   sync.Mutex
	max  int
	seq  int64
	ring []*flightEntry
}

func newFlightRecorder(max int) *flightRecorder { return &flightRecorder{max: max} }

func (f *flightRecorder) add(specKey string, shape matrix.Shape, wall float64, rec *trace.Recorder) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	e := &flightEntry{
		ID:      fmt.Sprintf("t%06d", f.seq),
		Time:    time.Now(),
		SpecKey: specKey,
		Shape:   shape,
		Wall:    wall,
		Rec:     rec,
	}
	f.ring = append(f.ring, e)
	if len(f.ring) > f.max {
		f.ring = append(f.ring[:0:0], f.ring[len(f.ring)-f.max:]...)
	}
	return e.ID
}

// list returns capture summaries, newest first.
func (f *flightRecorder) list() []FlightSummary {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightSummary, 0, len(f.ring))
	for _, e := range f.ring {
		out = append(out, FlightSummary{
			ID:          e.ID,
			Time:        e.Time,
			SpecKey:     e.SpecKey,
			Shape:       fmt.Sprintf("%dx%dx%d", e.Shape.M, e.Shape.N, e.Shape.K),
			WallSeconds: e.Wall,
			Spans:       len(e.Rec.Spans()),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

func (f *flightRecorder) get(id string) *flightEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range f.ring {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// last returns the most recent capture (nil when none) — the timeline
// GET /debug/critpath analyses.
func (f *flightRecorder) last() *flightEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.ring) == 0 {
		return nil
	}
	return f.ring[len(f.ring)-1]
}
