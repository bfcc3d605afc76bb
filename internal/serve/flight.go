package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/matrix"
	"repro/internal/trace"
)

// This file is the serving layer's flight recorder: a bounded ring of
// sampled span timelines. It is an observability aid — nothing on the
// execution path depends on it, and with sampling off a request's execution
// is bit-identical to the untraced layer.

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
