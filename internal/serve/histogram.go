package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// histBounds are the upper bounds (seconds) of the serve latency histogram
// buckets — a 1-2.5-5 ladder from 1ms to 30s, wide enough to cover a
// scatter of a 64×64 as well as a full-scale padded multiply.
var histBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// batchBounds are the upper bounds of the batch-size histogram: batch sizes
// are small integers no larger than maxBatch, so each power of two up to
// it gets its own bucket and none lies above it — such a bucket could
// never count anything the one at maxBatch does not.
var batchBounds = func() []float64 {
	var b []float64
	for n := 1; n <= maxBatch; n *= 2 {
		b = append(b, float64(n))
	}
	return b
}()

// histogram is one Prometheus-style cumulative histogram (counts per
// upper-bound bucket, plus +Inf, sum and count). Hand-rolled: the repo is
// stdlib-only.
type histogram struct {
	bounds  []float64
	buckets []uint64 // len(bounds)+1; last is +Inf
	sum     float64
	count   uint64
}

func (h *histogram) observe(v float64) {
	if h.buckets == nil {
		h.buckets = make([]uint64, len(h.bounds)+1)
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i]++
	h.sum += v
	h.count++
}

// bucketQuantile estimates the q-quantile (0..1) over cumulative-histogram
// buckets with the standard Prometheus linear interpolation inside the
// owning bucket — the one estimator behind every quantile the scheduler
// reports (Metrics.LatencyP50Seconds / LatencyP99Seconds, ModelDriftP50).
func bucketQuantile(bounds []float64, buckets []uint64, count uint64, q float64) float64 {
	if count == 0 || len(buckets) == 0 {
		return 0
	}
	rank := q * float64(count)
	cum := uint64(0)
	for i, b := range buckets {
		cum += b
		if float64(cum) >= rank {
			if i == len(bounds) {
				return bounds[len(bounds)-1] // +Inf bucket: clamp
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if b == 0 {
				return bounds[i]
			}
			frac := (rank - float64(cum-b)) / float64(b)
			return lo + (bounds[i]-lo)*math.Min(1, math.Max(0, frac))
		}
	}
	return bounds[len(bounds)-1]
}

// histogramVec groups histograms of one metric family by spec key.
type histogramVec struct {
	mu     sync.Mutex
	name   string
	help   string
	bounds []float64
	byKey  map[string]*histogram
}

func newHistogramVec(name, help string) *histogramVec {
	return &histogramVec{name: name, help: help, bounds: histBounds, byKey: make(map[string]*histogram)}
}

// newHistogramVecBounds is newHistogramVec with custom bucket bounds (the
// batch-size family counts integers, not seconds).
func newHistogramVecBounds(name, help string, bounds []float64) *histogramVec {
	return &histogramVec{name: name, help: help, bounds: bounds, byKey: make(map[string]*histogram)}
}

func (hv *histogramVec) observe(key string, v float64) {
	hv.mu.Lock()
	h := hv.byKey[key]
	if h == nil {
		h = &histogram{bounds: hv.bounds}
		hv.byKey[key] = h
	}
	h.observe(v)
	hv.mu.Unlock()
}

// fold merges key's histogram into into's and drops key: totals, sums and
// every bucket count are preserved, the label is not.
func (hv *histogramVec) fold(key, into string) {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	h := hv.byKey[key]
	if h == nil {
		return
	}
	delete(hv.byKey, key)
	dst := hv.byKey[into]
	if dst == nil {
		hv.byKey[into] = h
		return
	}
	for i, b := range h.buckets {
		dst.buckets[i] += b
	}
	dst.sum += h.sum
	dst.count += h.count
}

// write renders the family in Prometheus text exposition format, keys in
// sorted order so scrapes are deterministic.
func (hv *histogramVec) write(w io.Writer) {
	hv.mu.Lock()
	keys := make([]string, 0, len(hv.byKey))
	for k := range hv.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type snap struct {
		key string
		h   histogram
	}
	snaps := make([]snap, 0, len(keys))
	for _, k := range keys {
		h := hv.byKey[k]
		cp := *h
		cp.buckets = append([]uint64(nil), h.buckets...)
		snaps = append(snaps, snap{k, cp})
	}
	hv.mu.Unlock()

	fmt.Fprintf(w, "# HELP %s %s\n", hv.name, hv.help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", hv.name)
	for _, s := range snaps {
		cum := uint64(0)
		for i, b := range hv.bounds {
			cum += s.h.buckets[i]
			fmt.Fprintf(w, "%s_bucket{key=%q,le=\"%g\"} %d\n", hv.name, s.key, b, cum)
		}
		cum += s.h.buckets[len(hv.bounds)]
		fmt.Fprintf(w, "%s_bucket{key=%q,le=\"+Inf\"} %d\n", hv.name, s.key, cum)
		fmt.Fprintf(w, "%s_sum{key=%q} %g\n", hv.name, s.key, s.h.sum)
		fmt.Fprintf(w, "%s_count{key=%q} %d\n", hv.name, s.key, s.h.count)
	}
}

// totals returns the family-wide observation sum and count.
func (hv *histogramVec) totals() (float64, uint64) {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	var sum float64
	var count uint64
	for _, h := range hv.byKey {
		sum += h.sum
		count += h.count
	}
	return sum, count
}

// quantile estimates the q-quantile (0..1) across all keys of the family.
func (hv *histogramVec) quantile(q float64) float64 {
	hv.mu.Lock()
	total := make([]uint64, len(hv.bounds)+1)
	var count uint64
	for _, h := range hv.byKey {
		for i, b := range h.buckets {
			total[i] += b
		}
		count += h.count
	}
	hv.mu.Unlock()
	return bucketQuantile(hv.bounds, total, count, q)
}
