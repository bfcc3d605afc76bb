package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/tune"
)

// BenchmarkSchedulerMixedSpecs drives two specs through one Scheduler: 256³
// requests on 16 ranks and on 4 ranks, each from its own closed-loop caller,
// so the two sessions' runs overlap as they do in a daemon serving both
// shapes. Every product is checked against the sequential oracle. It reports
// each spec's p50/p99 latency and the aggregate throughput. This is the load
// behind letting different sessions execute at once instead of admitting
// runs through a core semaphore: rank goroutines wait for part of every run,
// and an overlapping run fills that time.
//
//	go test -run '^$' -bench SchedulerMixedSpecs -benchtime 2000x ./internal/serve
func BenchmarkSchedulerMixedSpecs(b *testing.B) {
	const n = 256
	type caller struct {
		name        string
		rp          tune.ResolveParams
		a, bm, want *matrix.Dense
		latencies   []time.Duration
	}
	var callers []*caller
	for i, procs := range []int{16, 4} {
		a, bm := matrix.Random(n, n, uint64(2*i+1)), matrix.Random(n, n, uint64(2*i+2))
		callers = append(callers, &caller{
			name: fmt.Sprintf("p%d", procs), rp: tune.ResolveParams{Procs: procs},
			a: a, bm: bm, want: reference(a, bm),
		})
	}
	sc := NewScheduler(SchedulerConfig{})
	defer sc.Close()
	for _, c := range callers { // resolve both specs and open their sessions
		if _, _, err := sc.Multiply(c.a, c.bm, c.rp); err != nil {
			b.Fatal(err)
		}
	}

	var issued atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for issued.Add(1) <= int64(b.N) {
				t0 := time.Now()
				out, _, err := sc.Multiply(c.a, c.bm, c.rp)
				c.latencies = append(c.latencies, time.Since(t0))
				if err != nil {
					b.Errorf("%s: %v", c.name, err)
					return
				}
				if d := matrix.MaxAbsDiff(out, c.want); d > oracleTol {
					b.Errorf("%s: product differs from the oracle by %g", c.name, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
	for _, c := range callers {
		lat := c.latencies
		if len(lat) == 0 {
			continue
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		at := func(q float64) float64 { return float64(lat[int(q*float64(len(lat)-1))]) / 1e6 }
		b.ReportMetric(at(0.50), c.name+"_p50_ms")
		b.ReportMetric(at(0.99), c.name+"_p99_ms")
	}
}
