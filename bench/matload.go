package main

import (
	"math/rand"
	"runtime"
	"time"

	hsumma "repro"
	"repro/internal/blas"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/tune"
)

// knobs pins one distributed multiplication the way a workload states it;
// the façade's Config and the layers' ResolveParams are both derived from
// it, so the timed façade call and the decomposed replay cannot drift apart.
type knobs struct {
	n, procs      int
	grid          *[2]int
	alg           engine.Algorithm
	groups, block int
	bcast         sched.Algorithm
	threads       int
}

func (k knobs) shape() matrix.Shape { return matrix.Square(k.n) }

func (k knobs) config() hsumma.Config {
	return hsumma.Config{
		Procs: k.procs, Grid: k.grid, Algorithm: k.alg, Groups: k.groups,
		BlockSize: k.block, Broadcast: k.bcast, Threads: k.threads,
	}
}

func (k knobs) params() (tune.ResolveParams, error) {
	rp := tune.ResolveParams{
		Shape: k.shape(), Procs: k.procs, Algorithm: k.alg, Groups: k.groups,
		BlockSize: k.block, Broadcast: k.bcast, Threads: k.threads,
	}
	if k.grid != nil {
		g, err := topo.NewGrid(k.grid[0], k.grid[1])
		if err != nil {
			return tune.ResolveParams{}, err
		}
		rp.Grid = &g
	}
	return rp, nil
}

// pair is one operand pair with its oracle: the product computed in set-up
// by the sequential kernel.
type pair struct {
	a, b, ref *matrix.Dense
}

// makePairs generates count operand pairs from the seed. Entries lie in
// [-1,1), so every op does the same arithmetic whatever the seed.
func makePairs(n, count int, seed int64) []pair {
	pairs := make([]pair, count)
	for i := range pairs {
		s := uint64(seed)*1000003 + uint64(2*i)
		p := pair{a: matrix.Random(n, n, s+1), b: matrix.Random(n, n, s+2), ref: matrix.New(n, n)}
		blas.Gemm(p.ref, p.a, p.b)
		pairs[i] = p
	}
	return pairs
}

// rotation is one caller's seeded order over the operand pairs it owns.
// Caller c of `callers` owns the pairs with index ≡ c (mod callers), so two
// concurrent requests never carry the same A and the serving layer's same-A
// coalescing stays out of the measurement (serve.batch_mean reads 1).
type rotation struct {
	rng  *rand.Rand
	mine []int
}

func newRotation(seed int64, caller, callers, pairs int) *rotation {
	r := &rotation{rng: rand.New(rand.NewSource(seed*7919 + int64(caller)))}
	for i := caller; i < pairs; i += callers {
		r.mine = append(r.mine, i)
	}
	return r
}

func (r *rotation) next() int { return r.mine[r.rng.Intn(len(r.mine))] }

// verified reports whether out is the product the oracle holds, within the
// tolerance the repository's own tests use (max-abs-diff ≤ 1e-9·K).
func (o opts) verified(out, ref *matrix.Dense) bool {
	if out == nil || out.Rows != ref.Rows || out.Cols != ref.Cols {
		return false
	}
	if o.corrupt {
		out.Data[out.Stride+1] += 1
	}
	return matrix.MaxAbsDiff(out, ref) <= 1e-9*float64(ref.Cols)
}

// addSummary samples the per-rank aggregates of one op — the same fields
// whether they come from mpi.Summarize on the live path or from serve.Stats
// on the serving path. Messages and bytes are exact and repeat, so their
// median is the value itself.
func (s sampleSet) addSummary(commMax, bcast, p2p, gemmMax, imbalance float64, messages, bytes int64) {
	s.add("mpi.comm_max_ms", commMax*1e3)
	s.add("mpi.bcast_ms", bcast*1e3)
	s.add("mpi.p2p_ms", p2p*1e3)
	s.add("blas.gemm_max_ms", gemmMax*1e3)
	s.add("mpi.imbalance", imbalance)
	s.add("mpi.messages", float64(messages))
	s.add("mpi.bytes_mb", float64(bytes)/1e6)
}

// layerProbes runs the isolated probes of a matrix workload at the shapes
// its resolved spec implies: a world spawn, one pivot-panel broadcast, the
// kernel at the per-step, whole-problem and parallel shapes, and the
// planner. It also derives the ROADMAP's gate quantity hsumma.seq_ratio from
// the single-thread kernel run, the plain baseline of the same problem.
func layerProbes(m metrics, spec engine.Spec, o opts) {
	sh, grid := spec.Shape(), spec.Opts.Grid
	p := grid.Size()

	m["mpi.spawn_ms"] = 1e3 * sampleSeconds(o.pick(15, 3), time.Millisecond, func() {
		_ = mpi.Run(p, func(*mpi.Comm) {}) // a no-op program cannot fail
	})
	bcastProbe(m, spec, o)

	mLoc, nLoc, b := sh.M/grid.S, sh.N/grid.T, spec.Opts.BlockSize
	gemmRate := func(mm, nn, kk int, run func(c, a, b *matrix.Dense)) float64 {
		a, bm, c := matrix.Random(mm, kk, 1), matrix.Random(kk, nn, 2), matrix.New(mm, nn)
		sec := sampleSeconds(o.pick(5, 2), 2*time.Millisecond, func() { run(c, a, bm) })
		return blas.FlopsGemm(mm, nn, kk) / sec / 1e9
	}
	m["blas.panel_gflops"] = gemmRate(mLoc, nLoc, b, blas.Gemm)
	m["blas.square_gflops"] = gemmRate(sh.M, sh.N, sh.K, blas.Gemm)
	m["blas.parallel_gflops"] = gemmRate(sh.M, sh.N, sh.K, func(c, a, b *matrix.Dense) {
		blas.ParallelGemm(c, a, b, runtime.GOMAXPROCS(0))
	})
	// Computed, not measured: the per-step update reads both panels and
	// reads and writes the C tile once.
	m["blas.ops_per_byte"] = blas.FlopsGemm(mLoc, nLoc, b) / float64(8*(mLoc*b+b*nLoc+2*mLoc*nLoc))
	seqMs := sh.Flops() / m["blas.square_gflops"] / 1e6
	m["hsumma.seq_ratio"] = m["op_ms_p50"] / seqMs

	planProbes(m, hsumma.PlatformGrid5000(), sh, p, b, o)
}

// bcastProbe times the broadcast one pivot step performs: every inner row
// of the grid (HSUMMA) or every grid row (otherwise) broadcasts one rank's
// slice of the A panel at once, as the algorithm does. mpi.bcast_gbps is
// the payload delivered to receivers per second, to set against
// mem.copy_gbps.
func bcastProbe(m metrics, spec engine.Spec, o opts) {
	grid := spec.Opts.Grid
	size, color := grid.T, grid.RowColor
	if spec.Algorithm == engine.HSUMMA {
		size, color = spec.Opts.Groups.InnerT(), spec.Opts.Groups.InnerRowColor
	}
	if size < 2 {
		return // a one-rank row has nothing to send
	}
	alg := spec.Opts.Broadcast
	if alg == "" {
		alg = sched.Binomial
	}
	elems := spec.Shape().M / grid.S * spec.Opts.BlockSize
	reps := o.pick(200, 20)
	var elapsed time.Duration
	err := mpi.Run(grid.Size(), func(c *mpi.Comm) {
		row := c.Split(color(c.Rank()), c.Rank())
		buf := make([]float64, elems)
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			row.Bcast(alg, i%size, buf, 1)
		}
		c.Barrier()
		if c.Rank() == 0 {
			elapsed = time.Since(t0)
		}
	})
	if err != nil {
		return
	}
	per := elapsed.Seconds() / float64(reps)
	delivered := float64(8*elems) * float64(size-1) * float64(grid.Size()/size)
	m["mpi.bcast_us"] = per * 1e6
	m["mpi.bcast_gbps"] = delivered / per / 1e9
}

// planProbes times the planner for the workload's problem: a cold Quick
// search, a plan-cache hit, and one closed-form optimal-G evaluation. None of
// it runs in a timed window (the workloads pin their algorithm); it is what
// set-up pays under algorithm=auto.
func planProbes(m metrics, pf hsumma.Platform, sh matrix.Shape, procs, block int, o opts) {
	pc := hsumma.PlanConfig{Platform: pf, Shape: sh, Procs: procs, Quick: true, NoCache: true}
	before := hsumma.PlannerCounters()
	t0 := time.Now()
	if _, err := hsumma.Plan(pc); err != nil {
		return
	}
	m["tune.plan_cold_ms"] = ms(time.Since(t0))
	m["tune.simruns"] = float64(hsumma.PlannerCounters().SimRuns - before.SimRuns)
	pc.NoCache = false
	m["tune.plan_cached_us"] = 1e6 * sampleSeconds(o.pick(5, 2), time.Millisecond, func() {
		_, _ = hsumma.Plan(pc) // the cold search above proved the problem plans
	})
	par := hsumma.ModelParams{N: sh.M, P: procs, B: block, Machine: pf.Model, Bcast: hsumma.VanDeGeijnModel{}}
	m["model.predict_us"] = 1e6 * sampleSeconds(o.pick(5, 2), time.Millisecond, func() {
		hsumma.PredictOptimalG(par)
	})
}
