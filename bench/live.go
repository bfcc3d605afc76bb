package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	hsumma "repro"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/tune"
)

// liveInst is a live workload: one caller running the one-shot façade
// hsumma.Multiply, which pays resolve + scatter + world spawn on every op.
type liveInst struct {
	o       opts
	k       knobs
	cfg     hsumma.Config
	pairs   []pair
	rot     *rotation
	samples sampleSet
}

// setupLive returns the set-up of a live workload: operands and references,
// the cold first op, then `warm` warm-up ops.
func setupLive(k knobs, pairs, warm int) func(o opts) (instance, error) {
	return func(o opts) (instance, error) {
		li := &liveInst{o: o, k: k, cfg: k.config(), pairs: makePairs(k.n, pairs, o.seed),
			rot: newRotation(o.seed, 0, 1, pairs), samples: sampleSet{}}
		for i := 0; i < 1+o.pick(warm, 1); i++ {
			p := li.pairs[i%len(li.pairs)]
			out, _, err := hsumma.Multiply(p.a, p.b, li.cfg)
			if err != nil {
				return nil, err
			}
			if d := matrix.MaxAbsDiff(out, p.ref); d > 1e-9*float64(k.n) {
				return nil, fmt.Errorf("warm-up product is off by %g", d)
			}
		}
		return li, nil
	}
}

func (li *liveInst) flops() float64 { return li.k.shape().Flops() }
func (li *liveInst) close()         {}

func (li *liveInst) op(int) (time.Duration, bool) {
	p := li.pairs[li.rot.next()]
	t0 := time.Now()
	out, st, err := hsumma.Multiply(p.a, p.b, li.cfg)
	d := time.Since(t0)
	if err != nil {
		return d, false
	}
	li.samples.add("hsumma.wall_gap_share", (d.Seconds()-st.WallSeconds)/d.Seconds())
	return d, li.o.verified(out, p.ref)
}

func (li *liveInst) layers(m metrics) { li.samples.medians(m) }

// decomposed replays one op through the layers hsumma.multiply calls, in
// the same order with the same arguments, with a span around each:
// tune.ResolveSpec → dist.NewBlockMap + Scatter (+ the output tiles) →
// mpi.RunStats ∘ engine.Run → BlockMap.Gather. Its product must equal the
// façade's bit for bit, which the traced pass checks.
func decomposed(tr *tracer, op int, a, b *matrix.Dense, rp tune.ResolveParams) (*matrix.Dense, mpi.Summary, error) {
	root := tr.begin(0, "hsumma.multiply", -1, op)
	defer tr.end(root)

	s := tr.begin(0, "tune.resolve", root, op)
	spec, err := tune.ResolveSpec(rp)
	tr.end(s)
	if err != nil {
		return nil, mpi.Summary{}, err
	}
	es, grid := spec.Opts.Shape, spec.Opts.Grid
	if es != rp.Shape {
		return nil, mpi.Summary{}, fmt.Errorf("shape %v pads to %v; workloads use shapes that divide the grid", rp.Shape, es)
	}

	s = tr.begin(0, "dist.scatter", root, op)
	bmA, errA := dist.NewBlockMap(es.M, es.K, grid)
	bmB, errB := dist.NewBlockMap(es.K, es.N, grid)
	bmC, errC := dist.NewBlockMap(es.M, es.N, grid)
	if err := errors.Join(errA, errB, errC); err != nil {
		tr.end(s)
		return nil, mpi.Summary{}, err
	}
	aT, bT := bmA.Scatter(a), bmB.Scatter(b)
	cT := make([]*matrix.Dense, grid.Size())
	for r := range cT {
		cT[r] = matrix.New(bmC.LocalRows(), bmC.LocalCols())
	}
	tr.end(s)

	s = tr.begin(0, "mpi.run", root, op)
	var mu sync.Mutex
	var algErr error
	ranks, err := mpi.RunStats(grid.Size(), func(c *mpi.Comm) {
		r := c.Rank()
		if e := engine.Run(mpi.AsComm(c), spec, aT[r], bT[r], cT[r]); e != nil {
			mu.Lock()
			if algErr == nil {
				algErr = e
			}
			mu.Unlock()
		}
	})
	tr.end(s)
	if err := errors.Join(err, algErr); err != nil {
		return nil, mpi.Summary{}, err
	}

	s = tr.begin(0, "dist.gather", root, op)
	out := bmC.Gather(cT)
	tr.end(s)
	return out, mpi.Summarize(ranks), nil
}

func (li *liveInst) traced(tr *tracer, m metrics) (attempted, failed int) {
	rp, err := li.k.params()
	if err != nil {
		return 1, 1
	}
	// The façade's product for each pair, to hold the replay against.
	facade := make([]*matrix.Dense, len(li.pairs))
	for i, p := range li.pairs {
		if facade[i], _, err = hsumma.Multiply(p.a, p.b, li.cfg); err != nil {
			return 1, 1
		}
	}
	sum := sampleSet{}
	ops := li.o.pick(40, 3)
	for op := 0; op < ops; op++ {
		i := op % len(li.pairs)
		out, s, err := decomposed(tr, op, li.pairs[i].a, li.pairs[i].b, rp)
		attempted++
		if err != nil || !matrix.Equal(out, facade[i]) || !li.o.verified(out, li.pairs[i].ref) {
			failed++
			continue
		}
		sum.addSummary(s.MaxComm, s.CommByPhase[trace.PhaseBcast], s.CommByPhase[trace.PhaseP2P], s.MaxGemm, s.Imbalance, s.Messages, s.Bytes)
	}
	sum.medians(m)

	dur, self := durations(tr.spans), selfTimes(tr.spans)
	opMs := median(dur["hsumma.multiply"])
	m["load.traced_op_ms"] = opMs
	m["tune.resolve_ms"] = median(dur["tune.resolve"])
	m["dist.scatter_ms"] = median(dur["dist.scatter"])
	m["mpi.run_ms"] = median(dur["mpi.run"])
	m["dist.gather_ms"] = median(dur["dist.gather"])
	sh := li.k.shape()
	m["dist.scatter_gbps"] = float64(8*(sh.M*sh.K+sh.K*sh.N)) / m["dist.scatter_ms"] / 1e6
	m["hsumma.unattributed_share"] = median(self["hsumma.multiply"]) / opMs
	m["mpi.comm_share"] = m["mpi.comm_max_ms"] / opMs
	m["blas.gemm_share"] = m["blas.gemm_max_ms"] / opMs
	m["trace.overhead_share"] = opMs/m["op_ms_p50"] - 1

	// The library's own tracer: its cost against the untraced façade, and
	// the mean share of the run each rank spent waiting.
	var libMs, wait []float64
	for op := 0; op < li.o.pick(15, 2); op++ {
		p := li.pairs[op%len(li.pairs)]
		t0 := time.Now()
		_, _, rec, err := hsumma.MultiplyTraced(p.a, p.b, li.cfg)
		libMs = append(libMs, ms(time.Since(t0)))
		if err != nil {
			continue
		}
		rep := hsumma.CriticalPath(rec)
		var w float64
		n := 0
		for _, ra := range rep.Ranks {
			if ra.Rank != trace.HostRank {
				w += ra.WaitSeconds / rep.WallSeconds
				n++
			}
		}
		wait = append(wait, w/float64(n))
	}
	m["trace.lib_overhead_share"] = median(libMs)/m["op_ms_p50"] - 1
	m["mpi.wait_share"] = median(wait)

	if spec, err := tune.ResolveSpec(rp); err == nil {
		layerProbes(m, spec, li.o)
	}
	return attempted, failed
}
