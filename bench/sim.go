package main

import (
	"fmt"
	"time"

	hsumma "repro"
)

// simInst is the simulator workload: one caller running hsumma.Simulate. No
// matrix data, no mpi world, no kernel — host time is the virtual engine.
type simInst struct {
	o     opts
	cfg   hsumma.SimConfig
	first hsumma.SimResult // the oracle: every later op must repeat it exactly
}

// sameSim reports whether two simulations agree on every number (the engine
// that produced them and the optional trace aside). Virtual times are
// deterministic, so agreement is exact, not within a tolerance.
func sameSim(a, b hsumma.SimResult) bool {
	return a.Total == b.Total && a.Comm == b.Comm && a.Compute == b.Compute &&
		a.Messages == b.Messages && a.Bytes == b.Bytes &&
		a.Groups == b.Groups && a.BlockSize == b.BlockSize && a.Shape == b.Shape
}

// setupSim returns the simulator workload's set-up: the reference run on the
// goroutine engine, the cold first op held against it, and `warm` warm-ups.
func setupSim(cfg hsumma.SimConfig, warm int) func(o opts) (instance, error) {
	return func(o opts) (instance, error) {
		ref := cfg
		ref.Engine = hsumma.EngineGoroutine
		want, err := hsumma.Simulate(ref)
		if err != nil {
			return nil, err
		}
		si := &simInst{o: o, cfg: cfg}
		for i := 0; i < 1+o.pick(warm, 1); i++ {
			got, err := hsumma.Simulate(cfg)
			if err != nil {
				return nil, err
			}
			if !sameSim(got, want) {
				return nil, fmt.Errorf("%s engine disagrees with the goroutine engine: %+v vs %+v", got.Engine, got, want)
			}
			si.first = got
		}
		return si, nil
	}
}

func (si *simInst) flops() float64   { return 0 }
func (si *simInst) close()           {}
func (si *simInst) layers(m metrics) {}

func (si *simInst) op(int) (time.Duration, bool) {
	t0 := time.Now()
	r, err := hsumma.Simulate(si.cfg)
	d := time.Since(t0)
	if si.o.corrupt {
		r.Messages++
	}
	return d, err == nil && sameSim(r, si.first)
}

func (si *simInst) traced(tr *tracer, m metrics) (attempted, failed int) {
	// timeEngine runs the configuration on one engine under spans and
	// returns the median host milliseconds.
	timeEngine := func(name string, cfg hsumma.SimConfig, reps int) float64 {
		var ds []float64
		for i := 0; i < reps; i++ {
			s := tr.begin(0, name, -1, attempted)
			r, err := hsumma.Simulate(cfg)
			tr.end(s)
			ds = append(ds, ms(tr.spans[s].dur()))
			attempted++
			if err != nil || !sameSim(r, si.first) {
				failed++
			}
		}
		return median(ds)
	}
	m["load.traced_op_ms"] = timeEngine("hsumma.simulate", si.cfg, si.o.pick(10, 2))
	m["trace.overhead_share"] = m["load.traced_op_ms"]/m["op_ms_p50"] - 1

	ev, gor := si.cfg, si.cfg
	ev.Engine, gor.Engine = hsumma.EngineEvent, hsumma.EngineGoroutine
	m["evsim.sim_ms"] = timeEngine("evsim.simulate", ev, si.o.pick(5, 1))
	m["simnet.sim_ms"] = timeEngine("simnet.simulate", gor, si.o.pick(5, 1))
	steps := si.first.Shape.K / si.first.BlockSize
	m["evsim.ranksteps_per_s"] = float64(si.cfg.Procs*steps) / m["evsim.sim_ms"] * 1e3

	traced := si.cfg
	traced.Trace = true
	m["trace.lib_overhead_share"] = timeEngine("hsumma.simulate.traced", traced, si.o.pick(5, 1))/m["op_ms_p50"] - 1

	// The simulated result itself: exact, so any change is a fidelity
	// change. comm_ratio is the paper's headline quantity at this point —
	// SUMMA's communication time over HSUMMA's (the paper measures 2.08×).
	m["sim.total_s"] = si.first.Total
	m["sim.comm_s"] = si.first.Comm
	m["sim.messages"] = float64(si.first.Messages)
	m["sim.bytes_gb"] = float64(si.first.Bytes) / 1e9
	summa := si.cfg
	summa.Algorithm, summa.Groups = hsumma.AlgSUMMA, 0
	if r, err := hsumma.Simulate(summa); err == nil {
		m["sim.comm_ratio"] = r.Comm / si.first.Comm
	}

	planProbes(m, *si.cfg.Platform, si.first.Shape, si.cfg.Procs, si.first.BlockSize, si.o)
	return attempted, failed
}
