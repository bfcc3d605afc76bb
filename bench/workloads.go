package main

import (
	"runtime"

	hsumma "repro"
	"repro/internal/engine"
	"repro/internal/sched"
)

// serveCallers is the number of closed-loop HTTP connections of the serve
// workloads: 2 on the reference sandbox, never more than the host's CPUs,
// so the load generator does not starve the program under test.
func serveCallers() int { return min(2, runtime.NumCPU()) }

// workloads is the suite. Every open ROADMAP performance item has one
// workload where its layer does most of the work and one where it does
// almost none; the `why` lines say which (bench/README.md has the full
// prediction table).
func workloads() []workload {
	liveComm := knobs{n: 512, procs: 16, alg: engine.HSUMMA, groups: 4, block: 32, bcast: sched.Binomial}
	liveCompute := knobs{n: 1024, procs: 2, grid: &[2]int{1, 2}, alg: engine.SUMMA, block: 256, threads: 1}
	served := knobs{n: 256, procs: 4, alg: engine.HSUMMA}
	bgp := hsumma.PlatformBGPCalibrated()
	sim := hsumma.SimConfig{N: 65536, Procs: 2048, Algorithm: hsumma.AlgHSUMMA, Groups: 32, BlockSize: 256,
		Broadcast: hsumma.BcastVanDeGeijn, Platform: &bgp}
	return []workload{
		{name: "live_comm", callers: 1, setup: setupLive(liveComm, 4, 10),
			why: "Multiply n=512 on 16 ranks (HSUMMA G=4, b=32) on 2 cores: broadcast and run-queue wait dominate, the kernel is small; transport, pooling and oversubscription work shows here"},
		{name: "live_compute", callers: 1, setup: setupLive(liveCompute, 2, 3),
			why: "Multiply n=1024 on 2 ranks (SUMMA 1x2, b=256): the kernel dominates and messages are few; microkernel work shows here, transport work must not"},
		{name: "serve_raw", callers: serveCallers(), setup: setupServe(served, false, serveCallers(), 4, 10),
			why: "POST /multiply 256^3 raw float64 body to a warm session over loopback HTTP: resident world, ScatterInto and the stage-execute pipeline, almost no codec"},
		{name: "serve_json", callers: serveCallers(), setup: setupServe(served, true, serveCallers(), 4, 4),
			why: "the same request as a 2.6 MB JSON body: the float-array codec is most of the op; codec work shows here and is predicted flat on serve_raw"},
		{name: "sim_bgp", callers: 1, setup: setupSim(sim, 2),
			why: "Simulate the paper's BG/P point n=65536 p=2048 (HSUMMA G=32, b=256): no data, no mpi, no kernel, host time is the virtual engine; live and serve work is predicted flat"},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
