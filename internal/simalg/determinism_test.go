package simalg_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// Both engines must be deterministic regardless of scheduling: virtual
// times, communication-time breakdowns and traffic counters may not
// depend on GOMAXPROCS or goroutine interleaving. The goroutine engine
// guarantees it by clock ownership (each rank's clock advances only in
// its own program order); the event engine by construction (disjoint
// collectives commute exactly, message matching is FIFO per sender).
// This is what makes figure regeneration reproducible across hosts.

type detRun struct {
	total, comm float64
	stats       []simnet.VRankStats
}

func bgp4096Run(t *testing.T, ex engine.Executor) detRun {
	t.Helper()
	g := topo.Grid{S: 64, T: 64}
	h, err := topo.FactorGroups(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := RunStats(Config{
		N: 16384, Grid: g, Knobs: core.Knobs{BlockSize: 256, Broadcast: sched.VanDeGeijn}, Groups: h, Machine: machine.BlueGenePCalibrated().Model,
		Executor: ex,
	}, engine.HSUMMA)
	if err != nil {
		t.Fatal(err)
	}
	return detRun{total: res.Total, comm: res.Comm, stats: stats}
}

// TestDeterminism4096BGP runs a full 4096-rank BG/P simulation twice
// under GOMAXPROCS=1 and GOMAXPROCS=NumCPU on both engines and asserts
// every run is bit-identical — across repetitions, across parallelism,
// and across engines.
func TestDeterminism4096BGP(t *testing.T) {
	if testing.Short() {
		t.Skip("full 4096-rank simulation; skipped with -short")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var runs []detRun
	var labels []string
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for _, ex := range []engine.Executor{engine.ExecutorGoroutine, engine.ExecutorEvent} {
			for rep := 0; rep < 2; rep++ {
				runs = append(runs, bgp4096Run(t, ex))
				labels = append(labels, string(ex))
			}
		}
	}
	runtime.GOMAXPROCS(prev)

	ref := runs[0]
	for i, r := range runs[1:] {
		if r.total != ref.total || r.comm != ref.comm {
			t.Fatalf("run %d (%s): total/comm %v/%v differ from reference %v/%v",
				i+1, labels[i+1], r.total, r.comm, ref.total, ref.comm)
		}
		for rank := range ref.stats {
			if r.stats[rank] != ref.stats[rank] {
				t.Fatalf("run %d (%s): rank %d traffic %+v differs from reference %+v",
					i+1, labels[i+1], rank, r.stats[rank], ref.stats[rank])
			}
		}
	}
}
