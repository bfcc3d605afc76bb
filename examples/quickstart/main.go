// Quickstart: multiply two matrices with hierarchical SUMMA on 16
// in-process ranks, verify against sequential GEMM, inspect the
// communication statistics — then run the *same* algorithm on the virtual
// communicator at a scale no laptop could host with real data.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	hsumma "repro"
)

func main() {
	const n = 512
	a := hsumma.RandomMatrix(n, n, 1)
	b := hsumma.RandomMatrix(n, n, 2)

	// Live mode: 16 ranks arranged 4×4, split into G=4 groups of 2×2 —
	// the paper's two-level hierarchy. Every rank runs as a goroutine and
	// exchanges real matrix panels through the message-passing runtime.
	// MultiplyTraced additionally records the per-rank span timeline, so
	// we can attribute the wall clock afterwards.
	c, stats, rec, err := hsumma.MultiplyTraced(a, b, hsumma.Config{
		Procs:     16,
		Algorithm: hsumma.AlgHSUMMA,
		Groups:    4,
		BlockSize: 32,
		Broadcast: hsumma.BcastVanDeGeijn,
	})
	if err != nil {
		log.Fatal(err)
	}

	diff := hsumma.MaxAbsDiff(c, hsumma.Reference(a, b))
	fmt.Printf("HSUMMA on 16 ranks (G=4): max |Δ| vs sequential = %.3g\n", diff)
	fmt.Printf("traffic: %d messages, %d bytes, max per-rank comm %.3gs\n",
		stats.Messages, stats.Bytes, stats.MaxRankCommSeconds)

	// Plan fidelity: every resolved run carries the cost model's per-phase
	// prediction next to what the critical rank actually measured. A ratio
	// near 1 means the planner's model describes this machine; sustained
	// drift is what hsumma-serve counts as a stale plan. (Predictions are
	// evaluated for the configured platform model — Grid'5000 here — so on
	// a laptop the *ratios between phases* carry the signal.)
	fmt.Println("predicted vs measured (critical rank), per phase:")
	measured := map[string]float64{}
	for phase, sec := range stats.CommSecondsByPhase {
		measured[phase] = sec
	}
	measured["gemm"] = stats.GemmSeconds
	for _, phase := range []string{"scatter", "bcast", "shift", "p2p", "gemm", "gather"} {
		pred, okP := stats.PredictedSecondsByPhase[phase]
		meas, okM := measured[phase]
		if !okP && !okM {
			continue
		}
		fmt.Printf("  %-7s predicted %10.3gs   measured %10.3gs\n", phase, pred, meas)
	}
	fmt.Printf("  gemm (max rank) : %.3gs\n", stats.GemmSeconds)
	fmt.Printf("  busy imbalance  : %.3g (max/mean)\n", stats.BusyImbalance)

	// Critical-path attribution over the recorded timeline: which rank
	// gated the wall clock, and in which phase it spent that time.
	// (hsumma-run -critpath prints the full report, including the busy/wait
	// table and the top blocking edges; -trace dumps the raw spans for
	// Perfetto.)
	if rep := hsumma.CriticalPath(rec); rep != nil {
		gate := fmt.Sprintf("rank %d", rep.GatingRank)
		if rep.GatingRank == -1 {
			gate = "the host (gather)"
		}
		fmt.Printf("critical path: %s gates the %.3gs wall, dominated by %s (%.3gs)\n",
			gate, rep.WallSeconds, rep.GatingPhase, rep.GatingPhaseSeconds)
	}

	// The same multiplication with plain SUMMA, for comparison.
	_, flat, err := hsumma.Multiply(a, b, hsumma.Config{
		Procs:     16,
		Algorithm: hsumma.AlgSUMMA,
		BlockSize: 32,
		Broadcast: hsumma.BcastVanDeGeijn,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SUMMA sends %d messages; HSUMMA %d — the hierarchy trades\n", flat.Messages, stats.Messages)
	fmt.Println("per-step small broadcasts for fewer, larger inter-group ones.")

	// Sim mode: the identical HSUMMA implementation, executed through the
	// simnet virtual communicator on the paper's BlueGene/P model at 1024
	// ranks, in the regime where the paper's interior-minimum condition
	// α/β > 2nb/p holds. No matrix elements exist; only Hockney virtual
	// time and the (live-identical) traffic counts advance.
	bgp := hsumma.PlatformBlueGeneP()
	sim, err := hsumma.Simulate(hsumma.SimConfig{
		N: 8192, Procs: 1024,
		Algorithm: hsumma.AlgHSUMMA, Groups: 32,
		BlockSize: 64, Broadcast: hsumma.BcastVanDeGeijn,
		Machine: bgp.Model,
	})
	if err != nil {
		log.Fatal(err)
	}
	base, err := hsumma.Simulate(hsumma.SimConfig{
		N: 8192, Procs: 1024,
		Algorithm: hsumma.AlgSUMMA,
		BlockSize: 64, Broadcast: hsumma.BcastVanDeGeijn,
		Machine: bgp.Model,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated BG/P, 1024 ranks, n=8192: SUMMA comm %.3gs, HSUMMA (G=32) comm %.3gs (%.2fx)\n",
		base.Comm, sim.Comm, base.Comm/sim.Comm)

	// Shapes: everything above uses the square shorthand (a plain n means
	// the paper's n×n×n problem), but Multiply accepts any rectangular
	// C(M×N) += A(M×K)·B(K×N) — just pass rectangular matrices. Shapes
	// that do not divide the grid are zero-padded and cropped internally.
	// See examples/tallskinny for the rectangular planner and simulator.
	ta := hsumma.RandomMatrix(96, 64, 3) // A: 96×64
	tb := hsumma.RandomMatrix(64, 32, 4) // B: 64×32
	tc, _, err := hsumma.Multiply(ta, tb, hsumma.Config{Procs: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rectangular 96×64·64×32 on the same 16 ranks: max |Δ| = %.3g\n",
		hsumma.MaxAbsDiff(tc, hsumma.Reference(ta, tb)))
}
