// Strassen crossover: where does the sub-cubic kernel actually win?
//
// Strassen's recursion trades one of the eight quadrant multiplies for
// ~18 extra quadrant additions, so each level costs 7/8 of the classic
// flops plus O(n²) overhead — a win only once n is large enough that the
// saved multiply outweighs the added passes. Strassen here is a rank-local
// kernel (Config.LocalStrassen) under an ordinary decomposition, not a
// distribution of its own. This example
//
//  1. times blas.StrassenGemm (default cutoff 256) against the packed
//     classic kernel it bottoms out in, sweeping n across the crossover;
//  2. shows where the planner turns the kernel on by itself;
//
// and finishes with a small live SUMMA run on the sub-cubic kernel,
// verified against the sequential reference.
//
//	go run ./examples/strassen
package main

import (
	"fmt"
	"log"
	"time"

	hsumma "repro"
	"repro/internal/blas"
	"repro/internal/matrix"
)

func main() {
	// 1. The local kernel crossover. Below the cutoff StrassenGemm *is*
	// the packed kernel; the ratio should cross 1 around one recursion
	// level above it (n=512 splits into 256-leaves, n=2048 compounds two
	// levels of 7/8).
	fmt.Println("intra-rank kernel: blas.StrassenGemm vs packed blas.Gemm")
	fmt.Printf("  %-6s %-10s %-12s %-12s %s\n", "n", "flops", "packed", "strassen", "ratio")
	for _, n := range []int{512, 1024, 2048} {
		a := matrix.Random(n, n, 1)
		b := matrix.Random(n, n, 2)
		c := matrix.New(n, n)
		packed := timeIt(func() { blas.Gemm(c, a, b) })
		strassen := timeIt(func() { blas.StrassenGemm(c, a, b, 0, 1) })
		fmt.Printf("  %-6d %-10s %-12s %-12s %.2fx\n",
			n,
			fmt.Sprintf("%.2f", blas.StrassenFlops(n, n, n, 0)/blas.FlopsGemm(n, n, n)),
			fmtSec(packed), fmtSec(strassen), packed.Seconds()/strassen.Seconds())
	}

	// 2. Where the planner turns it on by itself: few ranks × a big
	// problem leave per-rank tiles far above the kernel cutoff, and the
	// tune scorer's sub-cubic flop term makes the local kernel win the
	// ranking — Auto resolves to a plan with the sub-cubic kernel enabled,
	// no knob set by the caller.
	g5k := hsumma.PlatformGrid5000()
	pl, err := hsumma.Plan(hsumma.PlanConfig{Platform: g5k, N: 8192, Procs: 4, Quick: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplanner, n=8192 p=4 on %s:\n  best: %s (sub-cubic local kernel: %v)\n",
		g5k.Name, pl.Best.Candidate, pl.Best.Candidate.LocalStrassen)

	// 3. A live SUMMA multiply whose rank-local panel updates (128×64 by
	// 64×128, above the cutoff of 32) run the sub-cubic kernel, checked
	// against the sequential reference like every other run. Strassen
	// reassociates the arithmetic, so the difference is rounding, not 0.
	n, procs := 256, 4
	a := hsumma.RandomMatrix(n, n, 7)
	b := hsumma.RandomMatrix(n, n, 8)
	c, stats, err := hsumma.Multiply(a, b, hsumma.Config{
		Procs:          procs,
		Algorithm:      hsumma.AlgSUMMA,
		BlockSize:      64,
		LocalStrassen:  true,
		StrassenCutoff: 32,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlive summa + local strassen n=%d p=%d: max |Δ| = %.3g vs reference, %d messages\n",
		n, procs, hsumma.MaxAbsDiff(c, hsumma.Reference(a, b)), stats.Messages)
}

// timeIt returns the faster of two runs after a warm-up (pool buffers,
// page in operands) — minimum, because noise only ever adds time.
func timeIt(f func()) time.Duration {
	f()
	best := time.Duration(-1)
	for i := 0; i < 2; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); best < 0 || d < best {
			best = d
		}
	}
	return best
}

func fmtSec(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }
