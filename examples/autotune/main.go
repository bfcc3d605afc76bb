// Autotune: the paper (§VI) notes that "the optimal number of groups …
// can be easily automated and incorporated into the implementation by
// using few iterations of HSUMMA". The internal/tune planner is that
// automation, generalised to every knob: it ranks algorithm × grid ×
// groups × block sizes × broadcast in closed form — exact against the
// discrete-event simulator on this power-of-two grid, so nothing is
// replayed — and caches the plan. This
// example prints the ranked plan for a latency-bound cluster, then runs
// the real multiplication two ways: with the plan's best candidate applied
// explicitly, and with Algorithm: AlgAuto letting the library resolve the
// same plan implicitly.
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"log"

	hsumma "repro"
)

func main() {
	const (
		n     = 512
		procs = 64
	)
	pf := hsumma.Platform{
		Name:  "latency-bound cluster",
		Model: hsumma.Machine{Alpha: 1e-4, Beta: 1e-9, Gamma: 1e-10},
	}

	// AlgAuto below searches the same space, so the second multiplication's
	// implicit plan is served from the cache.
	pl, err := hsumma.Plan(hsumma.PlanConfig{Platform: pf, N: n, Procs: procs})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned n=%d on p=%d for %s (%d candidates scanned, %d simulated):\n",
		n, procs, pf.Name, pl.Scanned, pl.Simulated)
	for i, s := range pl.Ranked {
		marker := ""
		if i == 0 {
			marker = "  <- best"
		}
		fmt.Printf("  #%d %-40s model total %.4gs%s\n", i+1, s.Candidate, s.ModelTotal, marker)
	}

	a := hsumma.RandomMatrix(n, n, 7)
	b := hsumma.RandomMatrix(n, n, 8)

	// Run the winner explicitly...
	best := pl.Best.Candidate
	c, stats, err := hsumma.Multiply(a, b, hsumma.Config{
		Procs:          procs,
		Grid:           &[2]int{best.Grid.S, best.Grid.T},
		Algorithm:      best.Algorithm,
		Groups:         best.Groups,
		BlockSize:      best.BlockSize,
		OuterBlockSize: best.OuterBlockSize,
		Broadcast:      best.Broadcast,
		Levels:         best.Levels,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("explicit %s: max |Δ| = %.3g, %d messages\n",
		best.Algorithm, hsumma.MaxAbsDiff(c, hsumma.Reference(a, b)), stats.Messages)

	// ...or let AlgAuto resolve the same plan (served from the cache now).
	c2, _, err := hsumma.Multiply(a, b, hsumma.Config{Procs: procs, Algorithm: hsumma.AlgAuto, Platform: &pf})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AlgAuto:  max |Δ| = %.3g (plan cache: %+v)\n",
		hsumma.MaxAbsDiff(c2, hsumma.Reference(a, b)), hsumma.PlannerCounters())
}
