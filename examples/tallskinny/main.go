// Tall-skinny rectangular GEMM: the workload class the square paper
// benchmark never exercises — C (M×N) += A (M×K)·B (K×N) with M, K ≫ N,
// the shape of activation/panel updates in training and factorisation
// pipelines.
//
// This example shows the Shape-aware planner choosing a *non-square grid
// orientation* for a tall problem (tall shapes prefer tall grids: more
// process rows shrink the M-proportional A panels every step
// broadcasts), then simulates the plan against the mismatched transposed
// grid to show what the orientation is worth, and finally verifies the
// rectangular result on the live runtime.
//
//	go run ./examples/tallskinny
package main

import (
	"fmt"
	"log"

	hsumma "repro"
)

func main() {
	pf := hsumma.PlatformGrid5000Calibrated()
	shape := hsumma.Shape{M: 8192, N: 512, K: 8192}
	const procs = 64

	// Plan: the full closed-form search over algorithm × grid orientation
	// × groups × blocks × broadcast for the rectangular problem. Every
	// grid of 64 ranks has power-of-two sides, so the model total is
	// what the event engine would simulate.
	pl, err := hsumma.Plan(hsumma.PlanConfig{
		Platform: pf, Shape: shape, Procs: procs,
	})
	if err != nil {
		log.Fatal(err)
	}
	best := pl.Best
	fmt.Printf("planned %s on %s over %d ranks:\n", shape, pf.Name, procs)
	fmt.Printf("  best: %s (model total %.4gs)\n", best.Candidate, best.ModelTotal)
	if g := best.Grid; g.S > g.T {
		fmt.Printf("  the planner chose a TALL %v grid — orientation matched to M/N = %d\n",
			g, shape.M/shape.N)
	} else {
		fmt.Printf("  grid %v\n", best.Grid)
	}

	// What the orientation is worth: simulate the planner's grid against
	// the transposed (mismatched) one with the same algorithm and blocks.
	sim := func(grid [2]int) hsumma.SimResult {
		res, err := hsumma.SimulateShape(shape, hsumma.SimConfig{
			Procs: procs, Grid: &grid,
			Algorithm: best.Algorithm, Groups: best.Groups,
			BlockSize: best.BlockSize, OuterBlockSize: best.OuterBlockSize,
			Broadcast: best.Broadcast,
			Machine:   pf.Model, Platform: &pf,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	matched := sim([2]int{best.Grid.S, best.Grid.T})
	transposed := sim([2]int{best.Grid.T, best.Grid.S})
	fmt.Printf("  matched grid %dx%d:    comm %.4gs\n", best.Grid.S, best.Grid.T, matched.Comm)
	fmt.Printf("  transposed grid %dx%d: comm %.4gs (%.2fx worse)\n",
		best.Grid.T, best.Grid.S, transposed.Comm, transposed.Comm/matched.Comm)

	// Live verification at a laptop-sized scale: the same shape class,
	// distributed over real goroutine ranks, against sequential GEMM.
	small := hsumma.Shape{M: 512, N: 32, K: 512}
	a := hsumma.RandomMatrix(small.M, small.K, 1)
	b := hsumma.RandomMatrix(small.K, small.N, 2)
	c, stats, err := hsumma.Multiply(a, b, hsumma.Config{Procs: 16, Algorithm: best.Algorithm,
		Groups: best.Groups, Broadcast: best.Broadcast})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live %s on 16 ranks: max |Δ| vs sequential = %.3g (%d messages)\n",
		small, hsumma.MaxAbsDiff(c, hsumma.Reference(a, b)), stats.Messages)
}
