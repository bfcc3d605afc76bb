// Command hsumma-model evaluates the paper's closed-form cost model
// (Section IV): it sweeps the group count G for a given platform and
// problem, prints the predicted SUMMA/HSUMMA costs, the stationary-point
// condition α/β ⋛ 2nb/p and the predicted optimal G.
//
// Usage:
//
//	hsumma-model -platform bgp -n 65536 -p 16384 -b 256
//	hsumma-model -platform exascale -n 4194304 -p 1048576 -b 256
//	hsumma-model -alpha 1e-4 -beta 1e-9 -n 8192 -p 128 -b 64
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sched"
)

func main() {
	var (
		pfName = flag.String("platform", "", "preset: grid5000[-cal], bgp[-cal], exascale (empty = use -alpha/-beta/-gamma)")
		alpha  = flag.Float64("alpha", 1e-5, "latency (s), when no preset")
		beta   = flag.Float64("beta", 1e-9, "reciprocal bandwidth (s/element), when no preset")
		gamma  = flag.Float64("gamma", 1e-10, "flop time (s), when no preset")
		n      = flag.Int("n", 65536, "matrix dimension")
		p      = flag.Int("p", 16384, "processor count")
		b      = flag.Int("b", 256, "block size (b = B)")
		bcast  = flag.String("bcast", "vandegeijn", "broadcast model: binomial, vandegeijn")
	)
	flag.Parse()

	par := model.Params{N: *n, P: *p, B: *b}
	if *pfName != "" {
		pf, err := machine.ByName(*pfName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		par.Machine = pf.Model
		fmt.Printf("platform: %s  %v\n", pf.Name, pf.Model)
	} else {
		par.Machine.Alpha, par.Machine.Beta, par.Machine.Gamma = *alpha, *beta, *gamma
		fmt.Printf("machine: %v\n", par.Machine)
	}
	alg, err := sched.ByName(*bcast)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	par.Bcast = model.For(alg)

	ratio := par.Machine.Alpha / par.Machine.Beta
	threshold := 2 * float64(*n) * float64(*b) / float64(*p)
	fmt.Printf("condition (eq.10): α/β = %.4g  vs  2nb/p = %.4g  ->  interior minimum: %v\n",
		ratio, threshold, model.MinimumAtSqrtP(par))

	s := model.SUMMA(par)
	fmt.Printf("\n%-14s %12s %12s %12s %12s\n", "algorithm", "latency(s)", "bandwidth(s)", "comm(s)", "total(s)")
	fmt.Printf("%-14s %12.4g %12.4g %12.4g %12.4g\n", "SUMMA", s.Latency, s.Bandwidth, s.Comm(), s.Total())
	for g := 1; g <= *p; g *= 4 {
		c := model.HSUMMA(par, float64(g))
		fmt.Printf("%-14s %12.4g %12.4g %12.4g %12.4g\n",
			fmt.Sprintf("HSUMMA G=%d", g), c.Latency, c.Bandwidth, c.Comm(), c.Total())
	}
	sq := math.Sqrt(float64(*p))
	c := model.HSUMMA(par, sq)
	fmt.Printf("%-14s %12.4g %12.4g %12.4g %12.4g\n",
		fmt.Sprintf("HSUMMA G=√p=%.0f", sq), c.Latency, c.Bandwidth, c.Comm(), c.Total())

	bestG, best := model.OptimalG(par, nil)
	fmt.Printf("\npredicted optimum: G=%d, comm %.4gs (%.2fx less than SUMMA's %.4gs)\n",
		bestG, best.Comm(), s.Comm()/best.Comm(), s.Comm())
}
