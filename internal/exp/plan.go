package exp

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/tune"
)

// The "plan" experiment exercises the autotuning planner on the paper's
// three platforms — the capability the paper describes in §VI ("the
// optimal number of groups … can be easily automated") but leaves to the
// reader. For each platform it reports the planner's ranked choice at the
// paper's problem scale, so the experiment registry covers not just the
// paper's figures but the subsystem that picks their configurations.

// PlanProblem is the one table of the paper's planning points: the problem
// the planner is asked about on a platform, the paper's full configuration
// or, with quick, a scaled-down one. It is keyed by the platform's
// interconnect class, so every spelling machine.ByName accepts for a
// machine, calibrated or not, plans the same problem. hsumma-run's plan
// subcommand reads its defaults here.
func PlanProblem(pf machine.Platform, quick bool) (n, p int) {
	switch pf.Contention {
	case machine.ContentionTorus: // BlueGene/P
		if quick {
			return 4096, 256
		}
		return 65536, 16384
	case machine.ContentionNone: // the projected exascale machine
		if quick {
			return 1 << 14, 1 << 12
		}
		return 1 << 22, 1 << 20
	default: // Grid'5000 (shared segment)
		if quick {
			return 1024, 32
		}
		return 8192, 128
	}
}

func runPlan(o Options, _ sims) (*Result, error) {
	res := &Result{
		ID:     "plan",
		Title:  "Autotuning planner choices on the paper's platforms",
		Header: []string{"platform", "n", "p", "algorithm", "grid", "G", "b", "B", "bcast", "model comm (s)", "model total (s)"},
	}
	// A planner of its own, so the cache line below counts this run and
	// not whatever planned earlier in the process.
	planner := tune.NewPlanner()
	grid5000, bgp := platforms(o)
	for _, pf := range []machine.Platform{grid5000, bgp, machine.Exascale()} {
		n, p := PlanProblem(pf, o.Quick)
		pl, err := planner.Plan(tune.Request{
			Platform: pf, N: n, P: p,
			Quick: o.Quick,
		})
		if err != nil {
			return nil, err
		}
		b := pl.Best
		res.Rows = append(res.Rows, []string{
			pf.Name,
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", p),
			string(b.Algorithm), b.Grid.String(),
			fmt.Sprintf("%d", b.Groups), fmt.Sprintf("%d", b.BlockSize), fmt.Sprintf("%d", b.OuterBlockSize),
			string(b.Broadcast),
			fmt.Sprintf("%.4g", b.ModelComm), fmt.Sprintf("%.4g", b.ModelTotal),
		})
		res.Findings = append(res.Findings,
			fmt.Sprintf("%s: scanned %d candidates, simulated %d; best %s",
				pf.Name, pl.Scanned, pl.Simulated, b.Candidate))
	}
	st := planner.Stats()
	res.Findings = append(res.Findings,
		fmt.Sprintf("plan cache: %d hits, %d misses, %d replays this run", st.CacheHits, st.CacheMisses, st.SimRuns))
	return res, nil
}

func init() {
	register(Experiment{
		ID:     "plan",
		Title:  "Autotuner: planner-selected configurations per platform",
		Paper:  "§VI — \"the optimal number of groups ... can be easily automated\"; the planner closes that loop",
		render: runPlan,
	})
}
