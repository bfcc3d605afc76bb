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

// planSetting fixes the per-platform problem the planner is asked about.
type planSetting struct {
	pf   machine.Platform
	n, p int
}

func planSettings(o Options) []planSetting {
	if o.Quick {
		return []planSetting{
			{pf: machine.Grid5000Calibrated(), n: 1024, p: 32},
			{pf: machine.BlueGenePCalibrated(), n: 4096, p: 256},
			{pf: machine.Exascale(), n: 1 << 14, p: 1 << 12},
		}
	}
	return []planSetting{
		{pf: machine.Grid5000Calibrated(), n: 8192, p: 128},
		{pf: machine.BlueGenePCalibrated(), n: 65536, p: 16384},
		{pf: machine.Exascale(), n: 1 << 22, p: 1 << 20},
	}
}

func runPlan(o Options) (*Result, error) {
	res := &Result{
		ID:     "plan",
		Title:  "Autotuning planner choices on the paper's platforms",
		Header: []string{"platform", "n", "p", "algorithm", "grid", "G", "b", "B", "bcast", "model comm (s)", "model total (s)"},
	}
	for _, s := range planSettings(o) {
		pf := s.pf
		if o.Uncalibrated {
			switch pf.Name {
			case machine.Grid5000Calibrated().Name:
				pf = machine.Grid5000()
			case machine.BlueGenePCalibrated().Name:
				pf = machine.BlueGeneP()
			}
		}
		pl, err := tune.PlanFor(tune.Request{
			Platform: pf, N: s.n, P: s.p,
			Quick: o.Quick,
		})
		if err != nil {
			return nil, err
		}
		b := pl.Best
		res.Rows = append(res.Rows, []string{
			pf.Name,
			fmt.Sprintf("%d", s.n), fmt.Sprintf("%d", s.p),
			string(b.Algorithm), b.Grid.String(),
			fmt.Sprintf("%d", b.Groups), fmt.Sprintf("%d", b.BlockSize), fmt.Sprintf("%d", b.OuterBlockSize),
			string(b.Broadcast),
			fmt.Sprintf("%.4g", b.ModelComm), fmt.Sprintf("%.4g", b.ModelTotal),
		})
		res.Findings = append(res.Findings,
			fmt.Sprintf("%s: scanned %d candidates, simulated %d; best %s",
				pf.Name, pl.Scanned, pl.Simulated, b.Candidate))
	}
	st := tune.Stats()
	res.Findings = append(res.Findings,
		fmt.Sprintf("plan cache: %d hits, %d misses, %d replays this process", st.CacheHits, st.CacheMisses, st.SimRuns))
	return res, nil
}

func init() {
	register(Experiment{
		ID:    "plan",
		Title: "Autotuner: planner-selected configurations per platform",
		Paper: "§VI — \"the optimal number of groups ... can be easily automated\"; the planner closes that loop",
		Run:   runPlan,
	})
}
